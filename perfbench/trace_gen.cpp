// Seeded inputs: sessions, client circuits, operand values and the request
// stream.  Everything the server sees is generated here from --seed.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "he/program.h"
#include "perfbench.h"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t idx =
        std::min(values.size() - 1,
                 static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[idx];
}

double mean(const std::vector<double> &values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

double band_mean(std::vector<double> values, double lo, double hi) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto first = static_cast<std::size_t>(std::floor(lo * n));
    const auto last = std::max(first + 1, std::min(values.size(),
                               static_cast<std::size_t>(std::ceil(hi * n))));
    return mean(std::vector<double>(values.begin() + first,
                                    values.begin() + last));
}

Shape shape_for(const Options &opts) {
    Shape s;
    if (opts.kind == Kind::HostServing) {
        // Arrivals keep gpu_serving's pattern, scaled to the host lane
        // model's service times.
        s.hint = serve::BackendHint::Host;
        s.sim_rate_rps = 1750.0;
        s.sim_limit_ms = 4.0;
        s.ladder_base_rps = 500.0;
    }
    if (opts.kind == Kind::TenantPrograms) {
        // The paper's operating point, cost-only, through two shards.
        s.n = 32768;
        s.levels = 8;
        s.functional = false;
        s.sharded = true;
        s.sim_rate_rps = 50.0;
        s.sim_limit_ms = 100.0;
        s.ladder_base_rps = 80.0;
        s.ladder_rungs = 8;
        s.sessions = 8;
        s.sim_requests = 2048;
        // Large drains: a drain's wall time counts its key misses, so
        // more requests per drain smooth the per-request latency.
        s.cycle = 32;
        s.warmup_cycles = 6;
        s.cap_warmup = 64;
        s.cap_requests = 512;
        s.replay_warmup = 8;
        s.replay_requests = 32;
        s.setup_repeats = 3;
        // Sessions per shard x circuits per session exceeds the 256-entry
        // compile cache, and four sessions' keysets per shard exceed a
        // budget of three (a keyset is 36 MiB expanded at this operating
        // point).
        s.circuits_per_session = 96;
        s.keysets = 2;
        s.budget_keysets = 3;
        s.invalid_every = 16;
    }
    if (opts.small) {
        // Functional: one round of the circuit deck (a circuit per drain),
        // so every session's circuit is compiled before anything is timed.
        s.warmup_cycles = std::min(s.warmup_cycles, s.sessions);
        s.sim_requests = 4 * s.cycle;
        s.cap_warmup = s.cycle;
        s.cap_requests = 4 * s.cycle;
        s.replay_requests = 8;
        s.setup_repeats = 1;
        if (s.circuits_per_session > 0) {
            s.circuits_per_session = 8;
        }
    }
    return s;
}

namespace {

double uniform01(std::mt19937_64 &rng) {
    return (static_cast<double>(rng() >> 11) + 0.5) * 0x1p-53;
}

/// Fisher-Yates over the raw generator (std::shuffle's draws are
/// library-specific; these inputs must not be).
template <typename Seq>
void seeded_shuffle(Seq &seq, std::mt19937_64 &rng) {
    for (std::size_t i = seq.size(); i > 1; --i) {
        std::swap(seq[i - 1], seq[rng() % i]);
    }
}

Circuit finish(he::ProgramBuilder &b, std::size_t inputs) {
    Circuit c;
    c.inputs = inputs;
    c.bytes = wire::serialize(b.build());
    return c;
}

/// One functional session circuit: a seeded template, one level deep.
Circuit functional_circuit(Template t) {
    const std::size_t inputs =
        t == Template::MulAddSq || t == Template::DiffMul ||
                t == Template::MulSubMul
            ? 3
            : 2;
    he::ProgramBuilder b(inputs);
    const auto ms = [&b](he::ProgramBuilder::Value v) {
        return b.rescale(b.relinearize(v));
    };
    const auto x = b.input(0);
    const auto y = b.input(1);
    switch (t) {
        case Template::Mul: b.output(ms(b.multiply(x, y))); break;
        case Template::MulAddSq:
            b.output(b.add(ms(b.multiply(x, y)), ms(b.square(b.input(2)))));
            break;
        case Template::SquareSum: b.output(ms(b.square(b.add(x, y)))); break;
        case Template::RotMul: b.output(b.rotate(ms(b.multiply(x, y)), 1)); break;
        case Template::DiffMul:
            b.output(ms(b.multiply(b.sub(x, y), b.input(2))));
            break;
        case Template::MulSubMul:
            b.output(b.sub(ms(b.multiply(x, y)),
                           ms(b.multiply(b.negate(y), b.input(2)))));
            break;
    }
    Circuit c = finish(b, inputs);
    c.kind = t;
    return c;
}

/// One tenant circuit: two tiers, each one multiply or square +
/// relinearize + rescale over values of the previous tier, decorated with
/// 0-3 adds/negates inside the tier (values of one tier share level and
/// scale, so every valid circuit compiles without scale repair).  The
/// decorations make circuits distinct while every valid one costs about
/// the same: two key switches.  Planted invalid circuits are a rescale
/// tower deeper than the modulus chain or an unrelinearized product fed
/// into another multiply; admission must reject both statically.
Circuit tenant_circuit(std::mt19937_64 &rng, std::size_t levels, bool valid) {
    const std::size_t inputs = 2 + rng() % 2;
    he::ProgramBuilder b(inputs);
    std::vector<he::ProgramBuilder::Value> tier;
    for (std::size_t i = 0; i < inputs; ++i) {
        tier.push_back(b.input(i));
    }
    const bool size_defect = !valid && rng() % 2 == 0;
    const std::size_t tiers = valid || size_defect ? 2 : levels + 1;
    for (std::size_t t = 0; t < tiers; ++t) {
        const auto x = tier[rng() % tier.size()];
        const auto y = tier[rng() % tier.size()];
        auto v = rng() % 3 == 0 ? b.square(x) : b.multiply(x, y);
        if (size_defect) {
            v = b.multiply(v, y);  // size-3 operand: SizeMismatch
        }
        std::vector<he::ProgramBuilder::Value> next{
            b.rescale(b.relinearize(v))};
        for (std::size_t d = rng() % 4; d > 0; --d) {
            next.push_back(rng() % 2 == 0 ? b.negate(next.back())
                                          : b.add(next.back(), next[0]));
        }
        tier = std::move(next);
    }
    auto out = tier[0];
    for (std::size_t i = 1; i < tier.size(); ++i) {
        out = b.add(out, tier[i]);
    }
    b.output(out);
    return finish(b, inputs);
}

}  // namespace

Inputs make_inputs(const Options &opts, const Shape &shape) {
    std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ULL + 17);
    Inputs in;
    if (shape.sharded) {
        // Equal sessions per shard and per lane (a shard's two lanes take
        // odd and even session ids), so placement luck does not decide the
        // imbalance.  Placement depends only on the ring, so a probe over
        // a tiny context answers it.
        const ckks::CkksContext tiny(
            ckks::EncryptionParameters::create(1024, 1));
        const serve::ShardedServer probe(tiny, xgpu::device1(), {},
                                         sharded_config(shape, 1, false));
        const std::size_t lanes = 2 * probe.shard_count();
        std::vector<std::size_t> per_lane(lanes, 0);
        for (uint64_t id = 1; in.session_ids.size() < shape.sessions; ++id) {
            if (per_lane[2 * probe.shard_of(id) + id % 2]++ <
                shape.sessions / lanes) {
                in.session_ids.push_back(id);
            }
        }
    } else {
        for (std::size_t s = 0; s < shape.sessions; ++s) {
            in.session_ids.push_back(s + 1);
        }
    }
    if (shape.functional) {
        in.operand_values.resize(shape.pool_operands);
        for (auto &values : in.operand_values) {
            values.resize(shape.n / 2);
            for (double &v : values) {
                v = 2.0 * uniform01(rng) - 1.0;
            }
        }
        // Each lane (sessions alternate between the two) holds every
        // template once, in a seeded order: the seed picks which session
        // ships which circuit, not the mix of circuit costs.
        std::array<std::array<std::size_t, kTemplates>, 2> order{};
        for (auto &lane : order) {
            for (std::size_t t = 0; t < kTemplates; ++t) {
                lane[t] = t;
            }
            seeded_shuffle(lane, rng);
        }
        for (std::size_t s = 0; s < shape.sessions; ++s) {
            std::array<std::size_t, 3> ops{};
            for (auto &o : ops) {
                o = rng() % shape.pool_operands;
            }
            in.session_operands.push_back(ops);
            in.session_circuit.push_back(in.circuits.size());
            in.circuits.push_back(functional_circuit(
                static_cast<Template>(order[s % 2][(s / 2) % kTemplates])));
        }
    } else {
        // Each session: its valid circuits, then four planted invalid ones.
        for (std::size_t s = 0; s < shape.sessions; ++s) {
            std::vector<std::size_t> mine;
            for (std::size_t c = 0; c < shape.circuits_per_session + 4; ++c) {
                mine.push_back(in.circuits.size());
                in.circuits.push_back(tenant_circuit(
                    rng, shape.levels, c < shape.circuits_per_session));
            }
            in.session_circuits.push_back(std::move(mine));
        }
    }
    return in;
}

TraceGen::TraceGen(const Options &opts, const Shape &shape,
                   const Inputs &inputs, double rate_rps)
    : shape_(&shape), inputs_(&inputs),
      tenant_(opts.kind == Kind::TenantPrograms),
      mean_gap_ns_(1e9 / rate_rps),
      rng_(opts.seed * 0xbf58476d1ce4e5b9ULL + 29),
      sessions_(shape.sessions), circuit_sessions_(shape.sessions) {}

std::size_t Deck::deal(std::mt19937_64 &rng) {
    if (pos_ == cards_.size()) {
        std::iota(cards_.begin(), cards_.end(), std::size_t{0});
        seeded_shuffle(cards_, rng);
        pos_ = 0;
    }
    return cards_[pos_++];
}

void TraceGen::refill() {
    // Stratified blocks keep the op mix (and the planted fraction) exact
    // per block while the seed picks routines, order and positions.
    block_.clear();
    block_pos_ = 0;
    if (tenant_) {
        const std::size_t bad = rng_() % shape_->invalid_every;
        for (std::size_t i = 0; i < shape_->invalid_every; ++i) {
            Planned p;
            p.op = serve::Op::Program;
            p.expected = i == bad ? serve::Status::InvalidProgram
                                  : serve::Status::Ok;
            block_.push_back(p);
        }
        return;
    }
    // Twelve requests: two 2-tile matmul jobs, one client circuit and
    // nine Section IV-C routines (the fig_serving_latency proportions).
    for (std::size_t i = 0; i < 12; ++i) {
        Planned p;
        if (i < 2) {
            p.op = serve::Op::MatmulTile;
        } else if (i == 2) {
            p.op = serve::Op::Program;
        } else {
            p.op = static_cast<serve::Op>(rng_() % 5);
        }
        block_.push_back(p);
    }
    seeded_shuffle(block_, rng_);
}

Planned TraceGen::next() {
    if (block_pos_ == block_.size()) {
        refill();
    }
    Planned p = block_[block_pos_++];
    // Bounded jitter (gap uniform in [0.5, 1.5] x mean) keeps the latency
    // tail a property of the server, not of rare clusters in one seed's
    // arrivals; the batching window spans about one mean gap.
    arrival_ns_ += mean_gap_ns_ * (0.5 + uniform01(rng_));
    // Sessions are dealt from shuffled decks, so every session (and with
    // it every lane and shard) sees the same request count per round; the
    // seed picks the order, not the load balance.  Client circuits have a
    // deck of their own: each round ships every session's circuit once, so
    // the warm-up compiles and allocates for all of them.
    const std::size_t s = p.op == serve::Op::Program && !tenant_
                              ? circuit_sessions_.deal(rng_)
                              : sessions_.deal(rng_);
    p.session = inputs_->session_ids[s];
    p.arrival_ns = arrival_ns_;
    p.index = index_++;
    if (p.op == serve::Op::Program) {
        if (tenant_) {
            const auto &mine = inputs_->session_circuits[s];
            const std::size_t valid = mine.size() - 4;
            p.circuit = p.expected == serve::Status::Ok
                            ? mine[rng_() % valid]
                            : mine[valid + rng_() % 4];
        } else {
            p.circuit = inputs_->session_circuit[s];
        }
    }
    return p;
}

std::vector<double> expected_values(const Planned &p, const Inputs &in,
                                    double out_scale) {
    const auto &ops = in.session_operands[p.session - 1];
    const auto &a = in.operand_values[ops[0]];
    const auto &b = in.operand_values[ops[1]];
    const auto &c = in.operand_values[ops[2]];
    const std::size_t slots = a.size();
    std::vector<double> out(slots);
    Template t = Template::Mul;
    if (p.op == serve::Op::Program) {
        t = in.circuits[p.circuit].kind;
    }
    for (std::size_t i = 0; i < slots; ++i) {
        const std::size_t r = (i + 1) % slots;
        double v = 0.0;
        switch (p.op) {
            case serve::Op::MulLin:
            case serve::Op::MulLinRS: v = a[i] * b[i]; break;
            case serve::Op::SqrLinRS: v = a[i] * a[i]; break;
            case serve::Op::MulLinRSModSwAdd:
                // The addend adopts the product's scale metadata.
                v = a[i] * b[i] + c[i] * (kScale / out_scale);
                break;
            case serve::Op::Rotate: v = a[r]; break;
            case serve::Op::MatmulTile: v = 2.0 * a[i] * b[i]; break;
            case serve::Op::Program:
                switch (t) {
                    case Template::Mul: v = a[i] * b[i]; break;
                    case Template::MulAddSq: v = a[i] * b[i] + c[i] * c[i]; break;
                    case Template::SquareSum:
                        v = (a[i] + b[i]) * (a[i] + b[i]);
                        break;
                    case Template::RotMul: v = a[r] * b[r]; break;
                    case Template::DiffMul: v = (a[i] - b[i]) * c[i]; break;
                    case Template::MulSubMul: v = a[i] * b[i] + b[i] * c[i]; break;
                }
                break;
        }
        out[i] = v;
    }
    return out;
}

}  // namespace perfbench
