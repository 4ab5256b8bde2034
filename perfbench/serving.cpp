// Measured set-up, the server under test, the closed-loop serving window,
// outcome checks and the cost-only capacity ladder.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {

namespace {

uint64_t hash_bytes(std::span<const uint8_t> bytes) {
    uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        uint64_t w = 0;
        std::memcpy(&w, bytes.data() + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
        h ^= h >> 29;
    }
    for (; i < bytes.size(); ++i) {
        h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
    return h ^ bytes.size();
}

}  // namespace

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return std::stoi(line.substr(8));
        }
    }
    return -1;
}

void Server::submit(std::span<const uint8_t> bytes) {
    if (sharded) {
        sharded->submit(bytes);
    } else {
        single->submit(bytes);
    }
}

std::vector<serve::Response> Server::run() {
    return sharded ? sharded->run() : single->run();
}

serve::LatencyStats Server::stats() const {
    return sharded ? sharded->stats() : single->stats();
}

std::size_t Server::shard_of(uint64_t session) const {
    return sharded ? sharded->shard_of(session) : 0;
}

std::size_t Server::shard_count() const {
    return sharded ? sharded->shard_count() : 1;
}

std::size_t Server::lane_count() const {
    return sharded ? 2 * sharded->shard_count() : single->lane_count();
}

serve::ServerConfig server_config(bool functional) {
    serve::ServerConfig cfg;
    cfg.max_batch = 8;
    cfg.batch_window_ns = 0.25e6;
    cfg.queue_count = 0;  // one lane per tile: two on Device1
    cfg.functional = functional;
    cfg.compile_programs = true;
    return cfg;
}

serve::ShardedConfig sharded_config(const Shape &shape,
                                    std::size_t key_budget_bytes,
                                    bool functional) {
    serve::ShardedConfig cfg;
    cfg.shard_count = 2;
    // A drain never routes more than one cycle to a shard, so the credit
    // window never rejects (no planted overload).
    cfg.credits_per_shard = shape.cycle;
    cfg.key_budget_bytes = key_budget_bytes;
    cfg.pool_workers_per_shard = kPoolWorkers;
    cfg.shard = server_config(functional);
    return cfg;
}

Server make_server(const Env &env, const Shape &shape, const Inputs &inputs,
                   bool functional) {
    Server s;
    core::GpuOptions opts;
    opts.isa = xgpu::IsaMode::InlineAsm;
    if (shape.sharded) {
        s.sharded = std::make_unique<serve::ShardedServer>(
            *env.ctx, xgpu::device1(), opts,
            sharded_config(shape, shape.budget_keysets * env.keyset_bytes,
                           functional));
        for (const uint64_t id : inputs.session_ids) {
            s.sharded->register_session_keys(
                id, env.relin[(id - 1) % env.relin.size()], env.galois);
        }
    } else {
        s.pool = std::make_unique<xgpu::ThreadPool>(kPoolWorkers);
        s.single = std::make_unique<serve::InferenceServer>(
            *env.ctx, xgpu::device1(), opts, server_config(functional),
            nullptr, s.pool.get());
        s.single->set_keys(env.relin[0], env.galois);
    }
    return s;
}

std::unique_ptr<Env> setup(const Shape &shape, const Inputs &inputs,
                           uint64_t seed) {
    auto env = std::make_unique<Env>();
    env->ctx = std::make_unique<ckks::CkksContext>(
        ckks::EncryptionParameters::create(shape.n, shape.levels));
    if (shape.functional) {
        env->keygen =
            std::make_unique<ckks::KeyGenerator>(*env->ctx, seed ^ 0x5EA1);
        env->relin.push_back(env->keygen->create_relin_keys());
        const int steps[] = {1};
        env->galois = env->keygen->create_galois_keys(steps);
        env->encoder = std::make_unique<ckks::CkksEncoder>(*env->ctx);
        env->encryptor = std::make_unique<ckks::Encryptor>(
            *env->ctx, env->keygen->create_public_key(),
            env->keygen->secret_key());
        env->decryptor = std::make_unique<ckks::Decryptor>(
            *env->ctx, env->keygen->secret_key());
        for (const auto &values : inputs.operand_values) {
            env->operands.push_back(
                wire::serialize(env->encryptor->encrypt_symmetric(
                    env->encoder->encode(std::span<const double>(values),
                                         kScale))));
        }
    } else {
        // Tenants hold their own relinearization keys (their circuits
        // never rotate); a few keygens are shared round-robin, which the
        // server cannot tell apart from one keygen per session.
        for (std::size_t k = 0; k < shape.keysets; ++k) {
            auto keygen = std::make_unique<ckks::KeyGenerator>(
                *env->ctx, seed * 31 + k);
            env->relin.push_back(keygen->create_relin_keys());
            if (!env->keygen) {
                env->keygen = std::move(keygen);
            }
        }
    }
    env->keyset_bytes = serve::expanded_key_bytes(env->relin[0], env->galois);
    env->server = make_server(*env, shape, inputs, shape.functional);
    return env;
}

std::vector<uint8_t> encode_request(const Planned &p, const Inputs &in,
                                    const Env &env, const Shape &shape,
                                    bool cost_only) {
    serve::Request r;
    r.session_id = p.session;
    r.op = p.op;
    r.arrival_ns = p.arrival_ns;
    r.backend = shape.hint;
    r.cost_only = cost_only;
    r.matmul_tiles = kMatmulTiles;
    std::size_t arity = serve::op_arity(p.op);
    if (p.op == serve::Op::Program) {
        r.program = in.circuits[p.circuit].bytes;
        arity = in.circuits[p.circuit].inputs;
    }
    if (!cost_only) {
        const auto &ops = in.session_operands[p.session - 1];
        for (std::size_t i = 0; i < arity; ++i) {
            r.inputs.push_back(env.operands[ops[i]]);
        }
    }
    return wire::serialize(r);
}

Checker::Checker(const Inputs &inputs, const Env &env, bool functional)
    : inputs_(&inputs), env_(&env), functional_(functional) {}

bool Checker::result_ok(const Planned &p, const serve::Response &r) {
    if (!functional_) {
        return true;
    }
    const uint64_t key = p.session * 64 + static_cast<uint64_t>(p.op);
    const uint64_t h = hash_bytes(r.result);
    const auto it = result_hash_.find(key);
    if (it != result_hash_.end() && it->second == h) {
        return true;
    }
    // First result of this (session, op), or bytes that differ from the
    // first one: decrypt and compare with the plaintext model.
    try {
        obs::Span span("bench.decrypt", obs::Category::Other);
        const auto t0 = Clock::now();
        const ckks::Ciphertext ct = wire::load_ciphertext(r.result, *env_->ctx);
        const auto decoded =
            env_->encoder->decode(env_->decryptor->decrypt(ct));
        decrypt_ms.push_back(ms_between(t0, Clock::now()));
        const auto expect = expected_values(p, *inputs_, ct.scale);
        for (std::size_t i = 0; i < expect.size(); ++i) {
            const double err = std::abs(decoded[i].real() - expect[i]);
            if (!(err <= 1e-2 + 1e-4 * std::abs(expect[i]))) {
                errors.push_back("request " + std::to_string(p.index) +
                                 " (" + serve::op_name(p.op) + "): slot " +
                                 std::to_string(i) + " decrypts to " +
                                 std::to_string(decoded[i].real()) +
                                 ", expected " + std::to_string(expect[i]));
                return false;
            }
        }
    } catch (const std::exception &e) {
        errors.push_back("request " + std::to_string(p.index) +
                         ": result does not decode: " + e.what());
        return false;
    }
    result_hash_.emplace(key, h);
    return true;
}

std::size_t Checker::check(const std::vector<Planned> &planned,
                           const std::vector<serve::Response> &responses,
                           std::vector<double> &sim_ns) {
    std::map<double, std::size_t> by_arrival;
    for (std::size_t i = 0; i < planned.size(); ++i) {
        by_arrival.emplace(planned[i].arrival_ns, i);
    }
    std::vector<const serve::Response *> answer(planned.size(), nullptr);
    std::size_t failed = 0;
    const auto fail = [&](std::string why) {
        ++failed;
        if (errors.size() < 20) {
            errors.push_back(std::move(why));
        }
    };
    // Executed requests carry their arrival time; admission rejections
    // (enqueue 0) are matched afterwards, by session, in submission order.
    std::vector<const serve::Response *> rejected;
    for (const serve::Response &r : responses) {
        if (r.enqueue_ns <= 0.0) {
            rejected.push_back(&r);
            continue;
        }
        const auto it = by_arrival.find(r.enqueue_ns);
        if (it == by_arrival.end() || answer[it->second] != nullptr) {
            fail("response for an unknown or already answered request");
            continue;
        }
        answer[it->second] = &r;
    }
    for (const serve::Response *r : rejected) {
        std::size_t pick = planned.size();
        for (std::size_t i = 0; i < planned.size(); ++i) {
            if (answer[i] == nullptr && planned[i].session == r->session_id &&
                (pick == planned.size() || planned[i].expected == r->code)) {
                const bool exact = planned[i].expected == r->code;
                pick = i;
                if (exact) {
                    break;
                }
            }
        }
        if (pick == planned.size()) {
            fail("rejection for an unknown session");
            continue;
        }
        answer[pick] = r;
    }
    sim_ns.assign(planned.size(), -1.0);
    for (std::size_t i = 0; i < planned.size(); ++i) {
        const Planned &p = planned[i];
        const serve::Response *r = answer[i];
        if (r == nullptr) {
            fail("request " + std::to_string(p.index) + " never answered");
            continue;
        }
        if (r->session_id != p.session || r->code != p.expected ||
            r->ok != (p.expected == serve::Status::Ok)) {
            fail("request " + std::to_string(p.index) + " (" +
                 serve::op_name(p.op) + "): session " +
                 std::to_string(r->session_id) + " status " +
                 serve::status_name(r->code) + ", expected session " +
                 std::to_string(p.session) + " status " +
                 serve::status_name(p.expected) + " " + r->error);
            continue;
        }
        if (r->ok && !result_ok(p, *r)) {
            ++failed;
            continue;
        }
        if (r->ok) {
            sim_ns[i] = r->complete_ns - r->enqueue_ns;
        }
    }
    return failed;
}

namespace {

/// A deliberately wrong answer, so the benchmark's tests can show the
/// checks catch one: another valid ciphertext as the result, a foreign
/// session id (cost-only responses carry no result), or a flipped status.
void plant_fault(const std::string &plant, std::vector<serve::Response> &rs,
                 const Env &env) {
    for (serve::Response &r : rs) {
        if (!r.ok) {
            continue;
        }
        if (plant == "flip_status") {
            r.ok = false;
            r.code = serve::Status::ExecError;
        } else if (!r.result.empty()) {
            r.result = env.operands[0];
        } else {
            r.session_id += 1000;
        }
        return;
    }
}

}  // namespace

void Window::append(const Window &o) {
    attempted += o.attempted;
    failed += o.failed;
    server_ms += o.server_ms;
    const auto cat = [](auto &into, const auto &from) {
        into.insert(into.end(), from.begin(), from.end());
    };
    cat(drain_ms, o.drain_ms);
    cat(wall_ms, o.wall_ms);
    cat(sim_ns, o.sim_ns);
    cat(planned, o.planned);
    cat(bytes_in, o.bytes_in);
    cat(bytes_out, o.bytes_out);
}

Window serve_window(Env &env, TraceGen &gen, const Inputs &inputs,
                    const Shape &shape, Checker &checker, double seconds,
                    std::size_t min_requests, std::size_t max_cycles,
                    const std::string &plant, const CycleHook &hook) {
    Window w;
    const auto start = Clock::now();
    for (std::size_t cycle = 0;; ++cycle) {
        const std::size_t executed = static_cast<std::size_t>(std::count_if(
            w.sim_ns.begin(), w.sim_ns.end(),
            [](double ns) { return ns >= 0.0; }));
        if (max_cycles > 0 ? cycle >= max_cycles
                           : ms_between(start, Clock::now()) >=
                                     seconds * 1e3 &&
                                 executed >= min_requests) {
            break;
        }
        // Client side, outside the timed intervals: plan and encode.
        std::vector<Planned> planned(shape.cycle);
        std::vector<std::vector<uint8_t>> bytes(shape.cycle);
        {
            obs::Span span("bench.encode", obs::Category::Other);
            for (std::size_t k = 0; k < shape.cycle; ++k) {
                planned[k] = gen.next();
                bytes[k] = encode_request(planned[k], inputs, env, shape,
                                          !shape.functional);
            }
        }
        std::vector<Clock::time_point> submitted(shape.cycle);
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < shape.cycle; ++k) {
            submitted[k] = Clock::now();
            obs::Span span("bench.submit", obs::Category::Other);
            env.server.submit(bytes[k]);
        }
        std::vector<serve::Response> responses;
        {
            obs::Span span("bench.run", obs::Category::Other);
            responses = env.server.run();
        }
        const auto t1 = Clock::now();
        if (shape.sharded) {
            // The operator's scraper reads stats once per drain cycle.
            obs::Span span("bench.stats", obs::Category::Other);
            (void)env.server.stats();
        }
        const auto t2 = Clock::now();
        w.server_ms += ms_between(t0, t2);
        w.drain_ms.push_back(ms_between(t0, t2));
        for (std::size_t k = 0; k < shape.cycle; ++k) {
            w.wall_ms.push_back(ms_between(submitted[k], t1));
            w.bytes_in.push_back(bytes[k].size());
        }
        for (const serve::Response &r : responses) {
            w.bytes_out.push_back(r.result.size());
        }
        if (!plant.empty() && cycle == 0) {
            plant_fault(plant, responses, env);
        }
        if (hook) {
            hook(planned, responses);
        }
        std::vector<double> sim;
        w.failed += checker.check(planned, responses, sim);
        w.sim_ns.insert(w.sim_ns.end(), sim.begin(), sim.end());
        w.planned.insert(w.planned.end(), planned.begin(), planned.end());
        w.attempted += shape.cycle;
    }
    return w;
}

namespace {

/// A stable queue keeps its tail near its head; a growing backlog makes
/// later requests wait longer: a rung fails when the mean latency of its
/// last quarter exceeds this multiple of its first quarter's.
constexpr double kMaxBacklog = 2.0;

struct Rung {
    double rate = 0.0;
    double p99_ms = 0.0;
    double backlog = 0.0;  ///< last-quarter / first-quarter mean latency
    bool pass = false;
};

Rung replay_rung(const Options &opts, const Shape &shape,
                 const Inputs &inputs, const Env &env, double rate,
                 std::size_t &failed) {
    TraceGen gen(opts, shape, inputs, rate);
    Server server = make_server(env, shape, inputs, /*functional=*/false);
    Checker checker(inputs, env, /*functional=*/false);
    std::vector<double> lat_ms;
    const std::size_t total = shape.cap_warmup + shape.cap_requests;
    for (std::size_t done = 0; done < total; done += shape.cycle) {
        std::vector<Planned> planned(shape.cycle);
        for (auto &p : planned) {
            p = gen.next();
            server.submit(encode_request(p, inputs, env, shape, true));
        }
        std::vector<double> sim;
        failed += checker.check(planned, server.run(), sim);
        if (done >= shape.cap_warmup) {
            for (const double ns : sim) {
                if (ns >= 0.0) {
                    lat_ms.push_back(ns * 1e-6);
                }
            }
        }
    }
    Rung r;
    r.rate = rate;
    r.p99_ms = sim_p99(lat_ms);
    const std::size_t q = lat_ms.size() / 4;
    const double first =
        mean(std::vector<double>(lat_ms.begin(), lat_ms.begin() + q));
    const double last =
        mean(std::vector<double>(lat_ms.end() - q, lat_ms.end()));
    r.backlog = first > 0.0 ? last / first : 0.0;
    r.pass = r.p99_ms <= shape.sim_limit_ms && r.backlog <= kMaxBacklog;
    return r;
}

}  // namespace

double sim_capacity(const Options &opts, const Shape &shape,
                    const Inputs &inputs, const Env &env,
                    std::vector<std::string> &log, std::size_t &failed) {
    const auto rung_rate = [&](double k) {
        return shape.ladder_base_rps * std::pow(2.0, k / 4.0);
    };
    Rung pass;
    Rung fail;
    const auto eval = [&](double k) {
        const Rung r =
            replay_rung(opts, shape, inputs, env, rung_rate(k), failed);
        char line[160];
        std::snprintf(line, sizeof line,
                      "  rung %6.2f  rate %9.2f req/s  sim p99 %9.3f ms  "
                      "backlog %5.2f  %s",
                      k, r.rate, r.p99_ms, r.backlog,
                      r.pass ? "pass" : "fail");
        log.emplace_back(line);
        (r.pass ? pass : fail) = r;
        return r.pass;
    };
    // Bisection over the fixed ladder (p99 grows with the offered rate),
    // then one halving between the last passing and first failing rung.
    int lo = -1;
    int hi = shape.ladder_rungs;
    while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        (eval(mid) ? lo : hi) = mid;
    }
    if (lo < 0) {
        log.emplace_back("  no rung passes: capacity below the ladder");
        return 0.0;
    }
    if (hi == shape.ladder_rungs) {
        log.emplace_back("  every rung passes: capacity above the ladder");
        return pass.rate;
    }
    eval(0.5 * (lo + hi));
    // Place the crossing inside the final bracket (log-rate interpolation
    // of whichever criterion failed first), so the figure is not
    // quantized to the ladder's grid.
    const auto crossing = [](double at_pass, double at_fail, double limit) {
        return at_fail > limit && at_fail > at_pass
                   ? (limit - at_pass) / (at_fail - at_pass)
                   : 1.0;
    };
    const double x =
        std::min(crossing(pass.p99_ms, fail.p99_ms, shape.sim_limit_ms),
                 crossing(pass.backlog, fail.backlog, kMaxBacklog));
    return pass.rate * std::pow(fail.rate / pass.rate, x);
}

}  // namespace perfbench
