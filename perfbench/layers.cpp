// The traced run: per-layer metrics on both clocks.
//
// Spans come from three sources: the benchmark's own spans around the
// calls a client makes (bench.*), a replay of the traced window's requests
// through each layer's public functions (timed here), and the spans the
// program records itself (wire.parse, serve.analyze, keys.*, compile.*,
// serve.drain on the host clock; serve.request, serve.lane, kernels and
// xfer on the simulated clock).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "he/analyze.h"
#include "he/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "xehe/routines.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The host lane's time model, rebuilt from the request so that a host lane
/// reconciles against the terms the server charges rather than against its
/// own span: per program node per limb (kHostNodeNs in serve/server.cpp),
/// counting a routine's uncompiled nodes, a client circuit's nodes as
/// compiled at admission and two nodes per matmul tile.  The server also
/// charges a keyset re-staging on a key miss; the host workload registers
/// no per-session keys, so that term is zero and a miss would show as an
/// unreconciled request.
class HostLaneModel {
public:
    static constexpr double kHostNodeNs = 40000.0;

    HostLaneModel(const ckks::CkksContext &ctx, const Inputs &inputs)
        : ctx_(&ctx), inputs_(&inputs) {}

    double lane_ns(const Planned &p) {
        std::size_t nodes = 2 * kMatmulTiles;
        if (p.op == serve::Op::Program) {
            auto it = circuit_nodes_.find(p.circuit);
            if (it == circuit_nodes_.end()) {
                he::CompilerOptions copts;
                copts.input_level = ctx_->max_level();
                copts.input_scale = kScale;
                const he::Program compiled =
                    he::ProgramCompiler(*ctx_, copts)
                        .compile(he::load_program(
                            inputs_->circuits[p.circuit].bytes, *ctx_))
                        .program;
                it = circuit_nodes_.emplace(p.circuit, compiled.nodes.size())
                         .first;
            }
            nodes = it->second;
        } else if (p.op != serve::Op::MatmulTile) {
            nodes = core::routine_program(static_cast<core::Routine>(p.op))
                        .nodes.size();
        }
        return kHostNodeNs *
               static_cast<double>(std::max<std::size_t>(nodes, 1)) *
               static_cast<double>(ctx_->max_level() + 1);
    }

private:
    const ckks::CkksContext *ctx_;
    const Inputs *inputs_;
    std::map<std::size_t, std::size_t> circuit_nodes_;
};

/// The traced window's spans, folded drain by drain (the recorder is
/// cleared after each drain, so its ring never wraps).
struct SpanFold {
    struct Total {
        double ms = 0.0;
        std::size_t count = 0;
    };
    std::map<std::string, Total> host;
    double drain_wait_ms = 0.0;  ///< per drain, the slowest shard's drain
    std::size_t spans = 0;
    std::size_t requests = 0;
    double queue_wait_ns = 0.0;
    double lane_busy_ns = 0.0;
    /// Summed per-drain sim spans (first arrival to last completion):
    /// untraced drains interleave, so one first-to-last span would count
    /// their lane time as idle.
    double sim_span_ns = 0.0;
    double batch_requests = 0.0;
    std::size_t batches = 0;
    /// Requests whose sim layers (queue wait + kernels + transfers + the
    /// download's host synchronization, or + a host lane's modelled time)
    /// miss serve.request by more than 1%.
    std::size_t unreconciled = 0;
    double worst_gap = 0.0;  ///< largest |gap| / serve.request
    std::string worst;       ///< that request's op and outcome

    /// `host_lane_ns`: HostLaneModel time of each request of the drain,
    /// keyed by arrival (serve.request starts at the request's arrival).
    void fold(const std::vector<obs::SpanRecord> &records,
              double host_sync_ns,
              const std::unordered_map<double, double> &host_lane_ns) {
        std::unordered_map<uint64_t, const obs::SpanRecord *> reqs;
        std::unordered_map<uint64_t, const obs::SpanRecord *> lanes;
        std::unordered_map<uint64_t, double> kernel;
        std::unordered_map<uint64_t, double> xfer;
        double drain = 0.0;
        for (const obs::SpanRecord &s : records) {
            ++spans;
            const double dur = s.end_ns - s.start_ns;
            if (s.clock == obs::Clock::Host) {
                Total &t = host[s.name];
                t.ms += dur * 1e-6;
                ++t.count;
                if (s.name == "serve.drain") {
                    drain = std::max(drain, dur * 1e-6);
                }
            } else if (s.name == "serve.request") {
                reqs[s.id] = &s;
            } else if (s.name == "serve.lane") {
                lanes[s.parent] = &s;
            } else if (s.name == "serve.batch") {
                batch_requests += std::stod(s.detail.substr(2));
                ++batches;
            } else if (s.category == obs::Category::Kernel) {
                (s.name == "xfer" ? xfer : kernel)[s.parent] += dur;
            }
        }
        drain_wait_ms += drain;
        double first = std::numeric_limits<double>::infinity();
        double last = 0.0;
        for (const auto &[id, req] : reqs) {
            ++requests;
            const auto lane_it = lanes.find(id);
            if (lane_it == lanes.end()) {
                ++unreconciled;
                continue;
            }
            const obs::SpanRecord &lane = *lane_it->second;
            const double wait = lane.start_ns - req->start_ns;
            const double lane_ns = lane.end_ns - lane.start_ns;
            queue_wait_ns += wait;
            lane_busy_ns += lane_ns;
            first = std::min(first, req->start_ns);
            last = std::max(last, req->end_ns);
            double attributed = wait;
            if (lane.detail.rfind("host", 0) == 0) {
                const auto model = host_lane_ns.find(req->start_ns);
                if (model != host_lane_ns.end()) {
                    attributed += model->second;
                }
            } else {
                // A device lane: its time is kernels and transfers, plus
                // the one blocking synchronization of a functional result
                // download (Fig. 2), which is charged without a span.
                const bool downloaded =
                    req->detail.find(" ok") != std::string::npos &&
                    host_sync_ns > 0.0;
                attributed = wait + kernel[lane.id] + xfer[lane.id] +
                             (downloaded ? host_sync_ns : 0.0);
            }
            const double total = req->end_ns - req->start_ns;
            const double gap = std::abs(total - attributed) / total;
            if (gap >= worst_gap) {
                worst_gap = gap;
                worst = req->detail;
            }
            if (gap > 0.01) {
                ++unreconciled;
            }
        }
        if (last > first) {
            sim_span_ns += last - first;
        }
    }
};

/// Per-call wall times of one replay of the window's requests through
/// each layer's public functions, plus the replay queue's counters.
struct Replay {
    std::size_t requests = 0;
    std::size_t programs = 0;
    std::size_t operands = 0;
    double request_decode_ms = 0.0;
    double program_decode_us = 0.0;
    double analyze_us = 0.0;
    double compile_us = 0.0;
    double ct_decode_ms = 0.0;  ///< summed over operands
    double upload_ms = 0.0;
    double exec_ms = 0.0;
    double download_ms = 0.0;
    double encode_ms = 0.0;
    double host_exec_ms = 0.0;
    std::size_t host_execs = 0;
    double launches = 0.0;
    double kernel_ns = 0.0;
    double ntt_ns = 0.0;
    double alu_ops = 0.0;
    double ntt_alu_ops = 0.0;
    double ntt_time_ns = 0.0;
    double allocs = 0.0;
    double gmem_bytes = 0.0;
};

template <typename F>
double time_ms(F &&f) {
    const auto t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

/// A zero ciphertext of the workload's shape (cost-only workloads ship no
/// ciphertexts; the per-operand layers are timed on this stand-in).
ckks::Ciphertext zero_ciphertext(const ckks::CkksContext &ctx,
                                 std::size_t level) {
    ckks::Ciphertext ct;
    ct.resize(ctx.n(), 2, level);
    ct.scale = kScale;
    ct.ntt_form = true;
    return ct;
}

/// Device-memory traffic of one request, computed from ciphertext and key
/// sizes (the profiler keeps no byte counts): each node reads two and
/// writes one ciphertext; each key switch also streams its key.
double computed_gmem_bytes(const he::ProgramStats &st, std::size_t n,
                           std::size_t level) {
    const double ct = 2.0 * static_cast<double>(level * n) * 8.0;
    const double key =
        static_cast<double>(level) * 2.0 *
        static_cast<double>((level + 1) * n) * 8.0;
    return static_cast<double>(st.nodes) * 3.0 * ct +
           static_cast<double>(st.key_switches) * key;
}

Replay replay_layers(const Shape &shape, const Inputs &inputs, Env &env,
                     const std::vector<Planned> &sample,
                     xgpu::ThreadPool &pool, std::size_t warmup,
                     std::size_t host_exec_limit) {
    const ckks::CkksContext &ctx = *env.ctx;
    const std::size_t level = shape.levels;
    core::GpuOptions options;
    options.isa = xgpu::IsaMode::InlineAsm;
    // Bound explicitly to the pool: the Queue default argument would pick
    // ThreadPool::global(), sized from hardware_concurrency().
    xgpu::Queue queue(xgpu::device1(), xgpu::ExecConfig{1, options.isa, true},
                      &pool);
    core::GpuContext gpu(ctx, queue, options);
    gpu.set_functional(shape.functional);
    core::GpuEvaluator evaluator(gpu);
    he::GpuBackend gpu_backend(gpu, evaluator);
    he::HostBackend host_backend(ctx);
    const std::vector<uint8_t> zero_bytes =
        wire::serialize(zero_ciphertext(ctx, level));

    he::AnalyzerOptions admission;
    admission.assume_alignment = true;
    admission.assume_validated = true;
    admission.errors_only = true;
    const he::ProgramAnalyzer analyzer(ctx, admission);
    he::CompilerOptions copts;
    copts.input_level = level;
    copts.input_scale = kScale;
    const he::ProgramCompiler compiler(ctx, copts);
    const auto keys_of = [&env](const Planned &p) {
        he::ProgramKeys keys;
        keys.relin = &env.relin[(p.session - 1) % env.relin.size()];
        keys.galois = &env.galois;
        return keys;
    };

    // The first `warmup` requests make every call but are not counted: the
    // fresh queue, evaluator and backends build tables and caches lazily.
    Replay rp;
    Replay warm;
    std::vector<he::Program> programs(sample.size());
    std::vector<bool> admitted(sample.size(), false);
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const Planned &p = sample[k];
        Replay &acc = k < warmup ? warm : rp;
        const std::vector<uint8_t> bytes =
            encode_request(p, inputs, env, shape, !shape.functional);
        serve::Request req;
        acc.request_decode_ms +=
            time_ms([&] { req = serve::load_request(bytes); });
        ++acc.requests;

        const he::Program *program = nullptr;
        he::ProgramStats stats;
        if (p.op == serve::Op::Program) {
            ++acc.programs;
            he::Program raw;
            acc.program_decode_us += 1e3 * time_ms([&] {
                raw = he::load_program(req.program, ctx);
            });
            he::AnalysisReport report;
            acc.analyze_us += 1e3 * time_ms([&] {
                report = analyzer.analyze(raw, he::InputFacts{
                                                   shape.functional ? 0u : 2u,
                                                   level, 0.0});
            });
            if (!report.ok()) {
                continue;  // rejected at admission: no further layers
            }
            acc.compile_us += 1e3 * time_ms([&] {
                programs[k] = compiler.compile(raw).program;
            });
            program = &programs[k];
            stats = program->stats();
        } else if (p.op != serve::Op::MatmulTile) {
            programs[k] = core::routine_program_compiled(
                static_cast<core::Routine>(p.op));
            program = &programs[k];
            stats = program->stats();
        }
        admitted[k] = true;
        const std::size_t arity =
            program ? program->num_inputs : serve::op_arity(p.op);
        acc.operands += arity;

        // Operands: wire decode, then upload (the cost-only server
        // fabricates instead; the stand-in times what an upload costs).
        std::vector<he::Cipher> gpu_ops;
        for (std::size_t i = 0; i < arity; ++i) {
            const std::span<const uint8_t> ct_bytes =
                shape.functional ? std::span<const uint8_t>(req.inputs[i])
                                 : std::span<const uint8_t>(zero_bytes);
            ckks::Ciphertext ct;
            acc.ct_decode_ms +=
                time_ms([&] { ct = wire::load_ciphertext(ct_bytes, ctx); });
            core::GpuCiphertext g;
            acc.upload_ms += time_ms([&] { g = core::upload(gpu, ct); });
            gpu_ops.push_back(gpu_backend.adopt(std::move(g)));
        }

        const he::ProgramKeys keys = keys_of(p);
        const xgpu::Profiler::Snapshot before = queue.profiler().snapshot();
        const auto entries_before = queue.profiler().entries();
        const std::size_t allocs_before = queue.cache().stats().requests;
        he::Cipher result;
        acc.exec_ms += time_ms([&] {
            if (p.op == serve::Op::MatmulTile) {
                const auto &a = gpu_backend.native(gpu_ops[0]);
                const auto &b = gpu_backend.native(gpu_ops[1]);
                core::GpuCiphertext sum = core::allocate_ciphertext(
                    gpu, 3, a.rns, a.scale * b.scale);
                for (uint64_t t = 0; t < kMatmulTiles; ++t) {
                    evaluator.multiply_acc(a, b, sum);
                }
                result = gpu_backend.adopt(std::move(sum));
            } else {
                result = he::run_program(*program, gpu_backend, gpu_ops,
                                         keys)
                             .front();
            }
        });
        const xgpu::Profiler::Snapshot delta =
            queue.profiler().delta_since(before);
        acc.launches += static_cast<double>(delta.submissions);
        acc.kernel_ns += delta.total_ns;
        acc.ntt_ns += delta.ntt_ns;
        acc.alu_ops += delta.total_alu_ops;
        for (const auto &[name, e] : queue.profiler().entries()) {
            if (!e.is_ntt) {
                continue;
            }
            const auto it = entries_before.find(name);
            const double alu0 =
                it == entries_before.end() ? 0.0 : it->second.alu_ops;
            const double time0 =
                it == entries_before.end() ? 0.0 : it->second.time_ns;
            acc.ntt_alu_ops += e.alu_ops - alu0;
            acc.ntt_time_ns += e.time_ns - time0;
        }
        acc.allocs += static_cast<double>(queue.cache().stats().requests -
                                         allocs_before);
        acc.gmem_bytes +=
            p.op == serve::Op::MatmulTile
                ? static_cast<double>(kMatmulTiles) * 5.0 * 2.0 *
                      static_cast<double>(level * ctx.n()) * 8.0
                : computed_gmem_bytes(stats, ctx.n(), level);

        ckks::Ciphertext out;
        acc.download_ms += time_ms(
            [&] { out = core::download(gpu, gpu_backend.native(result)); });
        std::vector<uint8_t> encoded;
        acc.encode_ms += time_ms([&] { encoded = wire::serialize(out); });
    }

    // Host backend pass, after the device pass, so no device work runs
    // between host requests (as on the server's host path): run_program
    // over HostBackend on freshly decoded operands, download included.
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const Planned &p = sample[k];
        Replay &acc = k < warmup ? warm : rp;
        if (!admitted[k] || acc.host_execs >= host_exec_limit) {
            continue;
        }
        const serve::Request req = serve::load_request(
            encode_request(p, inputs, env, shape, !shape.functional));
        const std::size_t arity = p.op == serve::Op::MatmulTile
                                      ? serve::op_arity(p.op)
                                      : programs[k].num_inputs;
        std::vector<he::Cipher> ops;
        for (std::size_t i = 0; i < arity; ++i) {
            ops.push_back(host_backend.upload(wire::load_ciphertext(
                shape.functional ? std::span<const uint8_t>(req.inputs[i])
                                 : std::span<const uint8_t>(zero_bytes),
                ctx)));
        }
        ++acc.host_execs;
        acc.host_exec_ms += time_ms([&] {
            he::Cipher r;
            if (p.op == serve::Op::MatmulTile) {
                const he::Cipher product =
                    host_backend.multiply(ops[0], ops[1]);
                r = host_backend.add(product, product);
            } else {
                r = he::run_program(programs[k], host_backend, ops,
                                    keys_of(p))
                        .front();
            }
            (void)host_backend.download(r);
        });
    }
    return rp;
}

/// One functional forward NTT of a size-2 ciphertext at the workload's
/// (N, limbs), median of five, on the given pool.
double ntt_forward_ms(const ckks::CkksContext &ctx, std::size_t level,
                      xgpu::ThreadPool &pool) {
    core::GpuOptions options;
    xgpu::Queue queue(xgpu::device1(),
                      xgpu::ExecConfig{1, xgpu::IsaMode::InlineAsm, true},
                      &pool);
    ntt::NttConfig cfg;
    cfg.variant = options.ntt_variant;
    cfg.slm_block = options.slm_block;
    cfg.wg_size = options.wg_size;
    ntt::GpuNtt ntt(queue, cfg);
    std::vector<uint64_t> data(2 * level * ctx.n());
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = (i * 0x9e3779b97f4a7c15ULL) >> 24;  // < 2^40 < every q
    }
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        ms.push_back(
            time_ms([&] { ntt.forward(data, 2, ctx.tables(level)); }));
    }
    return median(ms);
}

}  // namespace

std::vector<Metric> traced_run(const Options &opts, const Shape &shape,
                               const Inputs &inputs, Env &env,
                               TraceGen &gen, Checker &checker,
                               std::size_t &attempted, std::size_t &failed,
                               std::vector<std::string> &log) {
    const std::size_t min_requests = 4 * shape.cycle;
    auto &recorder = obs::TraceRecorder::instance();
    auto &registry = obs::Registry::global();
    const uint64_t cache_hits0 =
        registry.counter("serve.program_cache_hits").value();
    const uint64_t compiled0 = registry.counter("compile.programs").value();
    const serve::KeyStats keys0 = env.server.stats().keys;
    const double host_sync_ns =
        shape.functional && shape.hint != serve::BackendHint::Host
            ? xgpu::device1().host_sync_overhead_ns
            : 0.0;
    SpanFold fold;
    HostLaneModel host_model(*env.ctx, inputs);
    std::vector<std::size_t> per_shard(env.server.shard_count(), 0);
    std::size_t rejected = 0;
    const CycleHook fold_spans =
        [&](const std::vector<Planned> &planned,
            const std::vector<serve::Response> &responses) {
            // Snapshot first: the model's compiles record spans too.
            const std::vector<obs::SpanRecord> records = recorder.snapshot();
            std::unordered_map<double, double> host_lane_ns;
            if (shape.hint == serve::BackendHint::Host) {
                for (const Planned &p : planned) {
                    host_lane_ns[p.arrival_ns] = host_model.lane_ns(p);
                }
            }
            fold.fold(records, host_sync_ns, host_lane_ns);
            recorder.clear();
            for (const Planned &p : planned) {
                ++per_shard[env.server.shard_of(p.session)];
            }
            for (const serve::Response &r : responses) {
                rejected += r.enqueue_ns <= 0.0 ? 1 : 0;
            }
        };
    // Untraced and traced drains alternate, so drift over the run lands
    // on both sides of the tracing-overhead ratio.
    Window plain;
    Window traced;
    const auto start = Clock::now();
    for (std::size_t cycle = 0;
         ms_between(start, Clock::now()) < opts.seconds * 1e3 ||
         traced.attempted < min_requests;
         ++cycle) {
        plain.append(serve_window(env, gen, inputs, shape, checker, 0.0, 0,
                                  1, cycle == 0 ? opts.plant : ""));
        recorder.enable(std::size_t{1} << 14);
        traced.append(serve_window(env, gen, inputs, shape, checker, 0.0, 0,
                                   1, "", fold_spans));
        recorder.disable();
    }
    attempted += plain.attempted;
    failed += plain.failed;
    attempted += traced.attempted;
    failed += traced.failed;
    const serve::KeyStats keys1 = env.server.stats().keys;
    const double cache_hits = static_cast<double>(
        registry.counter("serve.program_cache_hits").value() - cache_hits0);
    const double compiles = static_cast<double>(
        registry.counter("compile.programs").value() - compiled0);

    // Replay of the traced window's first requests, layer by layer, on a
    // pool of the server's size (the single server's own pool).
    std::unique_ptr<xgpu::ThreadPool> own_pool;
    xgpu::ThreadPool *pool = env.server.pool.get();
    if (pool == nullptr) {
        own_pool = std::make_unique<xgpu::ThreadPool>(kPoolWorkers);
        pool = own_pool.get();
    }
    const std::vector<Planned> sample(
        traced.planned.begin(),
        traced.planned.begin() +
            std::min(shape.replay_warmup + shape.replay_requests,
                     traced.planned.size()));
    const Replay rp =
        replay_layers(shape, inputs, env, sample, *pool, shape.replay_warmup,
                      shape.functional ? sample.size() : 2);
    const double n_rp = static_cast<double>(std::max<std::size_t>(
        rp.requests, 1));
    const double ntt_ms = ntt_forward_ms(*env.ctx, shape.levels, *pool);

    // Client codec costs.
    double encrypt_ms = 0.0;
    double decrypt_ms = 0.0;
    {
        std::unique_ptr<ckks::CkksEncoder> own_encoder;
        std::unique_ptr<ckks::Encryptor> own_encryptor;
        std::unique_ptr<ckks::Decryptor> own_decryptor;
        ckks::CkksEncoder *encoder = env.encoder.get();
        ckks::Encryptor *encryptor = env.encryptor.get();
        ckks::Decryptor *decryptor = env.decryptor.get();
        if (encoder == nullptr) {
            own_encoder = std::make_unique<ckks::CkksEncoder>(*env.ctx);
            own_encryptor = std::make_unique<ckks::Encryptor>(
                *env.ctx, env.keygen->create_public_key(),
                env.keygen->secret_key());
            own_decryptor = std::make_unique<ckks::Decryptor>(
                *env.ctx, env.keygen->secret_key());
            encoder = own_encoder.get();
            encryptor = own_encryptor.get();
            decryptor = own_decryptor.get();
        }
        std::vector<double> enc;
        std::vector<double> dec;
        std::vector<double> values(env.ctx->slots(), 0.25);
        for (int rep = 0; rep < 3; ++rep) {
            obs::Span span("bench.encrypt", obs::Category::Other);
            ckks::Ciphertext ct;
            enc.push_back(time_ms([&] {
                ct = encryptor->encrypt_symmetric(
                    encoder->encode(std::span<const double>(values), kScale));
            }));
            dec.push_back(time_ms(
                [&] { (void)encoder->decode(decryptor->decrypt(ct)); }));
        }
        encrypt_ms = median(enc);
        decrypt_ms = checker.decrypt_ms.empty() ? median(dec)
                                                : median(checker.decrypt_ms);
    }

    // Key re-expansion per miss: the server's own keys.reexpand spans,
    // else a miss forced on a cold KeyManager at the workload's keys.
    double reexpand_ms = 0.0;
    if (fold.host["keys.reexpand"].count > 0) {
        reexpand_ms = fold.host["keys.reexpand"].ms /
                      static_cast<double>(fold.host["keys.reexpand"].count);
    } else {
        serve::KeyManager cold(*env.ctx, 1);
        cold.register_session(1, env.relin[0], env.galois);
        std::vector<double> ms;
        for (int rep = 0; rep < 3; ++rep) {
            ms.push_back(time_ms([&] { (void)cold.acquire(1); }));
        }
        reexpand_ms = median(ms);
    }

    const double n = static_cast<double>(traced.attempted);
    const double wall_plain = plain.server_ms / plain.attempted;
    const double wall_traced = traced.server_ms / n;

    // Wall ledger per request of the traced window: front door, drain
    // (layer by layer on a single server's calling thread; the slowest
    // shard's drain on a sharded one), and the rest as residual.
    std::vector<std::pair<std::string, double>> ledger;
    ledger.emplace_back("submit (front door)",
                        fold.host["bench.submit"].ms / n);
    if (shape.sharded) {
        ledger.emplace_back("serve.drain (slowest shard)",
                            fold.drain_wait_ms / n);
        ledger.emplace_back("stats scrape", fold.host["bench.stats"].ms / n);
    } else {
        ledger.emplace_back("keys.acquire", fold.host["keys.acquire"].ms / n);
        ledger.emplace_back("compile.program",
                            fold.host["compile.program"].ms / n);
        ledger.emplace_back("wire.ct_decode", rp.ct_decode_ms / n_rp);
        if (shape.hint == serve::BackendHint::Host) {
            ledger.emplace_back("ckks.exec", rp.host_exec_ms / n_rp);
        } else {
            ledger.emplace_back("xgpu.upload", rp.upload_ms / n_rp);
            ledger.emplace_back("xgpu.exec", rp.exec_ms / n_rp);
            ledger.emplace_back("xgpu.download", rp.download_ms / n_rp);
        }
        ledger.emplace_back("wire.encode", rp.encode_ms / n_rp);
    }
    double layers_ms = 0.0;
    for (const auto &[name, ms] : ledger) {
        layers_ms += ms;
    }
    const double residual = wall_traced - layers_ms;
    char line[200];
    std::snprintf(line, sizeof line,
                  "wall ledger per request (traced %.4f ms, untraced %.4f ms):",
                  wall_traced, wall_plain);
    log.emplace_back(line);
    for (const auto &[name, ms] : ledger) {
        std::snprintf(line, sizeof line, "  %-28s %9.4f ms", name.c_str(),
                      ms);
        log.emplace_back(line);
    }
    std::snprintf(line, sizeof line, "  %-28s %9.4f ms", "residual",
                  residual);
    log.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "sim reconciliation: %zu of %zu requests off by > 1%% "
                  "(worst %.4f%%, %s)",
                  fold.unreconciled, fold.requests, 100.0 * fold.worst_gap,
                  fold.worst.c_str());
    log.emplace_back(line);
    if (fold.unreconciled > 0) {
        ++failed;
        checker.errors.push_back(
            "sim layers do not sum to serve.request within 1%");
    }

    const double lanes = static_cast<double>(env.server.lane_count());
    const std::size_t max_shard =
        *std::max_element(per_shard.begin(), per_shard.end());
    // Key and compile-cache counters cover both interleaved halves.
    const double both = static_cast<double>(plain.attempted) + n;
    const double key_hits = static_cast<double>(keys1.hits - keys0.hits);
    const double key_misses =
        static_cast<double>(keys1.misses - keys0.misses);
    const auto bytes_in_sum = std::accumulate(
        traced.bytes_in.begin(), traced.bytes_in.end(), std::size_t{0});
    const auto bytes_out_sum = std::accumulate(
        traced.bytes_out.begin(), traced.bytes_out.end(), std::size_t{0});
    const double peak_int64 = xgpu::device1().peak_int64_ops(1);

    return {
        {"wire.request_decode_ms", rp.request_decode_ms / n_rp, "ms"},
        {"wire.ct_decode_ms",
         ratio(rp.ct_decode_ms, static_cast<double>(rp.operands)), "ms"},
        {"wire.encode_ms", rp.encode_ms / n_rp, "ms"},
        {"wire.bytes_in", static_cast<double>(bytes_in_sum) / n, "bytes"},
        {"wire.bytes_out", static_cast<double>(bytes_out_sum) / n, "bytes"},
        {"serve.batch_fill",
         ratio(fold.batch_requests, static_cast<double>(fold.batches)) /
             static_cast<double>(server_config(true).max_batch),
         "ratio"},
        {"serve.queue_wait_sim_ms",
         ratio(fold.queue_wait_ns, static_cast<double>(fold.requests)) * 1e-6,
         "ms"},
        {"serve.lane_busy_frac",
         ratio(fold.lane_busy_ns, lanes * fold.sim_span_ns),
         "ratio"},
        {"serve.residual_wall_ms", residual, "ms"},
        {"serve.shard_imbalance",
         ratio(static_cast<double>(max_shard) *
                   static_cast<double>(per_shard.size()),
               n),
         "ratio"},
        {"serve.drain_wait_wall_ms",
         (shape.sharded ? fold.drain_wait_ms : fold.host["bench.run"].ms) / n,
         "ms"},
        {"serve.rejected_ratio", static_cast<double>(rejected) / n, "ratio"},
        {"keys.hit_ratio",
         key_hits + key_misses > 0.0 ? key_hits / (key_hits + key_misses)
                                     : 1.0,
         "ratio"},
        {"keys.reexpand_ms", reexpand_ms, "ms"},
        {"keys.evictions_per_req",
         static_cast<double>(keys1.evictions - keys0.evictions) / both,
         "count"},
        {"keys.peak_resident_frac",
         ratio(static_cast<double>(keys1.peak_resident_bytes),
               static_cast<double>(keys1.budget_bytes)),
         "ratio"},
        {"he.program_decode_us",
         ratio(rp.program_decode_us, static_cast<double>(rp.programs)), "us"},
        {"he.analyze_us",
         ratio(rp.analyze_us, static_cast<double>(rp.programs)), "us"},
        {"he.compile_us",
         ratio(rp.compile_us, static_cast<double>(rp.programs)), "us"},
        {"he.compile_hit_ratio", ratio(cache_hits, cache_hits + compiles),
         "ratio"},
        {"xgpu.exec_wall_ms", rp.exec_ms / n_rp, "ms"},
        {"xgpu.upload_ms", rp.upload_ms / n_rp, "ms"},
        {"xgpu.download_ms", rp.download_ms / n_rp, "ms"},
        {"xgpu.launches_per_req", rp.launches / n_rp, "count"},
        {"xgpu.kernel_sim_ms", rp.kernel_ns / n_rp * 1e-6, "ms"},
        {"xgpu.alu_ops_per_req", rp.alu_ops / n_rp, "count"},
        {"xgpu.gmem_bytes_per_req", rp.gmem_bytes / n_rp, "bytes_computed"},
        {"xgpu.alloc_requests_per_req", rp.allocs / n_rp, "count"},
        {"ntt.sim_ms", rp.ntt_ns / n_rp * 1e-6, "ms"},
        {"ntt.sim_share", ratio(rp.ntt_ns, rp.kernel_ns), "ratio"},
        {"ntt.roofline_frac",
         ratio(rp.ntt_alu_ops, rp.ntt_time_ns * 1e-9) / peak_int64, "ratio"},
        {"ntt.forward_wall_ms", ntt_ms, "ms"},
        {"ckks.exec_wall_ms",
         ratio(rp.host_exec_ms, static_cast<double>(rp.host_execs)), "ms"},
        {"ckks.client_encrypt_ms", encrypt_ms, "ms"},
        {"ckks.client_decrypt_ms", decrypt_ms, "ms"},
        {"obs.trace_overhead_frac", wall_traced / wall_plain - 1.0, "ratio"},
        {"obs.spans_per_req", static_cast<double>(fold.spans) / n, "count"},
    };
}

}  // namespace perfbench
