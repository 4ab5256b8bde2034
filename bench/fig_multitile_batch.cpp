// Multi-tile batched serving: many concurrent sessions, each sending the
// Section IV-C routine mix plus a matmul-tile job, served by
// serve::InferenceServer through the event-based multi-queue scheduler on
// the dual-tile Device1.  Compares a one-lane server against one lane per
// tile and reports the simulated serving throughput and speedup; also runs
// the encrypted matmul with round-robined output tiles (Section IV-E on
// two tiles).
//
// `--json <path>` writes the deterministic simulated metrics in a
// google-benchmark-compatible layout; CI's bench-smoke job diffs that
// file against bench/baseline.json to catch cost-model regressions.
// Exits non-zero unless the serving speedup reaches >= 1.5x.
// N = 32K, L = 8, cost-only (the paper's operating point).
#include <cstring>

#include "bench_common.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "xehe/matmul.h"

int main(int argc, char **argv) {
    using namespace bench;
    using xehe::core::GpuOptions;
    using xehe::core::MatmulConfig;
    using xehe::core::run_encrypted_matmul;
    using xehe::serve::InferenceServer;
    using xehe::serve::Op;
    using xehe::serve::Request;
    using xehe::serve::ServerConfig;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(32768, 8));
    const auto spec = xehe::xgpu::device1();

    GpuOptions opts;
    opts.isa = IsaMode::InlineAsm;

    // Shared tenant keys: every session evaluates under one keyset.
    xehe::ckks::KeyGenerator keygen(host, 99);
    const auto relin = keygen.create_relin_keys();
    const int steps[] = {1};
    const auto galois = keygen.create_galois_keys(steps);

    // The batch: every session sends the five routines and one two-tile
    // matmul job, all arriving at t = 0.
    constexpr std::size_t kSessions = 8;
    std::vector<Request> trace;
    for (uint64_t s = 0; s < kSessions; ++s) {
        for (const Op op : {Op::MulLin, Op::MulLinRS, Op::SqrLinRS,
                            Op::MulLinRSModSwAdd, Op::Rotate,
                            Op::MatmulTile}) {
            Request req;
            req.session_id = s;
            req.op = op;
            req.matmul_tiles = op == Op::MatmulTile ? 2 : 1;
            req.cost_only = true;
            trace.push_back(std::move(req));
        }
    }

    std::vector<bench::JsonMetric> metrics;

    // --- batched serving: 1 lane vs one lane per tile ------------------
    print_header("Batched multi-tile serving on Device1",
                 "Figs. 2 and 16-18, Section III-D");
    std::printf("%8s%10s%14s%12s%14s%12s\n", "queues", "requests",
                "makespan", "busy", "throughput", "efficiency");
    std::printf("%8s%10s%14s%12s%14s%12s\n", "", "", "(ms)", "(ms)",
                "(req/s)", "");
    double makespan_ms[2] = {0.0, 0.0};
    double kernel_ms[2] = {0.0, 0.0};
    const int queue_counts[2] = {1, 0};  // 0 = one queue per tile
    auto &reg = xehe::obs::Registry::global();
    for (int i = 0; i < 2; ++i) {
        ServerConfig cfg;
        cfg.max_batch = trace.size();
        cfg.queue_count = queue_counts[i];
        cfg.functional = false;
        InferenceServer server(host, spec, opts, cfg);
        server.set_keys(relin, galois);
        for (const Request &req : trace) {
            server.submit(req);
        }
        server.run();
        const auto stats = server.stats();
        if (stats.requests != trace.size()) {
            std::fprintf(stderr, "error: %zu of %zu requests served\n",
                         stats.requests, trace.size());
            return 2;
        }
        const std::size_t lanes = server.lane_count();
        const double busy_ms = reg.gauge("xgpu.busy_ns").value() * 1e-6;
        makespan_ms[i] = stats.makespan_ms;
        kernel_ms[i] = reg.gauge("xgpu.kernel_ns").value() * 1e-6;
        std::printf("%8zu%10zu%14.3f%12.3f%14.0f%11.0f%%\n", lanes,
                    stats.requests, stats.makespan_ms, busy_ms,
                    stats.throughput_rps,
                    100.0 * busy_ms /
                        (stats.makespan_ms * static_cast<double>(lanes)));
        const std::string prefix = "batch_serving/q" + std::to_string(lanes);
        metrics.push_back({prefix + "/makespan_ms", makespan_ms[i], "ms"});
        metrics.push_back({prefix + "/kernel_ms", kernel_ms[i], "ms"});
    }
    const double serving_speedup = makespan_ms[0] / makespan_ms[1];
    std::printf("\nmulti-tile serving speedup: %.2fx "
                "(aggregate kernel time invariant: %.3f vs %.3f ms)\n",
                serving_speedup, kernel_ms[0], kernel_ms[1]);
    metrics.push_back(
        {"batch_serving/multitile_speedup", serving_speedup, "x"});

    // --- per-routine single-session profile (regression anchors) --------
    {
        xehe::core::RoutineBench single(host, spec, opts, /*functional=*/false);
        for (const auto routine : xehe::core::kAllRoutines) {
            const auto p = single.run(routine);
            metrics.push_back({std::string("routine/") +
                                   xehe::core::routine_name(routine) +
                                   "/total_ms",
                               p.total_ms(), "ms"});
        }
    }

    // --- encrypted matmul with round-robined output tiles ---------------
    print_header("Encrypted matmul, output tiles across queues",
                 "Fig. 19 on two tiles");
    std::printf("%8s%14s%12s\n", "queues", "makespan(ms)", "busy(ms)");
    MatmulConfig mm;
    mm.device = spec;
    mm.gpu = opts;
    mm.functional = false;
    double matmul_ms[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
        mm.queues = queue_counts[i];
        const auto report = run_encrypted_matmul(mm);
        matmul_ms[i] = report.sim_total_ms;
        std::printf("%8zu%14.3f%12.3f\n", report.queues, report.sim_total_ms,
                    report.sim_busy_ms);
        metrics.push_back({"matmul/q" + std::to_string(report.queues) +
                               "/total_ms",
                           report.sim_total_ms, "ms"});
    }
    const double matmul_speedup = matmul_ms[0] / matmul_ms[1];
    std::printf("\nmulti-tile matmul speedup: %.2fx\n", matmul_speedup);
    metrics.push_back({"matmul/multitile_speedup", matmul_speedup, "x"});

    if (!json_path.empty()) {
        if (!bench::write_json(json_path, metrics, "fig_multitile_batch",
                               spec.name.c_str())) {
            return 2;
        }
        std::printf("\nwrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return serving_speedup >= 1.5 ? 0 : 1;
}
