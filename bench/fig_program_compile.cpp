// Program-compiler ablation: raw node-by-node interpretation vs
// he::ProgramCompiler output on Device1, cost-only at the paper's
// N = 32K / L = 8 operating point.  Three suites:
//
//  - redundant: a circuit that over-mod-switches both add operands,
//    duplicates subexpressions and carries dead nodes — the planner must
//    strip the over-switching (strictly fewer levels consumed) while CSE
//    and DCE erase the redundant work.
//  - deep: duplicated square -> relinearize -> rescale towers — CSE
//    collapses the clone, so compiled interpretation must be >= 1.1x
//    faster end-to-end on the simulated timeline.
//  - routines: the five Section IV-C canonical programs, already in
//    compiled normal form — the compile step must not regress them.
//
// `--json <path>` writes the deterministic simulated metrics; CI's
// bench-smoke job merges them into the baseline gate.  Exits non-zero if
// any suite misses its gate.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "bench_common.h"
#include "he/analyze.h"
#include "he/compiler.h"
#include "wire/wire.h"

namespace {

using xehe::he::Program;
using xehe::he::ProgramBuilder;

/// Over-switched adds + duplicate subexpressions + a dead tower.
Program redundant_program() {
    ProgramBuilder b(2);
    const auto a0 = b.input(0);
    const auto a1 = b.input(1);
    // Dead tower: DCE must drop all three nodes.
    b.rescale(b.relinearize(b.square(a1)));
    // Duplicate subexpression: CSE merges the negates.
    const auto x = b.mod_switch(b.mod_switch(b.negate(a0)));
    const auto y = b.mod_switch(b.mod_switch(a1));
    const auto s = b.add(x, y);
    b.output(b.add(s, b.mod_switch(b.mod_switch(b.negate(a0)))));
    return b.build();
}

/// Two identical square/relin/rescale towers, three products deep.
Program deep_program() {
    ProgramBuilder b(1);
    auto t1 = b.input(0);
    auto t2 = b.input(0);
    for (int stage = 0; stage < 3; ++stage) {
        t1 = b.rescale(b.relinearize(b.square(t1)));
        t2 = b.rescale(b.relinearize(b.square(t2)));
    }
    b.output(b.add(t1, t2));
    return b.build();
}

/// Deterministic deep pseudo-random circuit, the shape of the test
/// suite's fuzz DAGs sized up: parallel square/relinearize/rescale
/// towers with rotates and cross-tower adds mixed in (~150-200 nodes).
/// Aligned (`misalign = false`): every tower sees the same scale
/// evolution, so adds at equal stage counts are exactly legal and the
/// planner only has CSE/DCE-shaped work.  Misaligned: towers randomly
/// take extra mod-switches, so cross-tower adds sit at unequal levels
/// and the planner must run real repair episodes — the shape of
/// client-built circuits that compile-on-admit actually sees.
Program deep_fuzz_program(uint64_t seed, bool misalign) {
    std::mt19937_64 rng(seed);
    constexpr std::size_t kTowers = 8;
    const int stages = misalign ? 5 : 6;
    ProgramBuilder b(2);
    std::vector<ProgramBuilder::Value> towers;
    for (std::size_t t = 0; t < kTowers; ++t) {
        towers.push_back(b.input(t % 2));
    }
    for (int stage = 0; stage < stages; ++stage) {
        for (auto &t : towers) {
            t = b.rescale(b.relinearize(b.square(t)));
            if (rng() % 3 == 0) {
                t = b.rotate(t, 1);
            }
            if (misalign && rng() % 4 == 0) {
                t = b.mod_switch(t);
            }
        }
        if (rng() % 2 == 0) {
            const std::size_t i = rng() % kTowers;
            const std::size_t j = rng() % kTowers;
            towers[i] = b.add(towers[i], towers[j]);
        }
    }
    auto acc = towers[0];
    for (std::size_t t = 1; t < kTowers; ++t) {
        acc = b.add(acc, towers[t]);
    }
    b.output(acc);
    return b.build();
}

}  // namespace

int main(int argc, char **argv) {
    using namespace bench;
    namespace he = xehe::he;
    namespace core = xehe::core;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }

    const xehe::ckks::CkksContext host(
        xehe::ckks::EncryptionParameters::create(32768, 8));
    const auto spec = xehe::xgpu::device1();
    core::GpuOptions opts;
    opts.isa = IsaMode::InlineAsm;
    core::GpuContext gpu(host, spec, opts);
    gpu.set_functional(false);
    const core::GpuEvaluator evaluator(gpu);
    he::GpuBackend backend(gpu, evaluator);

    xehe::ckks::KeyGenerator keygen(host, 99);
    const auto relin = keygen.create_relin_keys();
    const int steps[] = {1};
    const auto galois = keygen.create_galois_keys(steps);
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;

    // Cost-only inputs at the planner's default operating point: the
    // session scale (last data prime), context max level.
    const double scale = static_cast<double>(
        host.key_modulus()[host.max_level() - 1].value());
    std::vector<core::GpuCiphertext> slots;
    slots.reserve(3);
    std::vector<he::Cipher> inputs;
    for (int i = 0; i < 3; ++i) {
        slots.push_back(core::allocate_ciphertext(gpu, 2, host.max_level(),
                                                  scale));
        inputs.push_back(backend.wrap(slots.back()));
    }

    const auto run_ms = [&](const Program &program,
                            std::size_t num_inputs) {
        auto &profiler = gpu.queue().profiler();
        const double t0 = profiler.total_ns();
        he::run_program(program, backend,
                        std::span<const he::Cipher>(inputs).first(num_inputs),
                        keys);
        return (profiler.total_ns() - t0) * 1e-6;
    };

    he::CompilerOptions copts;
    copts.input_scale = scale;
    const he::ProgramCompiler compiler(host, copts);

    print_header("Program compiler: optimized vs raw interpretation",
                 "the he::ProgramCompiler pipeline on synthetic circuits "
                 "and the Section IV-C routines");
    std::printf("%-18s%8s%8s%10s%10s%10s%10s%10s\n", "suite", "nodes",
                "nodes'", "levels", "levels'", "raw(ms)", "opt(ms)",
                "speedup");

    std::vector<JsonMetric> metrics;
    bool ok = true;

    // --- redundancy suite: the levels gate -----------------------------
    {
        const Program raw = redundant_program();
        const auto compiled = compiler.compile(raw);
        const auto before = raw.stats();
        const auto after = compiled.program.stats();
        const double raw_ms = run_ms(raw, raw.num_inputs);
        const double opt_ms =
            run_ms(compiled.program, compiled.program.num_inputs);
        const double speedup = raw_ms / opt_ms;
        std::printf("%-18s%8zu%8zu%10zu%10zu%10.3f%10.3f%9.2fx\n",
                    "redundant", before.nodes, after.nodes,
                    before.levels_consumed, after.levels_consumed, raw_ms,
                    opt_ms, speedup);
        metrics.push_back({"program_compile/redundant/raw_ms", raw_ms, "ms"});
        metrics.push_back({"program_compile/redundant/opt_ms", opt_ms, "ms"});
        metrics.push_back({"program_compile/redundant/time_speedup", speedup,
                           "x"});
        metrics.push_back(
            {"program_compile/redundant/levels_consumed",
             static_cast<double>(after.levels_consumed), "levels"});
        if (after.levels_consumed >= before.levels_consumed) {
            std::fprintf(stderr,
                         "gate: redundancy suite must consume strictly "
                         "fewer levels (%zu -> %zu)\n",
                         before.levels_consumed, after.levels_consumed);
            ok = false;
        }
    }

    // --- deep suite: the end-to-end time gate --------------------------
    {
        const Program raw = deep_program();
        const auto compiled = compiler.compile(raw);
        const auto before = raw.stats();
        const auto after = compiled.program.stats();
        const double raw_ms = run_ms(raw, raw.num_inputs);
        const double opt_ms =
            run_ms(compiled.program, compiled.program.num_inputs);
        const double speedup = raw_ms / opt_ms;
        std::printf("%-18s%8zu%8zu%10zu%10zu%10.3f%10.3f%9.2fx\n", "deep",
                    before.nodes, after.nodes, before.levels_consumed,
                    after.levels_consumed, raw_ms, opt_ms, speedup);
        metrics.push_back({"program_compile/deep/raw_ms", raw_ms, "ms"});
        metrics.push_back({"program_compile/deep/opt_ms", opt_ms, "ms"});
        metrics.push_back({"program_compile/deep/time_speedup", speedup,
                           "x"});
        if (speedup < 1.1) {
            std::fprintf(stderr,
                         "gate: deep suite speedup %.3fx below 1.1x\n",
                         speedup);
            ok = false;
        }
    }

    // --- routine suite: the no-regression gate -------------------------
    for (const core::Routine r : core::kAllRoutines) {
        const Program &raw = core::routine_program(r);
        const Program &opt = core::routine_program_compiled(r);
        const auto before = raw.stats();
        const auto after = opt.stats();
        const double raw_ms = run_ms(raw, raw.num_inputs);
        const double opt_ms = run_ms(opt, opt.num_inputs);
        const double ratio = raw_ms / opt_ms;
        std::printf("%-18s%8zu%8zu%10zu%10zu%10.3f%10.3f%9.2fx\n",
                    core::routine_name(r), before.nodes, after.nodes,
                    before.levels_consumed, after.levels_consumed, raw_ms,
                    opt_ms, ratio);
        metrics.push_back({std::string("program_compile/routine/") +
                               core::routine_name(r) + "_speedup",
                           ratio, "x"});
        if (ratio < 0.995) {
            std::fprintf(stderr,
                         "gate: routine %s regressed to %.3fx under "
                         "compilation\n",
                         core::routine_name(r), ratio);
            ok = false;
        }
    }

    // --- analysis-cost suite: the admission-gate overhead --------------
    // The static verifier runs on every served program before the
    // compile-on-admit step, so its budget is relative to what a cache
    // miss already pays: wire decode (he::load_program) plus the
    // ProgramCompiler pipeline.  Both sides are host work (unlike the
    // simulated interpretation timings above), measured in wall-clock
    // over the five routines plus the deep synthetic circuits — aligned
    // and planner-repair-needing fuzz shapes — with the exact admission
    // analyzer configuration (alignment assumed, structural validation
    // already paid by the decode, no key facts: keys are per-session
    // state the front door does not hold).  Each side runs in its own
    // hot loop, timed as a whole, and the gate takes each side's minimum
    // over the rounds: host contention only ever adds time, so the
    // minima are each side's cost on a quiet host and the ratio decides
    // on the code, not on neighbour load.
    {
        std::vector<Program> circuits;
        for (const core::Routine r : core::kAllRoutines) {
            circuits.push_back(core::routine_program(r));
        }
        circuits.push_back(redundant_program());
        circuits.push_back(deep_program());
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            circuits.push_back(deep_fuzz_program(seed, false));
        }
        for (uint64_t seed = 1; seed <= 2; ++seed) {
            circuits.push_back(deep_fuzz_program(seed, true));
        }
        std::vector<std::vector<uint8_t>> encoded;
        encoded.reserve(circuits.size());
        for (const Program &p : circuits) {
            encoded.push_back(xehe::wire::serialize(p));
        }

        he::AnalyzerOptions aopts;
        aopts.assume_alignment = true;
        aopts.assume_validated = true;  // the decode validates
        aopts.errors_only = true;       // the front door discards warnings
        const he::ProgramAnalyzer analyzer(host, aopts);
        // Admission facts, as InferenceServer::admit builds them: the
        // exact size, level and scale of every operand (here the
        // cost-only inputs above), which the compiler plans for too; no
        // session keys are in scope.
        std::vector<std::vector<he::InputFacts>> facts;
        for (const Program &p : circuits) {
            facts.emplace_back(p.num_inputs,
                               he::InputFacts{2, host.max_level(), scale});
        }
        // Every suite circuit must pass the front door, or the analyze
        // timings below measure the cost of rejecting, not admitting.
        for (std::size_t c = 0; c < circuits.size(); ++c) {
            const auto report = analyzer.analyze(circuits[c], facts[c]);
            if (!report.ok()) {
                std::fprintf(stderr,
                             "gate: analysis suite circuit %zu rejected: "
                             "%s\n",
                             c, report.summary().c_str());
                ok = false;
            }
        }

        using clock = std::chrono::steady_clock;
        constexpr int kRounds = 15;
        constexpr int kIters = 40;
        double analyze_ms = std::numeric_limits<double>::infinity();
        double compile_ms = std::numeric_limits<double>::infinity();
        std::size_t sink = 0;
        const auto ms_since = [](clock::time_point t0) {
            return std::chrono::duration<double, std::milli>(clock::now() -
                                                             t0)
                .count();
        };
        for (int round = 0; round < kRounds; ++round) {
            // Each side in its own hot loop over the whole circuit mix:
            // the admission analyze of a decoded program, then what a
            // serving cache miss pays, decode plus compile.
            auto t0 = clock::now();
            for (int i = 0; i < kIters; ++i) {
                for (std::size_t c = 0; c < circuits.size(); ++c) {
                    sink += analyzer.analyze(circuits[c], facts[c])
                                .diagnostics.size();
                }
            }
            analyze_ms = std::min(analyze_ms, ms_since(t0));
            t0 = clock::now();
            for (int i = 0; i < kIters; ++i) {
                for (std::size_t c = 0; c < encoded.size(); ++c) {
                    const Program p = he::load_program(encoded[c], host);
                    sink += compiler.compile(p, facts[c]).program.nodes.size();
                }
            }
            compile_ms = std::min(compile_ms, ms_since(t0));
        }
        const double pct = 100.0 * analyze_ms / compile_ms;
        std::printf("\nanalysis cost: %.3f ms analyze vs %.3f ms "
                    "decode+compile over %zu circuits x %d iters, fastest "
                    "of %d rounds each (%.2f%%, sink %zu)\n",
                    analyze_ms, compile_ms, circuits.size(), kIters,
                    kRounds, pct, sink);
        metrics.push_back(
            {"program_compile/analysis/analyze_ms", analyze_ms, "ms"});
        metrics.push_back(
            {"program_compile/analysis/compile_ms", compile_ms, "ms"});
        metrics.push_back(
            {"program_compile/analysis/overhead_pct", pct, "%"});
        if (pct >= 5.0) {
            std::fprintf(stderr,
                         "gate: analysis overhead %.2f%% of the "
                         "compile-on-admit step (must stay < 5%%)\n",
                         pct);
            ok = false;
        }
    }

    std::printf("\ngates: redundant levels strictly fewer; deep >= 1.1x; "
                "routines >= 0.995x; analysis < 5%% of compile-on-admit "
                "— %s\n",
                ok ? "all hold" : "FAILED");

    if (!json_path.empty()) {
        if (!write_json(json_path, metrics, "fig_program_compile",
                        spec.name.c_str())) {
            return 2;
        }
        std::printf("wrote %zu metrics to %s\n", metrics.size(),
                    json_path.c_str());
    }
    return ok ? 0 : 1;
}
