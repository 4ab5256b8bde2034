// perfbench — two-clock serving benchmark of the xehe serving stack.
//
//   perfbench --workload <gpu_serving|host_serving|tenant_programs>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--plant wrong_result|flip_status]
//
// Normally started through run.py, which builds it.  Each workload's
// constants are fixed in shape_for().  Prints one line per metric and,
// last, one JSON object; exits 1 when any outcome check fails.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char *why) {
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::exit(2);
}

Options parse(int argc, char **argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + arg).c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value());
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--small") {
            o.small = true;
        } else if (arg == "--plant") {
            o.plant = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload == "gpu_serving") {
        o.kind = Kind::GpuServing;
    } else if (o.workload == "host_serving") {
        o.kind = Kind::HostServing;
    } else if (o.workload == "tenant_programs") {
        o.kind = Kind::TenantPrograms;
    } else {
        usage("unknown --workload");
    }
    if (!(o.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    if (!o.plant.empty() && o.plant != "wrong_result" &&
        o.plant != "flip_status") {
        usage("--plant takes wrong_result or flip_status");
    }
    return o;
}

/// Sim latencies (ms) of the first `count` executed requests of a window.
std::vector<double> first_sim_ms(const Window &w, std::size_t count) {
    std::vector<double> out;
    for (const double ns : w.sim_ns) {
        if (ns >= 0.0 && out.size() < count) {
            out.push_back(ns * 1e-6);
        }
    }
    return out;
}

/// Wall metrics of a timed window, each computed per drain (every drain
/// carries one op-mix block) and reported for the median drain.  Neighbour
/// load on a shared machine comes in bursts; a burst moves the drains it
/// falls in, not the median drain.
struct WallStats {
    double rps = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

WallStats drain_medians(const Window &w, std::size_t cycle) {
    std::vector<double> rps;
    std::vector<double> p50;
    std::vector<double> p95;
    for (std::size_t d = 0; d < w.drain_ms.size(); ++d) {
        const std::vector<double> lat(w.wall_ms.begin() + d * cycle,
                                      w.wall_ms.begin() + (d + 1) * cycle);
        rps.push_back(static_cast<double>(cycle) / (w.drain_ms[d] * 1e-3));
        p50.push_back(percentile(lat, 0.50));
        p95.push_back(percentile(lat, 0.95));
    }
    return {median(rps), median(p50), median(p95)};
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric> &metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/// Invariants over the server's whole life: every request counted once
/// by LatencyStats, and resident keys within every shard's budget.
std::size_t check_invariants(const Server &server, std::size_t attempted,
                             std::vector<std::string> &errors) {
    std::size_t violations = 0;
    const serve::LatencyStats stats = server.stats();
    if (stats.requests + stats.failed != attempted) {
        ++violations;
        errors.push_back("LatencyStats requests + failed = " +
                         std::to_string(stats.requests + stats.failed) +
                         ", attempted " + std::to_string(attempted));
    }
    for (std::size_t s = 0; s < server.shard_count(); ++s) {
        const serve::KeyStats keys =
            server.sharded ? server.sharded->key_manager(s).stats()
                           : server.single->key_manager().stats();
        if (keys.peak_resident_bytes > keys.budget_bytes) {
            ++violations;
            errors.push_back("shard " + std::to_string(s) +
                             " resident keys exceed the budget");
        }
    }
    return violations;
}

}  // namespace

int main(int argc, char **argv) {
    const Options opts = parse(argc, argv);
    const Shape shape = shape_for(opts);
    const Inputs inputs = make_inputs(opts, shape);
    std::printf("workload %s  seed %llu  N=%zu L=%zu  %s  %s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), shape.n,
                shape.levels, shape.functional ? "functional" : "cost-only",
                opts.trace ? "traced" : "untraced");

    // Set-up is measured several times; the median is reported, so work
    // moved into set-up shows without one slow repetition deciding it.
    std::vector<double> setup_s;
    std::unique_ptr<Env> env;
    for (std::size_t r = 0; r < shape.setup_repeats; ++r) {
        env.reset();
        const auto t0 = Clock::now();
        env = setup(shape, inputs, opts.seed);
        setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    }
    const std::size_t busy_threads =
        shape.sharded ? env->server.shard_count() * (kPoolWorkers + 1)
                      : kPoolWorkers + 1;
    std::printf("threads: %d live, at most %zu busy (%zu pool(s) of %u "
                "worker(s) + caller)\n",
                thread_count(), busy_threads, env->server.shard_count(),
                kPoolWorkers);
    if (shape.sharded) {
        std::size_t per_shard[2] = {0, 0};
        for (const uint64_t id : inputs.session_ids) {
            ++per_shard[env->server.shard_of(id) % 2];
        }
        std::printf("sessions per shard: %zu / %zu, keyset %zu bytes, "
                    "budget %zu keysets per shard\n",
                    per_shard[0], per_shard[1], env->keyset_bytes,
                    shape.budget_keysets);
    }

    Checker checker(inputs, *env, shape.functional);
    TraceGen gen(opts, shape, inputs, shape.sim_rate_rps);
    std::size_t attempted = 0;
    std::size_t failed = 0;

    // Warm-up: fills the compile, key and device-memory caches and lets
    // lazy set-up finish; excluded from every timed window.  A fixed
    // request count keeps the simulated clock deterministic per seed.
    const Window warm = serve_window(*env, gen, inputs, shape, checker, 0.0,
                                     0, shape.warmup_cycles, "");
    attempted += warm.attempted;
    failed += warm.failed;

    std::vector<Metric> metrics;
    std::vector<std::string> log;
    if (!opts.trace) {
        const Window w = serve_window(*env, gen, inputs, shape, checker,
                                      opts.seconds, shape.sim_requests, 0,
                                      opts.plant);
        attempted += w.attempted;
        failed += w.failed;
        const std::vector<double> sim_ms =
            first_sim_ms(w, shape.sim_requests);
        // The measured server's caches are released before the capacity
        // replay builds its own servers, so peak memory stays one server.
        failed += check_invariants(env->server, attempted, checker.errors);
        env->server.sharded.reset();
        env->server.single.reset();
        env->server.pool.reset();
        const double capacity =
            sim_capacity(opts, shape, inputs, *env, log, failed);
        if (!(capacity > 0.0)) {
            ++failed;
            checker.errors.emplace_back("sim capacity below the ladder");
        }
        const WallStats wall = drain_medians(w, shape.cycle);
        metrics = {
            {"wall_rps", wall.rps, "req/s"},
            {"wall_p50_ms", wall.p50_ms, "ms"},
            {"wall_p95_ms", wall.p95_ms, "ms"},
            {"sim_p50_ms", sim_p50(sim_ms), "ms"},
            {"sim_p99_ms", sim_p99(sim_ms), "ms"},
            {"sim_capacity_rps", capacity, "req/s"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
        };
        std::printf("timed window: %zu requests in %.3f s of server time, "
                    "%zu sim samples\n",
                    w.attempted, w.server_ms * 1e-3, sim_ms.size());
        std::printf("capacity ladder (sim p99 limit %.3f ms):\n",
                    shape.sim_limit_ms);
    } else {
        metrics = traced_run(opts, shape, inputs, *env, gen, checker,
                             attempted, failed, log);
        failed += check_invariants(env->server, attempted, checker.errors);
    }
    for (const std::string &line : log) {
        std::printf("%s\n", line.c_str());
    }

    for (const std::string &e : checker.errors) {
        std::printf("error: %s\n", e.c_str());
    }
    const double fail_ratio =
        static_cast<double>(failed) / static_cast<double>(attempted);
    for (const Metric &m : metrics) {
        std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("%-28s %16.6f %s\n", "fail_ratio", fail_ratio, "ratio");
    std::fflush(stdout);
    const bool correct = failed == 0;
    print_json(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
