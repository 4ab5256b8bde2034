// Wall-clock microbenchmarks of a tenant key miss: serve::KeyManager::acquire
// re-expanding one N = 32K, L = 8 relinearization keyset (the
// tenant_programs serving shape) from its cold store.  workers:0 expands
// on the process-wide pool, as a standalone server does; workers:2 on a
// private two-worker pool, as a serving shard does.  held:0 drops each
// keyset before the next miss, so the miss refills the evicted keyset's
// buffers in place (the steady state); held:1 keeps it, as an in-flight
// request would, so the miss allocates fresh buffers.  The two held
// figures converging means misses stopped recycling.
// BM_ExpandUniformSeeded times the serial kernel of a miss: one seeded
// key-base polynomial.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "serve/key_manager.h"
#include "util/rng.h"

namespace xc = xehe::ckks;
namespace xs = xehe::serve;
namespace xg = xehe::xgpu;

namespace {

struct Keyset {
    xc::CkksContext context{xc::EncryptionParameters::create(32768, 8)};
    xc::RelinKeys relin;

    Keyset() {
        xc::KeyGenerator keygen(context);
        relin = keygen.create_relin_keys();
    }

    static const Keyset &instance() {
        static const Keyset keyset;
        return keyset;
    }
};

}  // namespace

static void BM_KeyMissRelin32K(benchmark::State &state) {
    const Keyset &k = Keyset::instance();
    const auto workers = static_cast<unsigned>(state.range(0));
    const bool hold = state.range(1) != 0;
    std::unique_ptr<xg::ThreadPool> pool;
    if (workers > 0) {
        pool = std::make_unique<xg::ThreadPool>(workers);
    }
    const xc::GaloisKeys no_galois;
    // Room for one keyset: alternating two sessions misses every time.
    const std::size_t bytes = xs::expanded_key_bytes(k.relin, no_galois);
    xs::KeyManager manager(k.context, bytes, pool.get());
    manager.register_session(0, k.relin, no_galois);
    manager.register_session(1, k.relin, no_galois);
    uint64_t session = 0;
    xs::KeyManager::Acquired held;  // the next miss's victim, when holding
    for (auto _ : state) {
        auto acq = manager.acquire(session);
        benchmark::DoNotOptimize(acq.keys.get());
        if (hold) {
            held = std::move(acq);
        }
        session ^= 1;
    }
    const auto stats = manager.stats();
    if (stats.hits != 0) {
        state.SkipWithError("expected a miss on every acquire");
    }
    state.counters["expanded_mb"] = static_cast<double>(bytes) / (1 << 20);
}
BENCHMARK(BM_KeyMissRelin32K)
    ->ArgNames({"workers", "held"})
    ->ArgsProduct({{0, 2}, {0, 1}})
    ->UseRealTime();

// One N = 32K key-base polynomial (9 limbs) expanded from its seed on the
// calling thread; `per_word` is wall time per output residue (seconds in
// JSON, printed with an SI prefix, e.g. "4.5ns").
static void BM_ExpandUniformSeeded(benchmark::State &state) {
    const std::size_t n = 32768;
    const auto moduli = xc::EncryptionParameters::create(n, 8).coeff_modulus;
    std::vector<uint64_t> out(moduli.size() * n);
    uint64_t seed = 0x5EA1C0DE;
    for (auto _ : state) {
        xehe::util::expand_uniform_seeded(out, moduli, n, seed++);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_word"] = benchmark::Counter(
        static_cast<double>(out.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ExpandUniformSeeded)->UseRealTime();

BENCHMARK_MAIN();
