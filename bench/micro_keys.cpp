// Wall-clock microbenchmark of a tenant key miss: serve::KeyManager::acquire
// re-expanding one N = 32K, L = 8 relinearization keyset (the
// tenant_programs serving shape) from its cold store.  Arg 0 expands on
// the process-wide pool, as a standalone server does; arg 2 on a private
// two-worker pool, as a serving shard does.
#include <benchmark/benchmark.h>

#include <memory>

#include "serve/key_manager.h"

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
    for (auto _ : state) {
        const auto acq = manager.acquire(session);
        benchmark::DoNotOptimize(acq.keys.get());
        session ^= 1;
    }
    const auto stats = manager.stats();
    if (stats.hits != 0) {
        state.SkipWithError("expected a miss on every acquire");
    }
    state.counters["expanded_mb"] = static_cast<double>(bytes) / (1 << 20);
}
BENCHMARK(BM_KeyMissRelin32K)->Arg(0)->Arg(2)->UseRealTime();

BENCHMARK_MAIN();
