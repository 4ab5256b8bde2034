// Wall-clock microbenchmarks (google-benchmark) of the reference host NTT
// — the HEXL-equivalent CPU path used as the correctness oracle — and of
// the host evaluator's multiply and key-switching routines at the serving
// size.  The transform benches take the prime width `bits`: 50 (the data
// primes; the AVX-512 IFMA52 path on a CPU that has it) or 60 (the
// special prime; the 64-bit AVX-512F/DQ path on a CPU that has it).  The
// evaluator benches take `workers`: 0 runs the serial evaluator (no pool),
// 1 splits its limb loops over a one-worker pool plus the caller, as a
// host_serving lane does.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ntt/ntt_ref.h"
#include "xgpu/threadpool.h"

namespace xc = xehe::ckks;
namespace xn = xehe::ntt;
namespace xu = xehe::util;

namespace {

struct Fixture {
    xn::NttTables tables;
    std::vector<uint64_t> data;

    Fixture(std::size_t n, int bits)
        : tables(n, xu::generate_ntt_primes(bits, n, 1)[0]), data(n) {
        std::mt19937_64 rng(n);
        for (auto &x : data) {
            x = rng() % tables.modulus().value();
        }
    }
};

/// A fresh size-2 ciphertext at N = 8192, L = 3 (the serving shape) with
/// the relinearization and rotate-by-1 keys, evaluated serially
/// (`workers` 0) or on a pool of `workers` threads plus the caller.
struct HostEval {
    static constexpr int kStep = 1;
    std::unique_ptr<xehe::xgpu::ThreadPool> pool;
    xc::CkksContext context{xc::EncryptionParameters::create(8192, 3)};
    xc::CkksEncoder encoder{context};
    xc::KeyGenerator keygen{context};
    xc::Evaluator evaluator;
    xc::RelinKeys relin = keygen.create_relin_keys();
    xc::GaloisKeys galois =
        keygen.create_galois_keys(std::span<const int>(&kStep, 1));
    xc::Ciphertext ct;

    explicit HostEval(unsigned workers)
        : pool(workers == 0
                   ? nullptr
                   : std::make_unique<xehe::xgpu::ThreadPool>(workers)),
          evaluator(context, pool.get()) {
        std::vector<double> values(context.slots());
        std::mt19937_64 rng(8192);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        for (auto &v : values) {
            v = dist(rng);
        }
        xc::Encryptor encryptor(context, keygen.create_public_key());
        ct = encryptor.encrypt(encoder.encode(
            std::span<const double>(values), static_cast<double>(1ull << 40)));
    }
};

}  // namespace

static void BM_NttForward(benchmark::State &state) {
    Fixture f(static_cast<std::size_t>(state.range(0)),
              static_cast<int>(state.range(1)));
    for (auto _ : state) {
        xn::ntt_forward(f.data, f.tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NttForward)
    ->ArgNames({"n", "bits"})
    ->ArgsProduct({{1024, 4096, 8192, 16384, 32768}, {50, 60}});

static void BM_NttInverse(benchmark::State &state) {
    Fixture f(static_cast<std::size_t>(state.range(0)),
              static_cast<int>(state.range(1)));
    for (auto _ : state) {
        xn::ntt_inverse(f.data, f.tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NttInverse)
    ->ArgNames({"n", "bits"})
    ->ArgsProduct({{1024, 4096, 8192, 16384, 32768}, {50, 60}});

static void BM_NttRoundtrip(benchmark::State &state) {
    Fixture f(static_cast<std::size_t>(state.range(0)), 50);
    for (auto _ : state) {
        xn::ntt_forward(f.data, f.tables);
        xn::ntt_inverse(f.data, f.tables);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_NttRoundtrip)->Arg(4096)->Arg(8192)->Arg(32768);

static void BM_HostRelinearize(benchmark::State &state) {
    HostEval f(static_cast<unsigned>(state.range(0)));
    const auto product = f.evaluator.multiply(f.ct, f.ct);
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.evaluator.relinearize(product, f.relin));
    }
}
BENCHMARK(BM_HostRelinearize)
    ->ArgName("workers")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

static void BM_HostRescale(benchmark::State &state) {
    HostEval f(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.evaluator.rescale(f.ct));
    }
}
BENCHMARK(BM_HostRescale)
    ->ArgName("workers")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

static void BM_HostMultiply(benchmark::State &state) {
    HostEval f(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.evaluator.multiply(f.ct, f.ct));
    }
}
BENCHMARK(BM_HostMultiply)
    ->ArgName("workers")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

static void BM_HostRotate(benchmark::State &state) {
    HostEval f(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f.evaluator.rotate(f.ct, HostEval::kStep, f.galois));
    }
}
BENCHMARK(BM_HostRotate)
    ->ArgName("workers")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
