// Wall-clock microbenchmark of the client codec: encode, symmetric
// (seed-compressed) encryption, decryption and decode of one full-slot
// vector at N = 8192, L = 3 (the host_serving shape) and at the paper's
// N = 32K, L = 8 (args: N, L).  Decode is the inverse NTT, the CRT
// composition and the forward FFT.  Only the public ckks:: API is used, so
// one source times any version of the codec.
#include <benchmark/benchmark.h>

#include <complex>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"

namespace xc = xehe::ckks;

namespace {

struct Rig {
    xc::CkksContext context;
    xc::CkksEncoder encoder{context};
    xc::KeyGenerator keygen{context};
    xc::Encryptor encryptor{context, keygen.create_public_key(),
                            keygen.secret_key()};
    xc::Decryptor decryptor{context, keygen.secret_key()};
    std::vector<std::complex<double>> values;
    xc::Plaintext plain;
    xc::Ciphertext cipher;

    static constexpr double kScale = 1099511627776.0;  // 2^40

    Rig(std::size_t n, std::size_t levels)
        : context(xc::EncryptionParameters::create(n, levels)),
          values(context.slots()) {
        std::mt19937_64 rng(n + levels);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        for (auto &v : values) {
            v = {dist(rng), dist(rng)};
        }
        plain = encoder.encode(std::span<const std::complex<double>>(values),
                               kScale);
        cipher = encryptor.encrypt_symmetric(plain);
    }

    static Rig &instance(const benchmark::State &state) {
        static std::map<std::pair<int64_t, int64_t>, std::unique_ptr<Rig>>
            rigs;
        auto &rig = rigs[{state.range(0), state.range(1)}];
        if (!rig) {
            rig = std::make_unique<Rig>(state.range(0), state.range(1));
        }
        return *rig;
    }
};

void codec_shapes(benchmark::internal::Benchmark *b) {
    b->Args({8192, 3})->Args({32768, 8})->Unit(benchmark::kMillisecond);
}

}  // namespace

static void BM_Encode(benchmark::State &state) {
    Rig &r = Rig::instance(state);
    for (auto _ : state) {
        xc::Plaintext plain = r.encoder.encode(
            std::span<const std::complex<double>>(r.values), Rig::kScale);
        benchmark::DoNotOptimize(plain.data.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Encode)->Apply(codec_shapes);

static void BM_EncryptSymmetric(benchmark::State &state) {
    Rig &r = Rig::instance(state);
    for (auto _ : state) {
        xc::Ciphertext ct = r.encryptor.encrypt_symmetric(r.plain);
        benchmark::DoNotOptimize(ct.data.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_EncryptSymmetric)->Apply(codec_shapes);

static void BM_Decrypt(benchmark::State &state) {
    Rig &r = Rig::instance(state);
    for (auto _ : state) {
        xc::Plaintext plain = r.decryptor.decrypt(r.cipher);
        benchmark::DoNotOptimize(plain.data.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Decrypt)->Apply(codec_shapes);

static void BM_Decode(benchmark::State &state) {
    Rig &r = Rig::instance(state);
    for (auto _ : state) {
        std::vector<std::complex<double>> values = r.encoder.decode(r.plain);
        benchmark::DoNotOptimize(values.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Decode)->Apply(codec_shapes);

BENCHMARK_MAIN();
