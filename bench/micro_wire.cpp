// Wall-clock microbenchmark of the wire layer: the envelope checksum's
// throughput on 64 KiB and 1 MiB buffers, and wire::serialize /
// wire::load_ciphertext of one N = 8192, L = 3 ciphertext (the
// host_serving operand shape), seed-compressed (arg 1) and not (arg 0).
// A load re-checks the checksum, every residue's range and, for a seeded
// ciphertext, re-expands the uniform `a` polynomial from its seed.
#include <benchmark/benchmark.h>

#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "wire/wire.h"

namespace xc = xehe::ckks;
namespace xw = xehe::wire;

namespace {

struct Rig {
    xc::CkksContext context{xc::EncryptionParameters::create(8192, 3)};
    /// [0] unseeded (public-key encryption), [1] seed-compressed.
    xc::Ciphertext ct[2];

    Rig() {
        xc::CkksEncoder encoder(context);
        xc::KeyGenerator keygen(context);
        xc::Encryptor encryptor(context, keygen.create_public_key(),
                                keygen.secret_key());
        const auto plain = encoder.encode(
            std::vector<double>(context.slots(), 0.25),
            static_cast<double>(context.key_modulus()[2].value()));
        ct[0] = encryptor.encrypt(plain);
        ct[1] = encryptor.encrypt_symmetric(plain);
    }

    static const Rig &instance() {
        static const Rig rig;
        return rig;
    }
};

}  // namespace

static void BM_Checksum64(benchmark::State &state) {
    std::vector<uint8_t> buf(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(xw::detail::checksum64(buf));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Checksum64)->Arg(64 << 10)->Arg(1 << 20);

static void BM_SerializeCiphertext(benchmark::State &state) {
    const xc::Ciphertext &ct = Rig::instance().ct[state.range(0)];
    if (ct.a_seeded != (state.range(0) == 1)) {
        state.SkipWithError("unexpected seed flag");
    }
    for (auto _ : state) {
        auto bytes = xw::serialize(ct);
        benchmark::DoNotOptimize(bytes.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(xw::serialized_bytes(ct)));
}
BENCHMARK(BM_SerializeCiphertext)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

static void BM_LoadCiphertext(benchmark::State &state) {
    const Rig &rig = Rig::instance();
    const auto bytes = xw::serialize(rig.ct[state.range(0)]);
    for (auto _ : state) {
        auto ct = xw::load_ciphertext(bytes, rig.context);
        benchmark::DoNotOptimize(ct.data.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_LoadCiphertext)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
