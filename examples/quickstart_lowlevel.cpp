// Low-level quickstart: the full XeHE pipeline end to end, against the
// raw layer-by-layer API (encoder / encryptor / wire / GpuEvaluator) —
// kept as the reference for what he::Session (examples/quickstart.cpp)
// automates.  Encodes two real vectors, encrypts on the host, uploads to
// the simulated Intel GPU, computes (a * b) with relinearization and
// rescaling on the GPU evaluator, downloads, decrypts, and prints a few
// slots next to the expected plaintext results.
#include <cstdio>
#include <vector>

#include "ckks/encoder.h"
#include "wire/wire.h"
#include "xehe/gpu_evaluator.h"

int main() {
    using namespace xehe;

    // 1. Parameters: N = 8192 with 3 data primes (+1 special prime).
    const ckks::CkksContext context(
        ckks::EncryptionParameters::create(8192, 3));
    const double scale = std::ldexp(1.0, 40);

    // 2. Host-side scheme objects (key generation stays on the CPU).
    ckks::CkksEncoder encoder(context);
    ckks::KeyGenerator keygen(context);
    ckks::Encryptor encryptor(context, keygen.create_public_key(),
                              keygen.secret_key());
    ckks::Decryptor decryptor(context, keygen.secret_key());
    const auto relin_keys = keygen.create_relin_keys();

    // 3. Encode + encrypt two vectors.  Symmetric encryption records the
    //    PRNG seed of its uniform component, so the wire format ships the
    //    seed instead of half the ciphertext (seed compression).
    std::vector<double> a(encoder.slots()), b(encoder.slots());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = 0.001 * static_cast<double>(i % 1000);
        b[i] = 1.5 - 0.0005 * static_cast<double>(i % 2000);
    }
    const auto fresh_a = encryptor.encrypt_symmetric(
        encoder.encode(std::span<const double>(a), scale));
    const auto fresh_b = encryptor.encrypt_symmetric(
        encoder.encode(std::span<const double>(b), scale));

    // 3b. Save -> load round trip through the versioned wire format, the
    //     client -> server hop of the serving pipeline.  Everything past
    //     this line works on the reloaded ciphertexts.
    ckks::Ciphertext expanded_a = fresh_a;
    expanded_a.a_seeded = false;  // size of the same ciphertext, unseeded
    std::printf("wire: ciphertext %zu bytes seeded, %zu expanded (%.2fx); "
                "relin keys %zu bytes\n",
                wire::serialized_bytes(fresh_a),
                wire::serialized_bytes(expanded_a),
                static_cast<double>(wire::serialized_bytes(expanded_a)) /
                    static_cast<double>(wire::serialized_bytes(fresh_a)),
                wire::serialized_bytes(relin_keys));
    const auto ct_a =
        wire::load_ciphertext(wire::serialize(fresh_a), context);
    const auto ct_b =
        wire::load_ciphertext(wire::serialize(fresh_b), context);

    // 4. GPU context: radix-8 SLM NTT, inline assembly, memory cache,
    //    asynchronous pipeline — the paper's full optimization stack.
    core::GpuOptions options;
    options.isa = xgpu::IsaMode::InlineAsm;
    core::GpuContext gpu(context, xgpu::device1(), options);
    core::GpuEvaluator evaluator(gpu);

    // 5. Upload, evaluate MulLinRS on the GPU, download (the only blocking
    //    synchronization point).
    auto gpu_a = core::upload(gpu, ct_a);
    auto gpu_b = core::upload(gpu, ct_b);
    auto gpu_prod = evaluator.rescale(
        evaluator.relinearize(evaluator.multiply(gpu_a, gpu_b), relin_keys));
    const auto ct_prod = core::download(gpu, gpu_prod);

    // 6. Decrypt + decode.
    const auto decoded = encoder.decode(decryptor.decrypt(ct_prod));

    std::printf(
        "slot        a          b        a*b    decrypted      error\n");
    for (std::size_t i : {0u, 1u, 7u, 100u, 4095u}) {
        const double expect = a[i] * b[i];
        std::printf("%4zu %10.5f %10.5f %10.5f %12.5f %10.2e\n", i, a[i], b[i],
                    expect, decoded[i].real(),
                    std::abs(decoded[i].real() - expect));
    }
    std::printf("\nSimulated GPU time: %.3f ms (%.1f%% spent in NTT kernels)\n",
                gpu.profiler().total_ns() * 1e-6,
                100.0 * gpu.profiler().ntt_fraction());
    return 0;
}
