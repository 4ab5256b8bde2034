// Quickstart: the unified he:: frontend end to end.
//
// One he::Session over the simulated-GPU backend owns the keys and the
// scale/level bookkeeping: encrypt two vectors, compose
// add(multiply(a, b), c) - 0.25 * rotate(a, 1) without touching
// relinearize/rescale/mod-switch, decrypt, and compare against the
// plaintext reference.  Then a circuit travels as a wire-serialized
// he::Program — what a client would ship to the serving frontend — and
// runs through the same session.
// The raw layer-by-layer API this automates lives in
// examples/quickstart_lowlevel.cpp.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "he/session.h"
#include "xgpu/device.h"

int main() {
    using namespace xehe;

    // 1. Parameters, then a backend: the simulated GPU (radix-8 SLM NTT,
    //    inline asm, memory cache, async pipeline — the paper's full
    //    stack), or the host oracle when "gpu" is switched off.  Try
    //    XEHE_DISABLE_BACKENDS=gpu to watch the same program degrade
    //    gracefully.
    const ckks::CkksContext context(
        ckks::EncryptionParameters::create(8192, 3));
    std::optional<core::GpuContext> gpu;
    std::optional<core::GpuEvaluator> evaluator;
    std::unique_ptr<he::Backend> owned;
    if (he::backend_disabled("gpu")) {
        owned = std::make_unique<he::HostBackend>(context);
    } else {
        core::GpuOptions options;
        options.isa = xgpu::IsaMode::InlineAsm;
        gpu.emplace(context, xgpu::device1(), options);
        evaluator.emplace(*gpu);
        owned = std::make_unique<he::GpuBackend>(*gpu, *evaluator);
    }
    he::Backend &backend = *owned;
    std::printf("backend: %s\n", backend.name());

    // 2. One session = keys + encoder + automatic scale/level management.
    he::Session session(backend);

    std::vector<double> a(context.slots()), b(context.slots()),
        c(context.slots());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = 0.001 * static_cast<double>(i % 1000);
        b[i] = 1.5 - 0.0005 * static_cast<double>(i % 2000);
        c[i] = 0.25 * std::sin(0.01 * static_cast<double>(i));
    }
    const auto ct_a = session.encrypt(a);
    const auto ct_b = session.encrypt(b);
    const auto ct_c = session.encrypt(c);

    // 3. Compose freely: the session relinearizes and rescales the
    //    product, mod-switches the fresh operands down to its level, and
    //    reconciles scales — no manual bookkeeping.
    const auto result = session.sub(
        session.add(session.multiply(ct_a, ct_b), ct_c),
        session.multiply(session.rotate(ct_a, 1), 0.25));

    // 4. Decrypt and compare.
    const auto decoded = session.decrypt(result);
    std::printf(
        "slot     a*b + c - 0.25*rot(a)    decrypted        error\n");
    for (std::size_t i : {0u, 1u, 7u, 100u, 4095u}) {
        const double expect =
            a[i] * b[i] + c[i] - 0.25 * a[(i + 1) % a.size()];
        std::printf("%4zu %20.6f %16.6f %12.2e\n", i, expect, decoded[i],
                    std::abs(decoded[i] - expect));
    }

    // 5. A circuit as a wire-executable he::Program: built once,
    //    serialized (what a client ships to serve::InferenceServer),
    //    reloaded and interpreted over the same backend.
    he::ProgramBuilder builder(3);
    const auto prod =
        builder.rescale(builder.relinearize(
            builder.multiply(builder.input(0), builder.input(1))));
    builder.output(builder.mod_switch_add(prod, builder.input(2)));
    const auto bytes = wire::serialize(builder.build());
    const he::Program circuit = he::load_program(bytes, context);
    const std::array inputs{ct_a, ct_b, ct_c};
    const auto outputs = session.run(circuit, inputs);
    std::printf("\nprogram: %zu wire bytes, %zu nodes, output level %zu "
                "(scale 2^%.1f)\n",
                bytes.size(), circuit.nodes.size(), outputs[0].level(),
                std::log2(outputs[0].scale()));

    if (auto *gpu_backend = dynamic_cast<he::GpuBackend *>(&backend)) {
        auto &profiler = gpu_backend->gpu().profiler();
        std::printf("Simulated GPU time: %.3f ms (%.1f%% in NTT kernels)\n",
                    profiler.total_ns() * 1e-6,
                    100.0 * profiler.ntt_fraction());
    }
    return 0;
}
