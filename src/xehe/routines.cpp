#include "xehe/routines.h"

#include <array>
#include <random>

#include "ckks/encoder.h"
#include "he/compiler.h"
#include "util/rng.h"

namespace xehe::core {

const char *routine_name(Routine r) {
    switch (r) {
        case Routine::MulLin: return "MulLin";
        case Routine::MulLinRS: return "MulLinRS";
        case Routine::SqrLinRS: return "SqrLinRS";
        case Routine::MulLinRSModSwAdd: return "MulLinRSModSwAdd";
        case Routine::Rotate: return "Rotate";
    }
    return "unknown";
}

const he::Program &routine_program(Routine r) {
    // Indexed by Routine.
    static const he::Program programs[] = {
        he::mul_lin_program(), he::mul_lin_rs_program(),
        he::sqr_lin_rs_program(), he::mul_lin_rs_modsw_add_program(),
        he::rotate_program(1)};
    static_assert(std::size(programs) == std::size(kAllRoutines));
    return programs[static_cast<std::size_t>(r)];
}

const he::Program &routine_program_compiled(Routine r) {
    // Context-free compile (canonicalize/CSE/DCE/prefuse): the canonical
    // routines are context-independent, and none of them needs the
    // planner — they are already minimal.
    static const auto programs = [] {
        std::array<he::Program, std::size(kAllRoutines)> out;
        for (const Routine routine : kAllRoutines) {
            out[static_cast<std::size_t>(routine)] =
                he::ProgramCompiler().compile(routine_program(routine))
                    .program;
        }
        return out;
    }();
    return programs[static_cast<std::size_t>(r)];
}

RoutineBench::RoutineBench(const ckks::CkksContext &host,
                           xgpu::DeviceSpec device,
                           GpuOptions options, bool functional, uint64_t seed)
    : host_(&host), gpu_(host, std::move(device), options), evaluator_(gpu_),
      functional_(functional), seed_(seed), keygen_(host, seed) {
    gpu_.set_functional(functional);
    relin_ = keygen_.create_relin_keys();
    const int steps[] = {1};
    galois_ = keygen_.create_galois_keys(steps);

    input_a_ = make_input(0);
    input_b_ = make_input(1);
    input_c_ = make_input(2);
}

GpuCiphertext RoutineBench::make_input(std::size_t index) {
    if (!functional_) {
        return allocate_ciphertext(gpu_, 2, host_->max_level(),
                                   kWorkloadScale);
    }
    ckks::CkksEncoder encoder(*host_);
    // One encryptor per input with a seed derived from the bench seed and
    // the input index: the slot values and the encryption noise of a, b
    // and c come from disjoint RNG streams (the previous shared-seed
    // scheme produced three identical ciphertexts).
    ckks::Encryptor encryptor(*host_, keygen_.create_public_key(),
                              seed_ + 0x9E3779B97F4A7C15ull * (index + 1));
    util::Mt19937_64 rng(seed_ ^ (0xD1B54A32D192ED03ull * (index + 1)));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> values(host_->slots());
    for (auto &v : values) {
        v = dist(rng);
    }
    const auto plain =
        encoder.encode(std::span<const double>(values), kWorkloadScale);
    return upload(gpu_, encryptor.encrypt(plain));
}

RoutineProfile profile_routine(const GpuEvaluator &evaluator, Routine routine,
                               const GpuCiphertext &a, const GpuCiphertext &b,
                               const GpuCiphertext &c,
                               const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois) {
    // A switched-off "gpu" surfaces as the typed he::BackendUnavailable.
    he::require_backend("gpu");
    he::GpuBackend backend(evaluator.gpu(), evaluator);
    const he::Program &program = routine_program_compiled(routine);
    const he::Cipher inputs[3] = {backend.wrap(a), backend.wrap(b),
                                  backend.wrap(c)};
    he::ProgramKeys keys;
    keys.relin = &relin;
    keys.galois = &galois;

    const xgpu::Profiler &profiler = evaluator.gpu().queue().profiler();
    const xgpu::Profiler::Snapshot before = profiler.snapshot();
    he::run_program(program, backend,
                    std::span<const he::Cipher>(inputs).first(
                        program.num_inputs),
                    keys);
    const xgpu::Profiler::Snapshot window = profiler.delta_since(before);
    RoutineProfile profile;
    profile.ntt_ms = window.ntt_ns * 1e-6;
    profile.other_ms = window.other_ns() * 1e-6;
    return profile;
}

RoutineProfile RoutineBench::run(Routine routine) {
    return profile_routine(evaluator_, routine, input_a_, input_b_, input_c_,
                           relin_, galois_);
}

}  // namespace xehe::core
