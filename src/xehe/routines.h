// Harness for the five HE evaluation routines benchmarked in Section IV-C:
// builds inputs (encrypted when functional, fabricated for cost-only
// sweeps), runs one routine on the GPU evaluator, and reports the NTT /
// non-NTT simulated-time split the paper's Figures 5, 16 and 18 plot.
#pragma once

#include "he/program.h"

namespace xehe::core {

enum class Routine { MulLin, MulLinRS, SqrLinRS, MulLinRSModSwAdd, Rotate };

inline constexpr Routine kAllRoutines[] = {
    Routine::MulLin, Routine::MulLinRS, Routine::SqrLinRS,
    Routine::MulLinRSModSwAdd, Routine::Rotate};

const char *routine_name(Routine r);

/// The canonical he::Program of one routine (cached; rotation step 1).
/// Every execution path — RoutineBench and the serving frontend —
/// interprets these over a backend, so the routines have exactly one
/// definition.
const he::Program &routine_program(Routine r);

/// The compiled form of routine_program(r) (cached).  The canonical
/// routines are already in compiled normal form, so this pins the
/// compiler's identity on them while routing the routine harness through
/// the same compile step as client circuits.
const he::Program &routine_program_compiled(Routine r);

struct RoutineProfile {
    double ntt_ms = 0.0;
    double other_ms = 0.0;
    double total_ms() const noexcept { return ntt_ms + other_ms; }
    double ntt_fraction() const noexcept {
        return total_ms() > 0 ? ntt_ms / total_ms() : 0.0;
    }
};

/// Runs one routine through `evaluator` and returns the NTT / non-NTT
/// split of exactly the kernel time this call added to the evaluator's
/// queue profiler.  The window is measured with Profiler::Snapshot /
/// delta_since — reading the raw ntt_ns()/total_ns() accumulators before
/// and after and subtracting by hand silently double-counts whatever else
/// runs on a shared queue between the two reads.
RoutineProfile profile_routine(const GpuEvaluator &evaluator, Routine routine,
                               const GpuCiphertext &a, const GpuCiphertext &b,
                               const GpuCiphertext &c,
                               const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois);

/// Owns the host-side scheme objects and GPU-resident inputs for routine
/// benchmarking; reusable across routines and configurations.
class RoutineBench {
public:
    /// `functional = false` fabricates ciphertexts without encryption and
    /// runs kernels cost-only (the paper's N = 32K operating point).
    RoutineBench(const ckks::CkksContext &host, xgpu::DeviceSpec device,
                 GpuOptions options, bool functional, uint64_t seed = 99);

    /// Runs one routine and returns its kernel-time profile.
    RoutineProfile run(Routine routine);

    GpuContext &gpu() noexcept { return gpu_; }

    /// The three GPU-resident inputs (0 = a, 1 = b, 2 = c); any other
    /// index throws.  In functional mode they are pairwise-independent
    /// encryptions: each input's slot values and encryption randomness
    /// come from their own RNG streams, seeded from the bench seed and
    /// the input index.
    const GpuCiphertext &input(std::size_t i) const {
        util::require(i < 3, "RoutineBench::input index out of range");
        return i == 0 ? input_a_ : i == 1 ? input_b_ : input_c_;
    }

private:
    GpuCiphertext make_input(std::size_t index);

    const ckks::CkksContext *host_;
    GpuContext gpu_;
    GpuEvaluator evaluator_;
    bool functional_;
    uint64_t seed_;
    ckks::KeyGenerator keygen_;
    ckks::RelinKeys relin_;
    ckks::GaloisKeys galois_;
    GpuCiphertext input_a_, input_b_, input_c_;
};

}  // namespace xehe::core
