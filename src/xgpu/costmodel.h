// The roofline cost model that converts a kernel launch into simulated time.
//
// Every kernel reports a KernelStats record describing its work (int64 ALU
// operations, global-memory traffic with a coalescing efficiency, SLM
// traffic with an exchange efficiency, sub-group shuffles, register-spill
// traffic).  Simulated time is
//
//     t = max(t_alu, t_gmem, t_slm, t_shuffle) + launch_overhead
//
// where every throughput term is scaled by an occupancy factor derived from
// the number of resident SIMD threads the launch creates — this produces the
// efficiency-vs-instance-count curves of Figures 12b/13b.  The InlineAsm
// mode multiplies the ALU term by DeviceSpec::asm_alu_factor (the
// instruction-count reduction of Figures 3/4).
//
// Nothing in a specific figure is special-cased here: all paper results are
// generated by this one model plus the per-kernel stats.
#pragma once

#include <string>

#include "xgpu/device.h"

namespace xehe::xgpu {

/// Core modular-arithmetic operations whose instruction counts differ
/// between compiler-generated and inline-assembly code (Section III-A).
enum class CoreOp {
    AddMod,      ///< unsigned modular addition
    SubMod,      ///< unsigned modular subtraction
    Mul64,       ///< 64-bit integer multiply (low+high), emulated from 32-bit
    MulMod,      ///< Barrett modular multiplication
    MadMod,      ///< fused multiply-add with a single reduction
    /// unfused multiply-mod followed by add-mod (baseline of MadMod)
    MulModAddMod
};

/// int64-equivalent instruction count of a core op under the given ISA mode.
/// Values follow Section III-A: add_mod 4 -> 3 (Fig. 3); mul64 8 -> 3
/// (Fig. 4, ~60% reduction); mul_mod = mul64 + Barrett (2 more mul64 + adds);
/// mad_mod saves one full reduction versus mul_mod + add_mod.
double core_op_cost(CoreOp op, IsaMode mode) noexcept;

/// Work description of one kernel launch.
struct KernelStats {
    std::string name;        ///< kernel class tag, e.g. "ntt_radix8_slm"
    bool is_ntt = false;     ///< NTT/iNTT kernel (for the Fig. 5/16/18 split)

    double alu_ops = 0.0;    ///< int64 ALU ops, compiler-mode count
    /// Fraction of alu_ops that are modular-arithmetic inner-loop work and
    /// therefore shrink by asm_alu_factor under InlineAsm (index math and
    /// control do not).
    double asm_sensitive = 1.0;

    double gmem_bytes = 0.0;
    double gmem_eff = 1.0;   ///< coalescing efficiency in (0, 1]

    double slm_bytes = 0.0;
    double slm_eff = 1.0;    ///< exchange efficiency (banking + barriers)

    double shuffle_ops = 0.0;  ///< sub-group lane exchanges
    double spill_bytes = 0.0;  ///< GRF spill traffic, charged to global memory

    double work_items = 0.0;
    std::size_t wg_size = 1;   ///< work-items per work-group

    /// Merge another launch's work into this record (same kernel class).
    void accumulate(const KernelStats &other);
};

/// Execution configuration for a launch.
struct ExecConfig {
    int tiles = 1;
    IsaMode isa = IsaMode::Compiler;
    bool charge_launch_overhead = true;
};

class CostModel {
public:
    explicit CostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

    const DeviceSpec &spec() const noexcept { return spec_; }

    /// Occupancy in (0, 1]: latency-hiding saturation as a function of the
    /// resident SIMD threads the launch creates.
    double occupancy(double work_items, int tiles_used) const noexcept;

    /// Simulated execution time of one launch, in nanoseconds.
    double kernel_time_ns(const KernelStats &stats,
                          const ExecConfig &cfg) const;

    /// Per-submission overhead this launch is charged.  Factored out so
    /// the queue charges transfers the same launch overhead the cost
    /// model charges kernels.
    double launch_overhead_ns(const ExecConfig &cfg) const noexcept {
        return cfg.charge_launch_overhead ? spec_.kernel_launch_overhead_ns
                                          : 0.0;
    }

    /// Achieved int64 rate relative to the single-tile peak — the paper's
    /// "efficiency" metric (its dual-tile numbers reconcile against the
    /// single-tile peak; see README, "Benchmarks -> paper figures").
    double efficiency(const KernelStats &stats, double time_ns) const noexcept;

private:
    DeviceSpec spec_;
};

}  // namespace xehe::xgpu
