// Simulated-GPU NTT kernels: every variant the paper evaluates, all run
// as one staged plan (Section III-B).  The forward transform walks its
// rounds from gap N/2 down: radix-R round groups in global memory, the
// mixed-radix remainder first, until the gap fits the SLM block; then one
// SLM kernel runs every smaller gap.  The inverse runs the same plan
// reversed, then scales by N^{-1}.  One global-round kernel and one SLM
// kernel serve both directions.
//
//  * NaiveRadix2    — Fig. 6: the plan with a one-element SLM block (one
//                     global kernel per radix-2 round) plus a separate
//                     last-round reduction kernel.
//  * StagedSimd8/16/32 — Fig. 8: global radix-2 rounds, then an SLM kernel
//                     whose smallest-gap rounds exchange through sub-group
//                     SIMD shuffles with 1/2/4 register slots per
//                     work-item (Figs. 7 and 9).
//  * LocalRadix4/8/16 — Section III-B5: a radix-R kernel performs log2(R)
//                     butterfly rounds on R elements held in registers, in
//                     global memory and then inside SLM; the forward SLM
//                     kernel fuses the last-round reduction.  Radix-16
//                     exceeds the 4 KB GRF per EU thread and spills
//                     (Fig. 13's regression).
//
// The functional bodies execute mathematically identical radix-2 butterfly
// sweeps (register blocking and shuffles do not change the arithmetic, only
// where data lives), so all variants are bit-exact against the reference
// NTT; the variants differ in their KernelStats — memory level, traffic,
// exchange efficiency, shuffle counts, spills — which is what the paper's
// experiments measure.
#pragma once

#include "ntt/ntt_ref.h"
#include "xgpu/queue.h"

namespace xehe::ntt {

enum class NttVariant {
    NaiveRadix2,
    StagedSimd8,    ///< SIMD(8,8)  — 1 register slot per work-item
    StagedSimd16,   ///< SIMD(16,8) — 2 register slots
    StagedSimd32,   ///< SIMD(32,8) — 4 register slots
    LocalRadix4,
    LocalRadix8,
    LocalRadix16,
};

const char *variant_name(NttVariant v);
int variant_radix(NttVariant v);      ///< 2, 4, 8 or 16
int variant_reg_slots(NttVariant v);  ///< register slots for staged variants

/// Table I of the paper: int64 ALU ops per work-item per round.
double table1_ops_per_item(int radix);
double table1_butterfly_ops(int radix);

struct NttConfig {
    NttVariant variant = NttVariant::LocalRadix8;
    /// NTT elements resident in SLM per work-group (the paper assigns 4K
    /// elements per work-group; 2 * TER_SLM_GAP_SZ in its notation).
    std::size_t slm_block = 4096;
    std::size_t wg_size = 512;  ///< work-items per work-group
};

/// Batched negacyclic NTT/iNTT dispatcher over a simulated GPU queue.
///
/// Data layout: `polys` concatenated RNS polynomials, i.e.
/// data[b * N + k] where b = poly * tables.size() + rns, matching the
/// three-dimensional (poly, q_base, N/2) nd-range of Fig. 6.
class GpuNtt {
public:
    GpuNtt(xgpu::Queue &queue, NttConfig config = {})
        : queue_(&queue), cfg_(config) {}

    const NttConfig &config() const noexcept { return cfg_; }

    /// Forward NTT of every (poly, rns) slice; returns simulated ns.
    double forward(std::span<uint64_t> data, std::size_t polys,
                   std::span<const NttTables> tables);

    /// Inverse NTT of every (poly, rns) slice; returns simulated ns.
    double inverse(std::span<uint64_t> data, std::size_t polys,
                   std::span<const NttTables> tables);

private:
    /// Runs the staged plan forward, or reversed for the inverse.
    double transform(bool inverse, std::span<uint64_t> data,
                     std::size_t polys, std::span<const NttTables> tables);

    xgpu::Queue *queue_;
    NttConfig cfg_;
};

}  // namespace xehe::ntt
