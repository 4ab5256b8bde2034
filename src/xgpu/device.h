// DeviceSpec: a software model of an Intel Xe GPU in the style of the
// Gen11/Xe architecture description in Section II-D of the paper: tiles,
// subslices, EUs (each with 7 hardware threads and SIMD-8 int ALUs),
// 64 KB shared local memory (SLM) per subslice, and a 4 KB general
// register file (GRF) per EU thread.
//
// The paper keeps its two benchmark GPUs confidential and reports only
// normalized time and efficiency.  The presets below are therefore
// *synthetic but architecturally plausible* devices, calibrated (see
// README, "Benchmarks -> paper figures") so the cost model reproduces the
// paper's ratios: Device1 is a large dual-tile part, Device2 a smaller
// single-tile part.
#pragma once

#include <cstddef>
#include <string>

#include "util/common.h"

namespace xehe::xgpu {

/// Instruction-selection mode for 64-bit modular arithmetic.
/// `Compiler` models DPC++ auto-generated sequences; `InlineAsm` models the
/// paper's hand-written sequences (Fig. 3: add_mod 4 -> 3 instructions,
/// Fig. 4: mul64 8 -> 3 via mul_low_high, ~60% fewer instructions).
enum class IsaMode { Compiler, InlineAsm };

struct DeviceSpec {
    std::string name;

    // --- topology -----------------------------------------------------
    int tiles = 1;
    int subslices_per_tile = 32;
    int eus_per_subslice = 16;
    int threads_per_eu = 7;        ///< simultaneous EU threads
    int simd_width = 8;            ///< lanes per EU thread
    std::size_t slm_bytes_per_subslice = 64 * 1024;
    std::size_t grf_bytes_per_thread = 4 * 1024;

    // --- throughput ---------------------------------------------------
    double freq_ghz = 1.4;
    double int64_ops_per_cycle_per_eu = 2.0;   ///< emulated int64 ALU rate
    double gmem_bytes_per_cycle_per_tile = 136.0;
    double slm_bytes_per_cycle_per_subslice = 64.0;
    double shuffle_lanes_per_cycle_per_eu = 8.0;

    // --- calibrated pipeline efficiencies (README: paper figures) ------
    /// Fraction of peak int64 issue rate a fully occupied compute-bound
    /// kernel sustains (dependency stalls, address arithmetic co-issue).
    double alu_efficiency = 0.36;
    /// Relative instruction count of the inline-assembly sequences for the
    /// modular-arithmetic inner loops (Fig. 14a / Fig. 17 step).
    double asm_alu_factor = 0.725;
    /// SIMD-thread count at which latency hiding saturates, as a multiple
    /// of resident hardware threads; drives the efficiency-vs-instances
    /// curves of Figs. 12b/13b.
    double saturation_waves = 64.0;
    /// Exponent of the sub-saturation occupancy curve.
    double occupancy_exponent = 0.5;
    /// Device-specific scaling of SLM exchange efficiency (banking width
    /// differs across the two benchmark parts).
    double slm_exchange_scale = 1.0;
    /// Memory systems saturate at a fraction of the occupancy the ALUs
    /// need: bandwidth-bound kernels reach peak with ~1/boost the threads.
    double mem_occupancy_boost = 2.0;

    // --- overheads ----------------------------------------------------
    double kernel_launch_overhead_ns = 5000.0;   ///< per-submission cost
    double host_sync_overhead_ns = 40000.0;       ///< blocking wait cost
    /// Cost of a cross-queue event wait that actually stalls the waiting
    /// queue (event propagation between tiles; timeline-only, never
    /// profiled as kernel time).
    double cross_queue_sync_ns = 2000.0;
    double malloc_overhead_ns = 100000.0;          ///< runtime device malloc
    double cached_malloc_overhead_ns = 200.0;     ///< memory-cache hit
    /// Multi-queue scaling efficiency when driving several tiles.
    double multi_tile_efficiency = 0.80;

    // --- derived ------------------------------------------------------
    int eus_per_tile() const noexcept {
        return subslices_per_tile * eus_per_subslice;
    }
    int total_eus(int tiles_used) const noexcept {
        return eus_per_tile() * tiles_used;
    }

    /// Resident SIMD threads (latency-hiding slots) on `tiles_used` tiles.
    double resident_threads(int tiles_used) const noexcept {
        return static_cast<double>(total_eus(tiles_used)) * threads_per_eu;
    }

    /// Peak int64 ops per second on `tiles_used` tiles.
    double peak_int64_ops(int tiles_used) const noexcept {
        return total_eus(tiles_used) * int64_ops_per_cycle_per_eu *
               freq_ghz * 1e9;
    }

    /// Peak global-memory bandwidth in bytes/s on `tiles_used` tiles.
    double gmem_bandwidth(int tiles_used) const noexcept {
        return gmem_bytes_per_cycle_per_tile * tiles_used * freq_ghz * 1e9;
    }

    /// Peak SLM bandwidth in bytes/s on `tiles_used` tiles.
    double slm_bandwidth(int tiles_used) const noexcept {
        return slm_bytes_per_cycle_per_subslice * subslices_per_tile *
               tiles_used * freq_ghz * 1e9;
    }

    /// Peak sub-group shuffle rate (lane exchanges per second).
    double shuffle_rate(int tiles_used) const noexcept {
        return total_eus(tiles_used) * shuffle_lanes_per_cycle_per_eu *
               freq_ghz * 1e9;
    }
};

/// The paper's "Device1": a large, dual-tile Intel GPU.
DeviceSpec device1();

/// The paper's "Device2": a smaller, single-tile Intel GPU with fewer EUs.
DeviceSpec device2();

}  // namespace xehe::xgpu
