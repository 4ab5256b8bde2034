#include "ntt/ntt_gpu.h"

#include <algorithm>
#include <cmath>

namespace xehe::ntt {

namespace {

using xgpu::KernelStats;

/// Calibrated SLM exchange efficiency per variant (banking conflicts and
/// barrier serialization of fine-grained radix-2 exchange versus the
/// register-blocked high-radix kernels).  See EXPERIMENTS.md, "calibration".
double variant_slm_eff(NttVariant v) {
    switch (v) {
        case NttVariant::NaiveRadix2: return 1.0;  // unused: no SLM phase
        // Multi-slot variants pay for the serialized per-slot shuffle loop
        // (Fig. 9) and in-register exchange, so their effective exchange
        // rate drops faster than their round count (the paper's Fig. 12
        // ordering: SIMD(8,8) > SIMD(16,8) > baseline > SIMD(32,8)).
        case NttVariant::StagedSimd8: return 0.030;
        case NttVariant::StagedSimd16: return 0.0245;
        case NttVariant::StagedSimd32: return 0.0165;
        case NttVariant::LocalRadix4: return 0.045;
        case NttVariant::LocalRadix8: return 0.35;
        case NttVariant::LocalRadix16: return 0.50;
    }
    return 1.0;
}

constexpr double kStridedGmemEff = 0.5;  ///< two-stream radix-2 access
constexpr double kBlockGmemEff = 0.9;    ///< contiguous block load/store

/// Coalescing of a global radix-R round: radix-2 issues two fine-grained
/// strided streams; higher radices load R-element bursts per work-item,
/// which coalesce markedly better.
double strided_gmem_eff(int radix) {
    return radix >= 4 ? 0.95 : kStridedGmemEff;
}

struct LaunchShape {
    std::size_t groups, local, items;
};

struct Geometry {
    std::size_t n = 0;
    std::size_t polys = 0;
    std::size_t rns = 0;

    std::size_t transforms() const noexcept { return polys * rns; }
    std::size_t elements() const noexcept { return transforms() * n; }
};

/// Register footprint of a radix-R kernel per EU thread: R data registers
/// plus 2R twiddle registers (root power and Harvey quotient) per lane, on
/// SIMD-8 lanes, plus a fixed overhead for addresses and indices.
double radix_reg_bytes(int radix) {
    return 3.0 * radix * 8.0 * 8.0 + 1536.0;
}

/// Spill traffic if the footprint exceeds the GRF (the radix-16 regression
/// of Fig. 13): the excess fraction of the register file round-trips to
/// global memory once per round group.
double spill_bytes_per_group(int radix, double items,
                             const xgpu::DeviceSpec &spec) {
    const double reg_bytes = radix_reg_bytes(radix);
    const double grf = static_cast<double>(spec.grf_bytes_per_thread);
    if (reg_bytes <= grf) {
        return 0.0;
    }
    const double ratio = (reg_bytes - grf) / reg_bytes;
    return ratio * reg_bytes * items;
}

// --------------------------------------------------------------------
// Forward global-memory radix-R round group: `sub_rounds` consecutive
// radix-2 rounds whose smallest gap is `gap_lo`, all data for one
// work-item held "in registers" between sub-rounds.
// --------------------------------------------------------------------
class GlobalFwdKernel final : public xgpu::Kernel {
public:
    GlobalFwdKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                    Geometry geo, std::size_t gap_lo, int sub_rounds,
                    const NttConfig &cfg, const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), gap_lo_(gap_lo),
          sub_rounds_(sub_rounds), cfg_(cfg), spec_(&spec) {}

    LaunchShape range_impl() const {
        const std::size_t radix = std::size_t{1} << sub_rounds_;
        const std::size_t items = geo_.transforms() * (geo_.n / radix);
        const std::size_t local = std::min<std::size_t>(cfg_.wg_size, items);
        return {util::div_round_up(items, local), local, items};
    }

    xgpu::NdRange range() const override {
        auto r = range_impl();
        return {r.groups, r.local};
    }

    void run(xgpu::WorkGroup &wg) const override {
        const auto r = range_impl();
        const std::size_t radix = std::size_t{1} << sub_rounds_;
        const std::size_t per_transform = geo_.n / radix;
        wg.for_each_item([&](std::size_t local) {
            const std::size_t item = wg.group_id() * r.local + local;
            if (item >= r.items) {
                return;
            }
            const std::size_t b = item / per_transform;
            const std::size_t k = item % per_transform;
            const NttTables &t = tables_[b % geo_.rns];
            uint64_t *slice = data_.data() + b * geo_.n;
            const std::size_t g = gap_lo_;
            const std::size_t base = k + (k & ~(g - 1)) * (radix - 1);
            // Largest-gap sub-round first (stride radix/2), down to stride 1.
            for (int s = 0; s < sub_rounds_; ++s) {
                const std::size_t stride = radix >> (s + 1);
                const std::size_t big_gap = g * stride;
                const int span_log = util::log2_exact(2 * big_gap);
                const std::size_t m = geo_.n >> span_log;
                for (std::size_t u = 0; u < radix; ++u) {
                    if ((u & stride) != 0) {
                        continue;
                    }
                    const std::size_t idx = base + u * g;
                    const std::size_t i = idx >> span_log;
                    util::forward_butterfly(&slice[idx],
                                            &slice[idx + big_gap],
                                            t.root_powers()[m + i],
                                            t.modulus());
                }
            }
        });
    }

    KernelStats stats() const override {
        const auto r = range_impl();
        const int radix = 1 << sub_rounds_;
        KernelStats s;
        s.name = std::string("ntt_fwd_global_r") + std::to_string(radix);
        s.is_ntt = true;
        s.alu_ops = table1_ops_per_item(radix) * static_cast<double>(r.items);
        s.gmem_bytes = 16.0 * radix * static_cast<double>(r.items);
        s.gmem_eff = strided_gmem_eff(radix);
        s.spill_bytes = spill_bytes_per_group(
            radix, static_cast<double>(r.items), *spec_);
        s.work_items = static_cast<double>(r.items);
        s.wg_size = r.local;
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t gap_lo_;
    int sub_rounds_;
    NttConfig cfg_;
    const xgpu::DeviceSpec *spec_;
};

// --------------------------------------------------------------------
// Forward SLM kernel: each work-group owns one contiguous `block` of the
// polynomial, keeps it in shared local memory for all remaining rounds
// (gaps block/2 .. 1), applies the fused last-round reduction, and stores.
// --------------------------------------------------------------------
class SlmFwdKernel final : public xgpu::Kernel {
public:
    SlmFwdKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                 Geometry geo, std::size_t block, const NttConfig &cfg,
                 const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), block_(block), cfg_(cfg),
          spec_(&spec) {}

    xgpu::NdRange range() const override {
        const std::size_t groups = geo_.transforms() * (geo_.n / block_);
        return {groups, std::min<std::size_t>(cfg_.wg_size, block_ / 2)};
    }

    std::size_t slm_words() const override { return block_; }

    void run(xgpu::WorkGroup &wg) const override {
        const std::size_t blocks_per_transform = geo_.n / block_;
        const std::size_t b = wg.group_id() / blocks_per_transform;
        const std::size_t blk = wg.group_id() % blocks_per_transform;
        const NttTables &t = tables_[b % geo_.rns];
        const Modulus &q = t.modulus();
        uint64_t *slice = data_.data() + b * geo_.n;
        const std::size_t base = blk * block_;
        auto slm = wg.slm();
        // Load block into SLM.
        for (std::size_t i = 0; i < block_; ++i) {
            slm[i] = slice[base + i];
        }
        // All remaining rounds inside SLM (SIMD-shuffle rounds are
        // arithmetically identical; the difference is cost-model only).
        for (std::size_t gap = block_ / 2; gap >= 1; gap >>= 1) {
            const int span_log = util::log2_exact(2 * gap);
            const std::size_t m = geo_.n >> span_log;
            for (std::size_t ind = 0; ind < block_ / 2; ++ind) {
                const std::size_t lidx = ind + (ind & ~(gap - 1));
                const std::size_t i = (base + lidx) >> span_log;
                util::forward_butterfly(&slm[lidx], &slm[lidx + gap],
                                        t.root_powers()[m + i], q);
            }
        }
        // Fused last-round processing + store.
        for (std::size_t i = 0; i < block_; ++i) {
            slice[base + i] = util::reduce_from_4p(slm[i], q);
        }
    }

    KernelStats stats() const override {
        const double elements = static_cast<double>(geo_.elements());
        const int rounds = util::log2_exact(block_);
        const NttVariant v = cfg_.variant;
        const int radix = variant_radix(v);
        const int lr = util::log2_exact(static_cast<uint64_t>(radix));

        KernelStats s;
        s.name = std::string("ntt_fwd_slm_") + variant_name(v);
        s.is_ntt = true;
        s.gmem_bytes = 16.0 * elements;  // one load + one (reduced) store
        s.gmem_eff = kBlockGmemEff;
        s.slm_eff = variant_slm_eff(v);
        s.wg_size = std::min<std::size_t>(cfg_.wg_size, block_ / 2);

        if (radix == 2) {
            // Staged radix-2: SIMD(2*slots*8, 8) covers the smallest
            // log2(16*slots) gaps via sub-group shuffles; the rest exchange
            // through SLM.
            const int slots = variant_reg_slots(v);
            const int simd_rounds =
                4 + util::log2_exact(static_cast<uint64_t>(slots));
            const int slm_rounds = std::max(0, rounds - simd_rounds);
            s.alu_ops = table1_ops_per_item(2) * (elements / 2.0) * rounds +
                        2.0 * elements;  // fused reduction
            // Multi-slot variants pay extra in-register permutation work.
            const int in_reg_rounds =
                util::log2_exact(static_cast<uint64_t>(slots));
            s.alu_ops += in_reg_rounds * 8.0 * (elements / 2.0);
            s.slm_bytes = 16.0 * elements * slm_rounds + 8.0 * elements;
            // Three inter-item shuffle stages (Fig. 7), `slots` register
            // moves per item per stage.
            s.shuffle_ops = 3.0 * (elements / 2.0);
            s.work_items = elements / 2.0;
        } else {
            // High-radix: rounds grouped into register-blocked radix-R
            // passes exchanging through SLM between passes.
            double alu = 2.0 * elements;  // fused reduction
            double slm_bytes = 8.0 * elements;  // initial fill
            double spills = 0.0;
            int remaining = rounds;
            while (remaining > 0) {
                const int sub = std::min(lr, remaining);
                const int r_eff = 1 << sub;
                const double items = elements / r_eff;
                alu += table1_ops_per_item(r_eff) * items;
                slm_bytes += 16.0 * elements;
                spills += spill_bytes_per_group(r_eff, items, *spec_);
                remaining -= sub;
            }
            s.alu_ops = alu;
            s.slm_bytes = slm_bytes;
            s.spill_bytes = spills;
            s.work_items = elements / radix;
        }
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t block_;
    NttConfig cfg_;
    const xgpu::DeviceSpec *spec_;
};

// --------------------------------------------------------------------
// Last-round reduction kernel (naive variant only; fused elsewhere).
// --------------------------------------------------------------------
class ReduceKernel final : public xgpu::Kernel {
public:
    ReduceKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                 Geometry geo, const NttConfig &cfg)
        : data_(data), tables_(tables), geo_(geo), cfg_(cfg) {}

    xgpu::NdRange range() const override {
        const std::size_t items = geo_.elements();
        const std::size_t local = std::min<std::size_t>(cfg_.wg_size, items);
        return {util::div_round_up(items, local), local};
    }

    void run(xgpu::WorkGroup &wg) const override {
        const std::size_t local_size = range().local_size;
        wg.for_each_item([&](std::size_t local) {
            const std::size_t i = wg.group_id() * local_size + local;
            if (i >= geo_.elements()) {
                return;
            }
            const std::size_t b = i / geo_.n;
            const Modulus &q = tables_[b % geo_.rns].modulus();
            data_[i] = util::reduce_from_4p(data_[i], q);
        });
    }

    KernelStats stats() const override {
        KernelStats s;
        s.name = "ntt_last_round_reduce";
        s.is_ntt = true;
        const double elements = static_cast<double>(geo_.elements());
        s.alu_ops = 4.0 * elements;
        s.gmem_bytes = 16.0 * elements;
        s.gmem_eff = 1.0;
        s.work_items = elements;
        s.wg_size = cfg_.wg_size;
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    NttConfig cfg_;
};

// --------------------------------------------------------------------
// Inverse SLM kernel: the inverse transform starts at gap 1, so the SLM
// phase comes first (gaps 1 .. block/2).
// --------------------------------------------------------------------
class SlmInvKernel final : public xgpu::Kernel {
public:
    SlmInvKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                 Geometry geo, std::size_t block, const NttConfig &cfg,
                 const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), block_(block), cfg_(cfg),
          spec_(&spec) {}

    xgpu::NdRange range() const override {
        const std::size_t groups = geo_.transforms() * (geo_.n / block_);
        return {groups, std::min<std::size_t>(cfg_.wg_size, block_ / 2)};
    }

    std::size_t slm_words() const override { return block_; }

    void run(xgpu::WorkGroup &wg) const override {
        const std::size_t blocks_per_transform = geo_.n / block_;
        const std::size_t b = wg.group_id() / blocks_per_transform;
        const std::size_t blk = wg.group_id() % blocks_per_transform;
        const NttTables &t = tables_[b % geo_.rns];
        const Modulus &q = t.modulus();
        uint64_t *slice = data_.data() + b * geo_.n;
        const std::size_t base = blk * block_;
        auto slm = wg.slm();
        for (std::size_t i = 0; i < block_; ++i) {
            slm[i] = slice[base + i];
        }
        for (std::size_t gap = 1; gap <= block_ / 2; gap <<= 1) {
            const int span_log = util::log2_exact(2 * gap);
            const std::size_t m = geo_.n >> span_log;
            const std::size_t root_base = geo_.n - 2 * m + 1;
            for (std::size_t ind = 0; ind < block_ / 2; ++ind) {
                const std::size_t lidx = ind + (ind & ~(gap - 1));
                const std::size_t i = (base + lidx) >> span_log;
                util::inverse_butterfly(&slm[lidx], &slm[lidx + gap],
                                        t.inv_root_powers()[root_base + i], q);
            }
        }
        for (std::size_t i = 0; i < block_; ++i) {
            slice[base + i] = slm[i];  // still lazy [0, 2q)
        }
    }

    KernelStats stats() const override {
        SlmFwdKernel proxy(data_, tables_, geo_, block_, cfg_, *spec_);
        KernelStats s = proxy.stats();
        s.name = std::string("intt_slm_") + variant_name(cfg_.variant);
        // no fused reduce
        s.alu_ops -= 2.0 * static_cast<double>(geo_.elements());
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t block_;
    NttConfig cfg_;
    const xgpu::DeviceSpec *spec_;
};

// --------------------------------------------------------------------
// Inverse global round group (gaps ascending within the group).
// --------------------------------------------------------------------
class GlobalInvKernel final : public xgpu::Kernel {
public:
    GlobalInvKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                    Geometry geo, std::size_t gap_lo, int sub_rounds,
                    const NttConfig &cfg, const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), gap_lo_(gap_lo),
          sub_rounds_(sub_rounds), cfg_(cfg), spec_(&spec) {}

    xgpu::NdRange range() const override {
        const std::size_t radix = std::size_t{1} << sub_rounds_;
        const std::size_t items = geo_.transforms() * (geo_.n / radix);
        const std::size_t local = std::min<std::size_t>(cfg_.wg_size, items);
        return {util::div_round_up(items, local), local};
    }

    void run(xgpu::WorkGroup &wg) const override {
        const std::size_t radix = std::size_t{1} << sub_rounds_;
        const std::size_t per_transform = geo_.n / radix;
        const std::size_t items = geo_.transforms() * per_transform;
        const std::size_t local_size = range().local_size;
        wg.for_each_item([&](std::size_t local) {
            const std::size_t item = wg.group_id() * local_size + local;
            if (item >= items) {
                return;
            }
            const std::size_t b = item / per_transform;
            const std::size_t k = item % per_transform;
            const NttTables &t = tables_[b % geo_.rns];
            uint64_t *slice = data_.data() + b * geo_.n;
            const std::size_t g = gap_lo_;
            const std::size_t base = k + (k & ~(g - 1)) * (radix - 1);
            // Smallest-gap sub-round first (stride 1), up to stride radix/2.
            for (int s = 0; s < sub_rounds_; ++s) {
                const std::size_t stride = std::size_t{1} << s;
                const std::size_t big_gap = g * stride;
                const int span_log = util::log2_exact(2 * big_gap);
                const std::size_t m = geo_.n >> span_log;
                const std::size_t root_base = geo_.n - 2 * m + 1;
                for (std::size_t u = 0; u < radix; ++u) {
                    if ((u & stride) != 0) {
                        continue;
                    }
                    const std::size_t idx = base + u * g;
                    const std::size_t i = idx >> span_log;
                    util::inverse_butterfly(&slice[idx], &slice[idx + big_gap],
                                            t.inv_root_powers()[root_base + i],
                                            t.modulus());
                }
            }
        });
    }

    KernelStats stats() const override {
        const std::size_t radix = std::size_t{1} << sub_rounds_;
        const double items =
            static_cast<double>(geo_.transforms() * (geo_.n / radix));
        KernelStats s;
        s.name = std::string("intt_global_r") + std::to_string(radix);
        s.is_ntt = true;
        s.alu_ops = table1_ops_per_item(static_cast<int>(radix)) * items;
        s.gmem_bytes = 16.0 * static_cast<double>(radix) * items;
        s.gmem_eff = strided_gmem_eff(static_cast<int>(radix));
        s.spill_bytes = spill_bytes_per_group(static_cast<int>(radix), items,
                                              *spec_);
        s.work_items = items;
        s.wg_size = cfg_.wg_size;
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t gap_lo_;
    int sub_rounds_;
    NttConfig cfg_;
    const xgpu::DeviceSpec *spec_;
};

// --------------------------------------------------------------------
// Inverse scaling: multiply by N^{-1} and reduce to [0, q).
// --------------------------------------------------------------------
class InvScaleKernel final : public xgpu::Kernel {
public:
    InvScaleKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
                   Geometry geo, const NttConfig &cfg)
        : data_(data), tables_(tables), geo_(geo), cfg_(cfg) {}

    xgpu::NdRange range() const override {
        const std::size_t items = geo_.elements();
        const std::size_t local = std::min<std::size_t>(cfg_.wg_size, items);
        return {util::div_round_up(items, local), local};
    }

    void run(xgpu::WorkGroup &wg) const override {
        const std::size_t local_size = range().local_size;
        wg.for_each_item([&](std::size_t local) {
            const std::size_t i = wg.group_id() * local_size + local;
            if (i >= geo_.elements()) {
                return;
            }
            const std::size_t b = i / geo_.n;
            const NttTables &t = tables_[b % geo_.rns];
            uint64_t v = data_[i];
            if (v >= 2 * t.modulus().value()) {
                v -= 2 * t.modulus().value();
            }
            data_[i] = util::mul_mod(v, t.inv_degree(), t.modulus());
        });
    }

    KernelStats stats() const override {
        KernelStats s;
        s.name = "intt_scale_n_inv";
        s.is_ntt = true;
        const double elements = static_cast<double>(geo_.elements());
        s.alu_ops = (xgpu::core_op_cost(xgpu::CoreOp::MulMod,
                                        xgpu::IsaMode::Compiler) +
                     2.0) * elements;
        s.gmem_bytes = 16.0 * elements;
        s.gmem_eff = 1.0;
        s.work_items = elements;
        s.wg_size = cfg_.wg_size;
        return s;
    }

private:
    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    NttConfig cfg_;
};

Geometry make_geometry(std::span<uint64_t> data, std::size_t polys,
                       std::span<const NttTables> tables, bool functional) {
    util::require(!tables.empty(), "no NTT tables");
    Geometry geo;
    geo.n = tables[0].n();
    geo.polys = polys;
    geo.rns = tables.size();
    // Cost-only sweeps at the paper's 1024-instance operating point would
    // need gigabytes of real data; only functional runs require storage.
    if (functional) {
        util::require(data.size() == geo.elements(), "NTT batch size mismatch");
    }
    return geo;
}

}  // namespace

const char *variant_name(NttVariant v) {
    switch (v) {
        case NttVariant::NaiveRadix2: return "naive_radix2";
        case NttVariant::StagedSimd8: return "simd8_8";
        case NttVariant::StagedSimd16: return "simd16_8";
        case NttVariant::StagedSimd32: return "simd32_8";
        case NttVariant::LocalRadix4: return "local_radix4";
        case NttVariant::LocalRadix8: return "local_radix8";
        case NttVariant::LocalRadix16: return "local_radix16";
    }
    return "unknown";
}

int variant_radix(NttVariant v) {
    switch (v) {
        case NttVariant::LocalRadix4: return 4;
        case NttVariant::LocalRadix8: return 8;
        case NttVariant::LocalRadix16: return 16;
        default: return 2;
    }
}

int variant_reg_slots(NttVariant v) {
    switch (v) {
        case NttVariant::StagedSimd16: return 2;
        case NttVariant::StagedSimd32: return 4;
        default: return 1;
    }
}

double table1_ops_per_item(int radix) {
    switch (radix) {
        case 2: return 48.0;
        case 4: return 157.0;
        case 8: return 456.0;
        case 16: return 1156.0;
    }
    return 0.0;
}

double table1_butterfly_ops(int radix) {
    switch (radix) {
        case 2: return 28.0;
        case 4: return 112.0;
        case 8: return 336.0;
        case 16: return 896.0;
    }
    return 0.0;
}

double GpuNtt::forward(std::span<uint64_t> data, std::size_t polys,
                       std::span<const NttTables> tables) {
    const Geometry geo = make_geometry(data, polys, tables,
                                       queue_->functional());
    const double t0 = queue_->clock_ns();
    const auto &spec = queue_->spec();
    // One profiler entry per (poly, rns) transform: launch counts are
    // invariant under how the call batches slices into physical launches.
    const auto submit = [&](const xgpu::Kernel &kernel) {
        queue_->submit(xgpu::SlicedKernel(kernel, geo.transforms()));
    };

    if (cfg_.variant == NttVariant::NaiveRadix2) {
        std::size_t gap = geo.n >> 1;
        for (std::size_t m = 1; m < geo.n; m <<= 1) {
            submit(GlobalFwdKernel(data, tables, geo, gap, 1, cfg_, spec));
            gap >>= 1;
        }
        submit(ReduceKernel(data, tables, geo, cfg_));
        return queue_->clock_ns() - t0;
    }

    const std::size_t block = std::min(cfg_.slm_block, geo.n);
    int global_rounds = util::log2_exact(geo.n / block);
    const int lr = util::log2_exact(
        static_cast<uint64_t>(variant_radix(cfg_.variant)));
    // Mixed-radix head so remaining global rounds divide evenly.
    int head = global_rounds % lr;
    std::size_t gap = geo.n >> 1;
    while (global_rounds > 0) {
        const int sub = head > 0 ? head : std::min(lr, global_rounds);
        head = 0;
        const std::size_t gap_lo = gap >> (sub - 1);
        submit(GlobalFwdKernel(data, tables, geo, gap_lo, sub, cfg_, spec));
        gap = gap_lo >> 1;
        global_rounds -= sub;
    }
    submit(SlmFwdKernel(data, tables, geo, block, cfg_, spec));
    return queue_->clock_ns() - t0;
}

double GpuNtt::inverse(std::span<uint64_t> data, std::size_t polys,
                       std::span<const NttTables> tables) {
    const Geometry geo = make_geometry(data, polys, tables,
                                       queue_->functional());
    const double t0 = queue_->clock_ns();
    const auto &spec = queue_->spec();
    const auto submit = [&](const xgpu::Kernel &kernel) {
        queue_->submit(xgpu::SlicedKernel(kernel, geo.transforms()));
    };

    if (cfg_.variant == NttVariant::NaiveRadix2) {
        std::size_t gap = 1;
        for (std::size_t m = geo.n >> 1; m >= 1; m >>= 1) {
            submit(GlobalInvKernel(data, tables, geo, gap, 1, cfg_, spec));
            gap <<= 1;
        }
        submit(InvScaleKernel(data, tables, geo, cfg_));
        return queue_->clock_ns() - t0;
    }

    const std::size_t block = std::min(cfg_.slm_block, geo.n);
    submit(SlmInvKernel(data, tables, geo, block, cfg_, spec));
    int global_rounds = util::log2_exact(geo.n / block);
    const int lr = util::log2_exact(
        static_cast<uint64_t>(variant_radix(cfg_.variant)));
    std::size_t gap = block;
    while (global_rounds > 0) {
        const int sub = std::min(lr, global_rounds);
        submit(GlobalInvKernel(data, tables, geo, gap, sub, cfg_, spec));
        gap <<= sub;
        global_rounds -= sub;
    }
    submit(InvScaleKernel(data, tables, geo, cfg_));
    return queue_->clock_ns() - t0;
}

}  // namespace xehe::ntt
