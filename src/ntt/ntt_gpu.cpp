#include "ntt/ntt_gpu.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace xehe::ntt {

namespace {

using xgpu::KernelStats;

/// Calibrated SLM exchange efficiency per variant (banking conflicts and
/// barrier serialization of fine-grained radix-2 exchange versus the
/// register-blocked high-radix kernels).  See README, "Benchmarks -> paper
/// figures".
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

/// The twiddles of the radix-2 round whose butterflies span 2^span_log
/// elements, indexed by span: root_powers() forward, inv_root_powers()
/// inverse.
template <bool Inverse>
const MultiplyModOperand *round_twiddles(const NttTables &t, int span_log) {
    const std::size_t m = t.n() >> span_log;
    return Inverse ? &t.inv_root_powers()[t.n() - 2 * m + 1]
                   : &t.root_powers()[m];
}

/// The radix-2 butterfly on (x[0], x[gap]): Cooley-Tukey forward,
/// Gentleman-Sande inverse.
template <bool Inverse>
void butterfly(uint64_t *x, std::size_t gap, const MultiplyModOperand &w,
               const Modulus &q) {
    if constexpr (Inverse) {
        util::inverse_butterfly(x, x + gap, w, q);
    } else {
        util::forward_butterfly(x, x + gap, w, q);
    }
}

// --------------------------------------------------------------------
// Global-memory radix-R round group: `sub_rounds` consecutive radix-2
// rounds whose smallest gap is `gap_lo`, all data for one work-item held
// "in registers" between sub-rounds.  Forward walks the group's gaps from
// the largest down, inverse from the smallest up.
// --------------------------------------------------------------------
class GlobalRoundKernel final : public xgpu::Kernel {
public:
    GlobalRoundKernel(std::span<uint64_t> data,
                      std::span<const NttTables> tables, Geometry geo,
                      std::size_t gap_lo, int sub_rounds, bool inverse,
                      const NttConfig &cfg, const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), gap_lo_(gap_lo),
          sub_rounds_(sub_rounds), inverse_(inverse), spec_(&spec),
          radix_(std::size_t{1} << sub_rounds),
          items_(geo.transforms() * (geo.n / radix_)),
          local_(std::min<std::size_t>(cfg.wg_size, items_)) {}

    xgpu::NdRange range() const override {
        return {util::div_round_up(items_, local_), local_};
    }

    void run(xgpu::WorkGroup &wg) const override {
        inverse_ ? sweep<true>(wg) : sweep<false>(wg);
    }

    KernelStats stats() const override {
        const int radix = static_cast<int>(radix_);
        const double items = static_cast<double>(items_);
        KernelStats s;
        s.name = (inverse_ ? "intt_global_r" : "ntt_fwd_global_r") +
                 std::to_string(radix);
        s.is_ntt = true;
        s.alu_ops = table1_ops_per_item(radix) * items;
        s.gmem_bytes = 16.0 * radix * items;
        s.gmem_eff = strided_gmem_eff(radix);
        s.spill_bytes = spill_bytes_per_group(radix, items, *spec_);
        s.work_items = items;
        s.wg_size = local_;
        return s;
    }

private:
    /// The direction is a template parameter so the butterfly loops carry
    /// no branch on it.
    template <bool Inverse>
    void sweep(xgpu::WorkGroup &wg) const {
        // Locals, not members: stores through the uint64_t data could alias
        // the size_t members and force a reload per butterfly.
        const std::size_t radix = radix_, items = items_, g = gap_lo_;
        const std::size_t per_transform = geo_.n / radix;
        const std::size_t first = wg.group_id() * wg.local_size();
        wg.for_each_item([&](std::size_t local) {
            const std::size_t item = first + local;
            if (item >= items) {
                return;
            }
            const std::size_t b = item / per_transform;
            const std::size_t k = item % per_transform;
            const NttTables &t = tables_[b % geo_.rns];
            uint64_t *slice = data_.data() + b * geo_.n;
            const std::size_t base = k + (k & ~(g - 1)) * (radix - 1);
            for (int s = 0; s < sub_rounds_; ++s) {
                const std::size_t stride =
                    Inverse ? std::size_t{1} << s : radix >> (s + 1);
                const std::size_t gap = g * stride;
                const int span_log = util::log2_exact(2 * gap);
                const auto *w = round_twiddles<Inverse>(t, span_log);
                for (std::size_t u = 0; u < radix; ++u) {
                    if ((u & stride) == 0) {
                        const std::size_t idx = base + u * g;
                        butterfly<Inverse>(slice + idx, gap,
                                           w[idx >> span_log], t.modulus());
                    }
                }
            }
        });
    }

    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t gap_lo_;
    int sub_rounds_;
    bool inverse_;
    const xgpu::DeviceSpec *spec_;
    std::size_t radix_, items_, local_;
};

// --------------------------------------------------------------------
// SLM kernel: each work-group owns one contiguous `block` of the
// polynomial and keeps it in shared local memory for every round with a
// gap below the block (block/2 .. 1 forward, 1 .. block/2 inverse).  The
// forward store fuses the last-round reduction; the inverse stores lazy
// [0, 2q) values for the scaling kernel.
// --------------------------------------------------------------------
class SlmKernel final : public xgpu::Kernel {
public:
    SlmKernel(std::span<uint64_t> data, std::span<const NttTables> tables,
              Geometry geo, std::size_t block, bool inverse,
              const NttConfig &cfg, const xgpu::DeviceSpec &spec)
        : data_(data), tables_(tables), geo_(geo), block_(block),
          inverse_(inverse), cfg_(cfg), spec_(&spec) {}

    xgpu::NdRange range() const override {
        const std::size_t groups = geo_.transforms() * (geo_.n / block_);
        return {groups, std::min<std::size_t>(cfg_.wg_size, block_ / 2)};
    }

    std::size_t slm_words() const override { return block_; }

    void run(xgpu::WorkGroup &wg) const override {
        inverse_ ? sweep<true>(wg) : sweep<false>(wg);
    }

    KernelStats stats() const override {
        const double elements = static_cast<double>(geo_.elements());
        const int rounds = util::log2_exact(block_);
        const NttVariant v = cfg_.variant;
        const int radix = variant_radix(v);
        const int lr = util::log2_exact(static_cast<uint64_t>(radix));

        KernelStats s;
        s.name = std::string(inverse_ ? "intt_slm_" : "ntt_fwd_slm_") +
                 variant_name(v);
        s.is_ntt = true;
        s.gmem_bytes = 16.0 * elements;  // one load + one store
        s.gmem_eff = kBlockGmemEff;
        s.slm_eff = variant_slm_eff(v);
        s.wg_size = range().local_size;

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
        if (inverse_) {
            s.alu_ops -= 2.0 * elements;  // no fused reduction
        }
        return s;
    }

private:
    template <bool Inverse>
    void sweep(xgpu::WorkGroup &wg) const {
        const std::size_t block = block_;  // a local: see GlobalRoundKernel
        const std::size_t blocks_per_transform = geo_.n / block;
        const std::size_t b = wg.group_id() / blocks_per_transform;
        const std::size_t blk = wg.group_id() % blocks_per_transform;
        const NttTables &t = tables_[b % geo_.rns];
        uint64_t *slice = data_.data() + b * geo_.n;
        const std::size_t base = blk * block;
        auto slm = wg.slm();
        for (std::size_t i = 0; i < block; ++i) {
            slm[i] = slice[base + i];
        }
        // SIMD-shuffle rounds are arithmetically identical to SLM rounds;
        // the difference is cost-model only.
        const int rounds = util::log2_exact(block);
        for (int r = 0; r < rounds; ++r) {
            const std::size_t gap =
                Inverse ? std::size_t{1} << r : block >> (r + 1);
            const int span_log = util::log2_exact(2 * gap);
            const auto *w = round_twiddles<Inverse>(t, span_log);
            for (std::size_t ind = 0; ind < block / 2; ++ind) {
                const std::size_t lidx = ind + (ind & ~(gap - 1));
                butterfly<Inverse>(&slm[lidx], gap,
                                   w[(base + lidx) >> span_log], t.modulus());
            }
        }
        for (std::size_t i = 0; i < block; ++i) {
            slice[base + i] =
                Inverse ? slm[i] : util::reduce_from_4p(slm[i], t.modulus());
        }
    }

    std::span<uint64_t> data_;
    std::span<const NttTables> tables_;
    Geometry geo_;
    std::size_t block_;
    bool inverse_;
    NttConfig cfg_;
    const xgpu::DeviceSpec *spec_;
};

struct RoundGroup {
    std::size_t gap_lo;
    int sub_rounds;
};

/// The forward transform's global-memory round groups, largest gap first:
/// the rounds with gaps n/2 .. block, in radix-2^lr groups with the
/// mixed-radix remainder leading so the rest divide evenly.  The inverse
/// runs the same groups in reverse order.
std::vector<RoundGroup> round_groups(std::size_t n, std::size_t block,
                                     int lr) {
    std::vector<RoundGroup> groups;
    int rounds = util::log2_exact(n / block);
    int sub = rounds % lr > 0 ? rounds % lr : lr;
    std::size_t gap = n >> 1;
    for (; rounds > 0; rounds -= sub, sub = lr) {
        const std::size_t gap_lo = gap >> (sub - 1);
        groups.push_back({gap_lo, sub});
        gap = gap_lo >> 1;
    }
    return groups;
}

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
    return transform(false, data, polys, tables);
}

double GpuNtt::inverse(std::span<uint64_t> data, std::size_t polys,
                       std::span<const NttTables> tables) {
    return transform(true, data, polys, tables);
}

double GpuNtt::transform(bool inverse, std::span<uint64_t> data,
                         std::size_t polys,
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
    const auto elementwise = [&](const char *name, double ops_per_element,
                                 std::function<void(std::size_t)> body) {
        KernelStats s;
        s.is_ntt = true;
        s.alu_ops = ops_per_element * static_cast<double>(geo.elements());
        s.gmem_bytes = 16.0 * static_cast<double>(geo.elements());
        submit(xgpu::ElementwiseKernel(
            name, geo.elements(), std::move(body), s,
            std::min<std::size_t>(cfg_.wg_size, geo.elements())));
    };
    const int log_n = tables[0].log_n();
    const auto table = [&](std::size_t i) -> const NttTables & {
        return tables[(i >> log_n) % geo.rns];
    };

    // Naive radix-2 is the same plan with a one-element SLM block: every
    // round runs in global memory and the reduction is a kernel of its own.
    const bool naive = cfg_.variant == NttVariant::NaiveRadix2;
    const std::size_t block = naive ? 1 : std::min(cfg_.slm_block, geo.n);
    const std::vector<RoundGroup> groups = round_groups(
        geo.n, block,
        util::log2_exact(static_cast<uint64_t>(variant_radix(cfg_.variant))));
    const auto global = [&](const RoundGroup &g) {
        submit(GlobalRoundKernel(data, tables, geo, g.gap_lo, g.sub_rounds,
                                 inverse, cfg_, spec));
    };

    if (!inverse) {
        std::for_each(groups.begin(), groups.end(), global);
        if (naive) {
            elementwise("ntt_last_round_reduce", 4.0, [&](std::size_t i) {
                data[i] = util::reduce_from_4p(data[i], table(i).modulus());
            });
        } else {
            submit(SlmKernel(data, tables, geo, block, false, cfg_, spec));
        }
        return queue_->clock_ns() - t0;
    }

    if (!naive) {
        submit(SlmKernel(data, tables, geo, block, true, cfg_, spec));
    }
    std::for_each(groups.rbegin(), groups.rend(), global);
    // Multiply by N^{-1} and reduce to [0, q).
    elementwise("intt_scale_n_inv",
                xgpu::core_op_cost(xgpu::CoreOp::MulMod,
                                   xgpu::IsaMode::Compiler) +
                    2.0,
                [&](std::size_t i) {
                    const NttTables &t = table(i);
                    const uint64_t two_q = 2 * t.modulus().value();
                    const uint64_t v = data[i] >= two_q ? data[i] - two_q
                                                        : data[i];
                    data[i] = util::mul_mod(v, t.inv_degree(), t.modulus());
                });
    return queue_->clock_ns() - t0;
}

}  // namespace xehe::ntt
