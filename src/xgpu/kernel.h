// Kernel abstraction of the simulated SYCL runtime.
//
// A kernel declares a 1-D flattened nd_range (work-groups x local size), an
// optional SLM requirement, a functional body executed per work-group, and
// a KernelStats record for the cost model.  The work-group body receives a
// WorkGroup context; calling for_each_item twice in sequence has implicit
// barrier semantics between the two phases (all items of phase k complete
// before phase k+1 starts), which is exactly how the staged NTT kernels
// synchronize through SLM.
//
// Sub-group shuffles are functional no-ops on the host (register files are
// modelled as plain arrays); their hardware cost is carried by
// KernelStats::shuffle_ops.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "xgpu/costmodel.h"

namespace xehe::xgpu {

/// 1-D flattened launch geometry.
struct NdRange {
    std::size_t work_groups = 0;
    std::size_t local_size = 0;
};

/// Per-work-group execution context: group id, local size, and an SLM
/// scratch area private to the group.
class WorkGroup {
public:
    WorkGroup(std::size_t group_id, std::size_t local_size,
              std::size_t slm_words)
        : group_id_(group_id), local_size_(local_size), slm_(slm_words, 0) {}

    std::size_t group_id() const noexcept { return group_id_; }
    std::size_t local_size() const noexcept { return local_size_; }

    std::span<uint64_t> slm() noexcept { return {slm_.data(), slm_.size()}; }

    /// Runs fn(local_id) for every item in the group.  Successive calls are
    /// separated by an implicit work-group barrier.
    template <typename F>
    void for_each_item(F &&fn) {
        for (std::size_t local = 0; local < local_size_; ++local) {
            fn(local);
        }
    }

private:
    std::size_t group_id_;
    std::size_t local_size_;
    std::vector<uint64_t> slm_;
};

/// Base class for simulated GPU kernels.
class Kernel {
public:
    virtual ~Kernel() = default;

    virtual NdRange range() const = 0;
    virtual std::size_t slm_words() const { return 0; }

    /// Functional body, executed once per work-group.
    virtual void run(WorkGroup &wg) const = 0;

    /// Work description for the cost model.
    virtual KernelStats stats() const = 0;

    /// Constituent ops of a fused launch, each as the unfused pipeline
    /// would have reported it.  Non-empty means the profiler attributes
    /// this launch's time to these entries (preserving the kernel-name
    /// multiset across fusion) instead of to stats().name.  Empty for
    /// ordinary kernels.
    virtual std::span<const KernelStats> constituents() const { return {}; }
};

/// View of a batched kernel as `slices` homogeneous sub-launches: the
/// profiler records one entry per slice (an even split of the work), so
/// per-name launch counts are invariant under how many slices one physical
/// launch covers — the same attribution contract fused dyadic kernels
/// follow.  Used by the batched NTT dispatcher, whose nd-range covers
/// every (poly, rns) transform of a call.
class SlicedKernel final : public Kernel {
public:
    SlicedKernel(const Kernel &inner, std::size_t slices) : inner_(&inner) {
        KernelStats per = inner.stats();
        const double s = static_cast<double>(slices > 0 ? slices : 1);
        per.alu_ops /= s;
        per.gmem_bytes /= s;
        per.slm_bytes /= s;
        per.shuffle_ops /= s;
        per.spill_bytes /= s;
        per.work_items /= s;
        constituents_.assign(slices > 0 ? slices : 1, per);
    }

    NdRange range() const override { return inner_->range(); }
    std::size_t slm_words() const override { return inner_->slm_words(); }
    void run(WorkGroup &wg) const override { inner_->run(wg); }
    KernelStats stats() const override { return inner_->stats(); }
    std::span<const KernelStats> constituents() const override {
        return {constituents_.data(), constituents_.size()};
    }

private:
    const Kernel *inner_;
    std::vector<KernelStats> constituents_;
};

/// A generic elementwise kernel over `count` indices: the workhorse for the
/// dyadic ciphertext operations (add, multiply, mad_mod, ...).
class ElementwiseKernel final : public Kernel {
public:
    ElementwiseKernel(std::string name, std::size_t count,
                      std::function<void(std::size_t)> body, KernelStats stats,
                      std::size_t wg_size = 256)
        : name_(std::move(name)), count_(count), body_(std::move(body)),
          stats_(std::move(stats)), wg_size_(wg_size) {
        stats_.name = name_;
        stats_.work_items = static_cast<double>(count_);
        stats_.wg_size = wg_size_;
    }

    NdRange range() const override {
        return {util::div_round_up(count_, wg_size_), wg_size_};
    }

    void run(WorkGroup &wg) const override {
        const std::size_t base = wg.group_id() * wg_size_;
        wg.for_each_item([&](std::size_t local) {
            const std::size_t i = base + local;
            if (i < count_) {
                body_(i);
            }
        });
    }

    KernelStats stats() const override { return stats_; }

private:
    std::string name_;
    std::size_t count_;
    std::function<void(std::size_t)> body_;
    KernelStats stats_;
    std::size_t wg_size_;
};

}  // namespace xehe::xgpu
