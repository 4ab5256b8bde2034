// Per-tile evaluator lanes on top of the multi-queue scheduler: many
// concurrent user sessions, each owning private ciphertexts, are
// round-robined across the per-tile queues of one device.
//
// Every session is pinned to one lane (queue + GpuContext + GpuEvaluator),
// so the session's operation chain runs in-order on that lane while
// different sessions' kernel graphs overlap across tiles — the paper's
// asynchronous multi-queue execution (Fig. 2, Section III-D) applied to a
// multi-tenant workload.  serve::InferenceServer serves requests on these
// lanes; the encrypted matmul round-robins its output tiles over them.
#pragma once

#include "xehe/gpu_evaluator.h"
#include "xgpu/scheduler.h"

namespace xehe::core {

/// Per-tile GpuContext/GpuEvaluator lanes over one shared Scheduler.
class GpuEvaluatorPool {
public:
    /// `queue_count` = 0 creates one lane per tile of `spec`.  `pool`
    /// (nullptr = the process-global ThreadPool) pins this pool's
    /// simulated kernel execution to a private host thread pool;
    /// ThreadPool::parallel_for is single-caller, so pools that run on
    /// concurrent host threads (one per serving shard) must not share
    /// one.  Throws he::BackendUnavailable when "gpu" is switched off.
    GpuEvaluatorPool(const ckks::CkksContext &host, xgpu::DeviceSpec spec,
                     GpuOptions options = {}, int queue_count = 0,
                     xgpu::ThreadPool *pool = nullptr);

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    xgpu::Scheduler &scheduler() noexcept { return scheduler_; }

    /// Lane a session is pinned to (round-robin).  Every operation of one
    /// session runs in-order on that lane's queue, so same-ciphertext
    /// chains never reorder; distinct sessions overlap across lanes.
    std::size_t lane_of(std::size_t session) const noexcept {
        return session % lanes_.size();
    }

    GpuContext &context(std::size_t lane) { return *lanes_[lane].context; }
    GpuEvaluator &evaluator(std::size_t lane) {
        return *lanes_[lane].evaluator;
    }

    void set_functional(bool functional) {
        scheduler_.set_functional(functional);
    }
    void wait_all() { scheduler_.wait_all(); }
    double makespan_ns() const noexcept { return scheduler_.makespan_ns(); }
    double busy_ns() const noexcept { return scheduler_.busy_ns(); }
    xgpu::Profiler aggregate_profiler() const {
        return scheduler_.aggregate_profiler();
    }

private:
    struct Lane {
        std::unique_ptr<GpuContext> context;
        std::unique_ptr<GpuEvaluator> evaluator;
    };

    xgpu::Scheduler scheduler_;
    std::vector<Lane> lanes_;
};

}  // namespace xehe::core
