// Batched serving layer on top of the multi-queue scheduler: many
// concurrent user sessions, each owning private ciphertexts, are
// round-robined across the per-tile queues of one device.
//
// Every session is pinned to one lane (queue + GpuContext + GpuEvaluator),
// so the session's operation chain runs in-order on that lane while
// different sessions' kernel graphs overlap across tiles — the paper's
// asynchronous multi-queue execution (Fig. 2, Section III-D) applied to a
// multi-tenant workload.  The workload mixes the five Section IV-C
// routines with matmul-tile accumulation ops (Section IV-E).
#pragma once

#include "xehe/routines.h"
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
    GpuContext &session_context(std::size_t session) {
        return context(lane_of(session));
    }
    GpuEvaluator &session_evaluator(std::size_t session) {
        return evaluator(lane_of(session));
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

/// A multi-tenant batch: `sessions` concurrent users, each running
/// `rounds` rounds of the five Section IV-C routines plus `matmul_tiles`
/// matmul-tile accumulations on private inputs.
struct BatchWorkload {
    std::size_t sessions = 8;
    std::size_t rounds = 1;
    std::size_t matmul_tiles = 1;
    /// Encrypt real inputs and execute kernels functionally; when false,
    /// inputs are fabricated and kernels are cost-only (the paper's
    /// N = 32K operating point).
    bool functional = false;
    uint64_t seed = 99;
};

struct BatchReport {
    std::size_t sessions = 0;
    std::size_t queues = 0;
    std::size_t ops = 0;          ///< routines + matmul tiles executed
    double makespan_ms = 0.0;     ///< simulated elapsed (max queue clock)
    double busy_ms = 0.0;         ///< summed queue clocks
    double kernel_ms = 0.0;       ///< aggregated profiler total
    double ntt_ms = 0.0;          ///< aggregated profiler NTT share

    /// Simulated served operations per second — the serving metric the
    /// multi-tile speedup is measured on.
    double throughput_ops_per_s() const noexcept {
        return makespan_ms > 0.0 ? static_cast<double>(ops) /
                                       (makespan_ms * 1e-3)
                                 : 0.0;
    }
    /// Fraction of the queues' combined timeline that is busy.
    double parallel_efficiency() const noexcept {
        return makespan_ms > 0.0 && queues > 0
                   ? busy_ms / (makespan_ms * static_cast<double>(queues))
                   : 0.0;
    }
};

/// Runs the batch through a GpuEvaluatorPool with `queue_count` lanes
/// (0 = one per tile) and reports aggregate timing.  The aggregated
/// profiler totals are invariant under `queue_count`; the makespan is not
/// — that difference is the multi-tile speedup.
BatchReport run_batch_serving(const ckks::CkksContext &host,
                              xgpu::DeviceSpec device, GpuOptions options,
                              const BatchWorkload &workload,
                              int queue_count = 0);

}  // namespace xehe::core
