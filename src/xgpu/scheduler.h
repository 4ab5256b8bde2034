// Event-based multi-queue scheduler: one in-order Queue per tile of a
// DeviceSpec, sharing a common simulated epoch.
//
// This is the execution model behind the paper's multi-tile results
// (Figs. 16-18): independent kernel graphs are submitted to different
// per-tile queues and overlap on the simulated timeline, while chains that
// touch the same ciphertext stay on one in-order queue (or are linked
// across queues with Events) and therefore never reorder.  The makespan of
// a workload is the maximum queue clock; the serialized time is the sum —
// their ratio is the multi-tile speedup a batch workload achieves.
//
// Every per-tile queue is costed with ExecConfig::tiles = 1: a queue
// drives exactly one tile, and scaling comes from overlap across queues
// rather than from the cost model's single-submission tile_scale (which
// models the paper's *implicit* dual-tile submission, Fig. 14b).  Kernel
// time is therefore a deterministic function of the kernel alone, which
// makes the aggregated profiler invariant under the queue count — the
// property test_scheduler.cpp pins down.
#pragma once

#include <vector>

#include "xgpu/queue.h"

namespace xehe::xgpu {

class Scheduler {
public:
    /// Creates `queue_count` per-tile queues (0 = one per tile of `spec`;
    /// values above the tile count are clamped — there is no contention
    /// model, so an oversubscribed queue would be a phantom tile).
    /// `cfg.tiles` is ignored: each queue drives one tile (see above).
    explicit Scheduler(DeviceSpec spec, ExecConfig cfg = {},
                       int queue_count = 0,
                       ThreadPool *pool = &ThreadPool::global());

    std::size_t queue_count() const noexcept { return queues_.size(); }
    Queue &queue(std::size_t i) { return *queues_[i]; }
    const Queue &queue(std::size_t i) const { return *queues_[i]; }
    const DeviceSpec &spec() const noexcept { return queues_[0]->spec(); }

    /// Index of the queue whose timeline head is earliest — the natural
    /// target for the next independent kernel graph.
    std::size_t least_loaded() const noexcept;

    /// Submits to an explicit queue after the given dependencies.
    Event submit(std::size_t queue_index, const Kernel &kernel,
                 std::span<const Event> deps = {}) {
        return queues_[queue_index]->submit(kernel, deps);
    }

    /// Submits to the least-loaded queue after the given dependencies.
    Event submit(const Kernel &kernel, std::span<const Event> deps = {}) {
        return submit(least_loaded(), kernel, deps);
    }

    /// Host-side join of every queue: all clocks advance to the makespan,
    /// then one blocking host synchronization is charged (the single
    /// Decrypt-side block of Fig. 2, regardless of queue count).
    void wait_all();

    /// Longest queue timeline — the simulated elapsed time of the
    /// multi-queue workload.
    double makespan_ns() const noexcept;

    /// Sum of queue timelines — the serialized (single-queue-equivalent)
    /// simulated time of the same kernels.
    double busy_ns() const noexcept;

    /// Merged view of every per-queue profiler.  The total and the
    /// NTT / non-NTT split are invariant under the queue count.
    Profiler aggregate_profiler() const;

    void reset_clocks() noexcept;
    void set_functional(bool functional);

private:
    // unique_ptr: Queue is not movable (owns a MemoryCache tied to a spec)
    // and the queues' addresses are baked into Events.
    std::vector<std::unique_ptr<Queue>> queues_;
};

}  // namespace xehe::xgpu
