// In-order command queue with a simulated device timeline, matching the
// paper's asynchronous execution scheme (Fig. 2): kernels are submitted
// without host synchronization; the host blocks only when results are
// downloaded (Decrypt).  A Profiler records per-kernel-class simulated time
// and the NTT / non-NTT split used by Figures 5, 16 and 18.
//
// Multi-queue execution (Section III-D / Figs. 16-18): every Queue keeps
// its own timeline but all queues of one device share a common epoch, so an
// Event recorded on one queue can be waited on from another.  Ordering
// rules match a SYCL in-order queue per tile: submissions to the same
// queue never reorder; cross-queue dependencies are expressed explicitly
// through events and advance the waiting queue's clock to the event's
// completion time (plus a cross-queue synchronization overhead when the
// wait actually stalls).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "xgpu/buffer.h"
#include "xgpu/kernel.h"
#include "xgpu/threadpool.h"

namespace xehe::xgpu {

class Queue;

/// Completion marker on a queue's simulated timeline.  Recorded on submit
/// (or explicitly via Queue::record_event) and waitable from any queue of
/// the same device.  A default-constructed event is "always ready".
struct Event {
    double ready_ns = 0.0;        ///< simulated completion time
    const Queue *source = nullptr;

    bool valid() const noexcept { return source != nullptr; }
};

/// Accumulates simulated time per kernel class.
class Profiler {
public:
    struct Entry {
        std::size_t launches = 0;
        double time_ns = 0.0;
        double alu_ops = 0.0;
        bool is_ntt = false;
    };

    /// Point-in-time copy of the aggregate counters.  Windowed
    /// measurements (bench routines, serving stats) take a snapshot
    /// before the work and call delta_since() after — reading the raw
    /// accumulators twice and subtracting by hand double-counts as soon
    /// as anything else shares the queue.
    struct Snapshot {
        double total_ns = 0.0;
        double ntt_ns = 0.0;
        double total_alu_ops = 0.0;
        std::size_t launches = 0;
        std::size_t submissions = 0;

        double other_ns() const noexcept { return total_ns - ntt_ns; }
        double ntt_fraction() const noexcept {
            return total_ns > 0.0 ? ntt_ns / total_ns : 0.0;
        }
    };

    void record(const KernelStats &stats, double time_ns) {
        Entry &e = entries_[stats.name];
        ++e.launches;
        e.time_ns += time_ns;
        e.alu_ops += stats.alu_ops;
        e.is_ntt = stats.is_ntt;
        total_ns_ += time_ns;
        total_alu_ops_ += stats.alu_ops;
        if (stats.is_ntt) {
            ntt_ns_ += time_ns;
        }
    }

    double total_ns() const noexcept { return total_ns_; }
    double total_alu_ops() const noexcept { return total_alu_ops_; }
    double ntt_ns() const noexcept { return ntt_ns_; }
    double other_ns() const noexcept { return total_ns_ - ntt_ns_; }
    double ntt_fraction() const noexcept {
        return total_ns_ > 0.0 ? ntt_ns_ / total_ns_ : 0.0;
    }

    const std::map<std::string, Entry> &entries() const noexcept {
        return entries_;
    }

    /// Folds another profiler's history into this one — the aggregation a
    /// multi-queue scheduler performs.  Kernel time is a deterministic
    /// function of the kernel's stats, so the aggregate over a workload is
    /// invariant under how the kernels were distributed across queues.
    void merge(const Profiler &other) {
        for (const auto &[name, e] : other.entries_) {
            Entry &mine = entries_[name];
            mine.launches += e.launches;
            mine.time_ns += e.time_ns;
            mine.alu_ops += e.alu_ops;
            mine.is_ntt = e.is_ntt;
        }
        total_ns_ += other.total_ns_;
        total_alu_ops_ += other.total_alu_ops_;
        ntt_ns_ += other.ntt_ns_;
        submissions_ += other.submissions_;
    }

    /// Total kernel launches across every kernel class.  A fused launch
    /// counts once per constituent op, so this is invariant under fusion;
    /// submissions() counts physical launches.
    std::size_t launches() const noexcept {
        std::size_t count = 0;
        for (const auto &[name, e] : entries_) {
            count += e.launches;
        }
        return count;
    }

    /// Physical kernel submissions (launch overheads paid).  Fusion lowers
    /// this below launches(); without fusion the two are equal.
    std::size_t submissions() const noexcept { return submissions_; }
    void count_submission() noexcept { ++submissions_; }

    Snapshot snapshot() const noexcept {
        return Snapshot{total_ns_, ntt_ns_, total_alu_ops_, launches(),
                        submissions_};
    }

    /// What accumulated after `since` was taken (the profiler only grows,
    /// so plain subtraction is exact).
    Snapshot delta_since(const Snapshot &since) const noexcept {
        const Snapshot now = snapshot();
        return Snapshot{now.total_ns - since.total_ns,
                        now.ntt_ns - since.ntt_ns,
                        now.total_alu_ops - since.total_alu_ops,
                        now.launches - since.launches,
                        now.submissions - since.submissions};
    }

    void reset() {
        entries_.clear();
        total_ns_ = 0.0;
        total_alu_ops_ = 0.0;
        ntt_ns_ = 0.0;
        submissions_ = 0;
    }

private:
    std::map<std::string, Entry> entries_;
    double total_ns_ = 0.0;
    double total_alu_ops_ = 0.0;
    double ntt_ns_ = 0.0;
    std::size_t submissions_ = 0;
};

class Queue {
public:
    /// `cfg.tiles > 1` models the paper's explicit multi-queue submission to
    /// a multi-tile device.
    explicit Queue(DeviceSpec spec, ExecConfig cfg = {},
                   ThreadPool *pool = &ThreadPool::global())
        : model_(std::move(spec)), cfg_(cfg), pool_(pool),
          cache_(model_.spec()) {}

    const DeviceSpec &spec() const noexcept { return model_.spec(); }
    const CostModel &cost_model() const noexcept { return model_; }
    ExecConfig &config() noexcept { return cfg_; }
    const ExecConfig &config() const noexcept { return cfg_; }
    MemoryCache &cache() noexcept { return cache_; }
    Profiler &profiler() noexcept { return profiler_; }
    const Profiler &profiler() const noexcept { return profiler_; }

    /// When false, kernels are only costed, not executed (used by the big
    /// parameter sweeps in bench/ and cost-only serving), and the memory
    /// cache hands out size-only buffers: they carry no payload, since no
    /// kernel reads them.  Going back to functional throws
    /// std::invalid_argument while such a buffer is still live.
    void set_functional(bool functional) {
        cache_.set_size_only(!functional);
        functional_ = functional;
    }
    bool functional() const noexcept { return functional_; }

    /// Submits a kernel; returns its simulated duration in ns and advances
    /// the device clock.  Non-blocking on the host.
    double submit(const Kernel &kernel);

    /// Dependency-aware submission: the kernel starts no earlier than every
    /// event in `deps` (cross-queue waits charge cross_queue_sync_ns when
    /// they stall this queue; same-queue deps are free — the queue is
    /// in-order).  Returns the kernel's completion event.
    Event submit(const Kernel &kernel, std::span<const Event> deps);

    /// Event at the current head of this queue's timeline: everything
    /// submitted so far completes no later than this event.
    Event record_event() const noexcept { return Event{clock_ns_, this}; }

    /// Makes all later submissions on this queue start no earlier than
    /// `ev`.  Timeline-only: nothing is recorded in the profiler.  Waiting
    /// on an event from another queue that is still in the future stalls
    /// this queue until the event is ready and charges the cross-queue
    /// synchronization overhead.
    void wait_for(const Event &ev);

    /// Blocking host synchronization (charges host_sync_overhead).
    void wait();

    /// Simulated host->device or device->host transfer of `bytes`.
    double transfer(std::size_t bytes);

    /// Device clock (ns since last reset).
    double clock_ns() const noexcept { return clock_ns_; }
    void reset_clock() noexcept { clock_ns_ = 0.0; }

    /// Advances the clock to at least `t` (no overhead; used by the
    /// scheduler to join queues on a common timeline point).
    void advance_to(double t) noexcept { clock_ns_ = std::max(clock_ns_, t); }

    /// Charges the memory cache's accumulated allocation time since the
    /// last call onto the timeline (allocation happens on the critical path
    /// of the HE pipeline when the cache misses).
    void charge_alloc_time();

    /// Perfetto track (tid) this queue's kernel spans land on; allocated
    /// lazily so untraced runs never touch the obs layer.
    uint32_t obs_track();

private:
    CostModel model_;
    ExecConfig cfg_;
    ThreadPool *pool_;
    MemoryCache cache_;
    Profiler profiler_;
    bool functional_ = true;
    double clock_ns_ = 0.0;
    double charged_alloc_ns_ = 0.0;
    uint32_t obs_track_ = 0;
};

}  // namespace xehe::xgpu
