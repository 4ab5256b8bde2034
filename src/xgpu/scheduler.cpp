#include "xgpu/scheduler.h"

#include <algorithm>

namespace xehe::xgpu {

Scheduler::Scheduler(DeviceSpec spec, ExecConfig cfg, int queue_count,
                     ThreadPool *pool) {
    int count = queue_count > 0 ? queue_count : spec.tiles;
    // Clamp to the physical tile count: the simulator has no contention
    // model, so an oversubscribed queue would be costed as a phantom
    // full-speed tile and fabricate impossible speedups.
    count = std::clamp(count, 1, std::max(1, spec.tiles));
    // One queue per tile: each queue's cost model sees a single tile.
    ExecConfig per_tile = cfg;
    per_tile.tiles = 1;
    queues_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        queues_.push_back(std::make_unique<Queue>(spec, per_tile, pool));
    }
}

std::size_t Scheduler::least_loaded() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < queues_.size(); ++i) {
        if (queues_[i]->clock_ns() < queues_[best]->clock_ns()) {
            best = i;
        }
    }
    return best;
}

void Scheduler::wait_all() {
    // Join through events: every queue observes the completion marker of
    // every other queue, then the host blocks once.
    const double join = makespan_ns() + spec().host_sync_overhead_ns;
    for (auto &q : queues_) {
        q->advance_to(join);
    }
}

double Scheduler::makespan_ns() const noexcept {
    double makespan = 0.0;
    for (const auto &q : queues_) {
        makespan = std::max(makespan, q->clock_ns());
    }
    return makespan;
}

double Scheduler::busy_ns() const noexcept {
    double busy = 0.0;
    for (const auto &q : queues_) {
        busy += q->clock_ns();
    }
    return busy;
}

Profiler Scheduler::aggregate_profiler() const {
    Profiler merged;
    for (const auto &q : queues_) {
        merged.merge(q->profiler());
    }
    return merged;
}

void Scheduler::reset_clocks() noexcept {
    for (auto &q : queues_) {
        q->reset_clock();
    }
}

void Scheduler::set_functional(bool functional) {
    for (auto &q : queues_) {
        q->set_functional(functional);
    }
}

}  // namespace xehe::xgpu
