// The event-based multi-queue scheduler: per-tile queue creation,
// cross-queue event ordering (dependent kernels never reorder, waits are
// deterministic), profiler aggregation invariance under the queue count,
// the evaluator pool's session-to-lane pinning, and the multi-queue
// encrypted matmul.
#include <gtest/gtest.h>

#include "xehe/evaluator_pool.h"
#include "xehe/matmul.h"
#include "xgpu/scheduler.h"

namespace xc = xehe::core;
namespace xg = xehe::xgpu;

namespace {

xg::KernelStats make_stats(const char *name, double alu_ops,
                           bool is_ntt = false) {
    xg::KernelStats s;
    s.name = name;
    s.is_ntt = is_ntt;
    s.alu_ops = alu_ops;
    s.work_items = 4096;
    return s;
}

xg::ElementwiseKernel make_kernel(const char *name, double alu_ops,
                                  bool is_ntt = false) {
    return xg::ElementwiseKernel(name, 0, [](std::size_t) {},
                                 make_stats(name, alu_ops, is_ntt));
}

const xehe::ckks::CkksContext &small_host() {
    static const xehe::ckks::CkksContext ctx(
        xehe::ckks::EncryptionParameters::create(4096, 2));
    return ctx;
}

}  // namespace

TEST(Scheduler, OneQueuePerTileByDefault) {
    xg::Scheduler dual(xg::device1());
    EXPECT_EQ(dual.queue_count(), 2u);
    xg::Scheduler single(xg::device2());
    EXPECT_EQ(single.queue_count(), 1u);
    // Oversubscription is clamped: there is no contention model, so more
    // queues than tiles would be costed as phantom full-speed tiles.
    xg::Scheduler forced(xg::device1(), {}, 4);
    EXPECT_EQ(forced.queue_count(), 2u);
    xg::Scheduler fewer(xg::device1(), {}, 1);
    EXPECT_EQ(fewer.queue_count(), 1u);
    for (std::size_t i = 0; i < forced.queue_count(); ++i) {
        // Every queue drives exactly one tile; overlap across queues is
        // the only multi-tile scaling mechanism.
        EXPECT_EQ(forced.queue(i).config().tiles, 1);
    }
}

TEST(Event, DefaultIsAlwaysReady) {
    xg::Event ev;
    EXPECT_FALSE(ev.valid());
    xg::Scheduler sched(xg::device1());
    sched.queue(0).wait_for(ev);
    EXPECT_DOUBLE_EQ(sched.queue(0).clock_ns(), 0.0);
}

TEST(Event, SameQueueDependencyIsFree) {
    xg::Scheduler sched(xg::device1());
    auto k = make_kernel("k", 1e6);
    const xg::Event first = sched.submit(0, k);
    const double after_first = sched.queue(0).clock_ns();
    EXPECT_DOUBLE_EQ(first.ready_ns, after_first);
    // The queue is in-order: depending on an earlier same-queue event
    // must not charge anything.
    const xg::Event deps[] = {first};
    sched.submit(0, k, deps);
    EXPECT_DOUBLE_EQ(sched.queue(0).clock_ns(), 2.0 * after_first);
}

TEST(Event, CrossQueueDependencyNeverReorders) {
    xg::Scheduler sched(xg::device1());
    const double sync = sched.spec().cross_queue_sync_ns;
    auto producer = make_kernel("producer", 1e8);
    auto consumer = make_kernel("consumer", 1e6);

    const xg::Event produced = sched.submit(0, producer);
    EXPECT_GT(produced.ready_ns, 0.0);
    EXPECT_DOUBLE_EQ(sched.queue(1).clock_ns(), 0.0);

    // Consumer duration on an idle queue, measured on a fresh scheduler.
    xg::Scheduler probe(xg::device1());
    probe.submit(1, consumer);
    const double t_consumer = probe.queue(1).clock_ns();

    const xg::Event deps[] = {produced};
    const xg::Event consumed = sched.submit(1, consumer, deps);
    // The consumer starts only after the producer's completion event has
    // propagated: start = produced.ready + sync >= producer finish.
    EXPECT_DOUBLE_EQ(sched.queue(1).clock_ns(),
                     produced.ready_ns + sync + t_consumer);
    EXPECT_GE(consumed.ready_ns - t_consumer, produced.ready_ns);
}

TEST(Event, CrossQueueWaitOnlyChargesWhenStalling) {
    xg::Scheduler sched(xg::device1());
    auto big = make_kernel("big", 1e9);
    auto small = make_kernel("small", 1e5);
    const xg::Event early = sched.submit(0, small);
    sched.submit(1, big);
    const double q1_before = sched.queue(1).clock_ns();
    ASSERT_GT(q1_before, early.ready_ns);
    // The dependency completed long ago: no stall, no charge.
    sched.queue(1).wait_for(early);
    EXPECT_DOUBLE_EQ(sched.queue(1).clock_ns(), q1_before);
}

TEST(Scheduler, TimelineIsDeterministic) {
    auto run_pattern = [] {
        xg::Scheduler sched(xg::device1());
        auto a = make_kernel("a", 3e7);
        auto b = make_kernel("b", 7e7, true);
        xg::Event last;
        for (int i = 0; i < 8; ++i) {
            const std::size_t q = sched.least_loaded();
            const xg::Event deps[] = {last};
            last = sched.submit(q, i % 2 == 0 ? a : b,
                                i % 3 == 0 ? std::span<const xg::Event>(deps)
                                           : std::span<const xg::Event>());
        }
        sched.wait_all();
        return std::pair{sched.makespan_ns(),
                         sched.aggregate_profiler().total_ns()};
    };
    const auto first = run_pattern();
    const auto second = run_pattern();
    EXPECT_DOUBLE_EQ(first.first, second.first);
    EXPECT_DOUBLE_EQ(first.second, second.second);
}

TEST(Scheduler, ProfilerInvariantUnderQueueCount) {
    // The same workload distributed over 1, 2 and 3 queues must produce
    // identical aggregate profiler totals and NTT split — kernel time is
    // a function of the kernel, not of the queue it ran on.
    auto run = [](int queues) {
        xg::DeviceSpec spec = xg::device1();
        spec.tiles = 4;  // room for the 3-queue point of the sweep
        xg::Scheduler sched(spec, {}, queues);
        auto ntt = make_kernel("ntt_kernel", 5e7, true);
        auto mul = make_kernel("dyadic_mul", 2e7);
        for (int i = 0; i < 12; ++i) {
            sched.submit(static_cast<std::size_t>(i) % sched.queue_count(),
                         i % 3 == 0 ? ntt : mul);
        }
        return sched.aggregate_profiler();
    };
    const xg::Profiler base = run(1);
    for (int queues : {2, 3}) {
        const xg::Profiler p = run(queues);
        EXPECT_DOUBLE_EQ(p.total_ns(), base.total_ns()) << queues;
        EXPECT_DOUBLE_EQ(p.ntt_ns(), base.ntt_ns()) << queues;
        EXPECT_DOUBLE_EQ(p.total_alu_ops(), base.total_alu_ops()) << queues;
        EXPECT_EQ(p.launches(), base.launches()) << queues;
        ASSERT_EQ(p.entries().size(), base.entries().size());
        for (const auto &[name, e] : base.entries()) {
            const auto &other = p.entries().at(name);
            EXPECT_EQ(other.launches, e.launches) << name;
            EXPECT_DOUBLE_EQ(other.time_ns, e.time_ns) << name;
        }
    }
}

TEST(Scheduler, IndependentWorkOverlaps) {
    // Identical independent kernels over 2 queues: makespan is half the
    // serialized time; wait_all aligns every queue past the join.
    xg::Scheduler sched(xg::device1());
    auto k = make_kernel("k", 5e7);
    for (int i = 0; i < 8; ++i) {
        sched.submit(sched.least_loaded(), k);
    }
    const double busy = sched.busy_ns();
    const double makespan = sched.makespan_ns();
    EXPECT_NEAR(makespan, busy / 2.0, 1e-6 * busy);
    sched.wait_all();
    const double joined = makespan + sched.spec().host_sync_overhead_ns;
    for (std::size_t q = 0; q < sched.queue_count(); ++q) {
        EXPECT_DOUBLE_EQ(sched.queue(q).clock_ns(), joined);
    }
}

TEST(Event, WaitingTwiceChargesTheStallOnce) {
    // Re-waiting an already-honored event must be free: the first wait
    // advanced this queue past the event, so the second one never stalls.
    xg::Scheduler sched(xg::device1());
    auto producer = make_kernel("producer", 1e8);
    const xg::Event produced = sched.submit(0, producer);
    sched.queue(1).wait_for(produced);
    const double after_first = sched.queue(1).clock_ns();
    EXPECT_DOUBLE_EQ(after_first,
                     produced.ready_ns + sched.spec().cross_queue_sync_ns);
    sched.queue(1).wait_for(produced);
    EXPECT_DOUBLE_EQ(sched.queue(1).clock_ns(), after_first);
}

TEST(Event, WaitBeforeAnyRecordIsFree) {
    // An event recorded at a queue's initial timeline head (nothing
    // submitted yet) is ready at t=0: waiting on it from anywhere must
    // not stall or charge the sync overhead.
    xg::Scheduler sched(xg::device1());
    const xg::Event head = sched.queue(0).record_event();
    EXPECT_TRUE(head.valid());
    EXPECT_DOUBLE_EQ(head.ready_ns, 0.0);
    sched.queue(1).wait_for(head);
    EXPECT_DOUBLE_EQ(sched.queue(1).clock_ns(), 0.0);
    // Same-queue self-wait is free as well (the queue is in-order).
    sched.queue(0).wait_for(head);
    EXPECT_DOUBLE_EQ(sched.queue(0).clock_ns(), 0.0);
}

TEST(Scheduler, SingleTileDeviceCollapsesToOneQueue) {
    xg::DeviceSpec spec = xg::device1();
    spec.tiles = 1;
    // Any requested queue count clamps to the single physical tile.
    xg::Scheduler sched(spec, {}, 4);
    ASSERT_EQ(sched.queue_count(), 1u);
    EXPECT_EQ(sched.least_loaded(), 0u);
    auto k = make_kernel("k", 5e7);
    for (int i = 0; i < 4; ++i) {
        sched.submit(sched.least_loaded(), k);
    }
    // One queue: no overlap, makespan equals the serialized time.
    EXPECT_DOUBLE_EQ(sched.makespan_ns(), sched.busy_ns());
    const double before = sched.makespan_ns();
    sched.wait_all();
    EXPECT_DOUBLE_EQ(sched.queue(0).clock_ns(),
                     before + sched.spec().host_sync_overhead_ns);
}

TEST(EvaluatorPool, MoreSessionsThanLanesWrapAround) {
    xc::GpuEvaluatorPool pool(small_host(), xg::device1());
    ASSERT_EQ(pool.lane_count(), 2u);
    EXPECT_EQ(pool.lane_of(4), 0u);
    EXPECT_EQ(pool.lane_of(5), 1u);
    EXPECT_EQ(&pool.evaluator(pool.lane_of(5)),
              &pool.evaluator(pool.lane_of(1)));
}

TEST(EvaluatorPool, LanePinningRoundRobin) {
    xc::GpuEvaluatorPool pool(small_host(), xg::device1());
    ASSERT_EQ(pool.lane_count(), 2u);
    EXPECT_EQ(pool.lane_of(0), 0u);
    EXPECT_EQ(pool.lane_of(1), 1u);
    EXPECT_EQ(pool.lane_of(2), 0u);
    EXPECT_EQ(&pool.context(pool.lane_of(0)),
              &pool.context(pool.lane_of(2)));
    EXPECT_NE(&pool.context(pool.lane_of(0)),
              &pool.context(pool.lane_of(1)));
    // Every lane's context is bound to the scheduler's queue.
    EXPECT_EQ(&pool.context(0).queue(), &pool.scheduler().queue(0));
    EXPECT_EQ(&pool.context(1).queue(), &pool.scheduler().queue(1));
}

TEST(MatmulMultiQueue, BitExactAndFaster) {
    xc::MatmulConfig config;
    config.m = 2;
    config.n = 2;
    config.k = 2;
    config.poly_degree = 4096;
    config.levels = 2;
    config.device = xg::device1();
    config.functional = true;
    config.verify_samples = 2;

    config.queues = 1;
    const auto single = xc::run_encrypted_matmul(config);
    config.queues = 0;  // one per tile
    const auto dual = xc::run_encrypted_matmul(config);

    EXPECT_EQ(single.queues, 1u);
    EXPECT_EQ(dual.queues, 2u);
    // Multi-queue scheduling must not change the arithmetic.
    EXPECT_LT(single.max_error, 1e-2);
    EXPECT_LT(dual.max_error, 1e-2);
    // Overlapped output tiles beat the single queue on the timeline, and
    // the kernel work itself is identical.
    EXPECT_LT(dual.sim_total_ms, single.sim_total_ms);
    EXPECT_NEAR(dual.sim_kernel_ms, single.sim_kernel_ms,
                1e-9 * single.sim_kernel_ms);
}
