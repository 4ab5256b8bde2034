// Tests for the Intel-GPU simulator substrate: thread pool, memory cache,
// cost model properties, queue timeline and profiler.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "ntt/ntt_gpu.h"
#include "xgpu/queue.h"

namespace xg = xehe::xgpu;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    xg::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10000);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, HandlesEmptyAndTiny) {
    xg::ThreadPool pool(2);
    pool.parallel_for(0, [](std::size_t) { FAIL(); });
    int count = 0;
    pool.parallel_for(1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
    xg::ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallel_for(1000,
                          [&](std::size_t i) { sum += static_cast<long>(i); });
        EXPECT_EQ(sum.load(), 499500);
    }
}

TEST(ThreadPool, PropagatesTaskExceptionsAndStaysUsable) {
    for (unsigned workers : {1u, 3u}) {
        SCOPED_TRACE(workers);
        xg::ThreadPool pool(workers);
        // Every index throws, so whichever thread runs the first chunk
        // (caller or worker) raises; the rest are never handed out.
        std::atomic<int> ran{0};
        EXPECT_THROW(pool.parallel_for(1000,
                                       [&](std::size_t) {
                                           ++ran;
                                           throw std::runtime_error("task");
                                       }),
                     std::runtime_error);
        EXPECT_GE(ran.load(), 1);
        EXPECT_LE(ran.load(), static_cast<int>(workers) + 1);
        // One late index throws on whichever thread holds it.
        EXPECT_THROW(pool.parallel_for(1000,
                                       [](std::size_t i) {
                                           if (i == 777) {
                                               throw std::out_of_range("777");
                                           }
                                       }),
                     std::out_of_range);
        // The same pool then runs a clean job to completion.
        std::vector<std::atomic<int>> hits(5000);
        pool.parallel_for(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits) {
            EXPECT_EQ(h.load(), 1);
        }
    }
}

TEST(DeviceSpec, Presets) {
    const auto d1 = xg::device1();
    const auto d2 = xg::device2();
    EXPECT_EQ(d1.tiles, 2);
    EXPECT_EQ(d2.tiles, 1);
    EXPECT_GT(d1.eus_per_tile(), d2.eus_per_tile());
    EXPECT_GT(d1.peak_int64_ops(2), d1.peak_int64_ops(1));
    EXPECT_EQ(d1.slm_bytes_per_subslice, 64u * 1024u);
    EXPECT_EQ(d1.grf_bytes_per_thread, 4u * 1024u);
}

TEST(CoreOpCost, InlineAsmReducesCounts) {
    using xg::CoreOp;
    using xg::IsaMode;
    // Fig. 3: 4 -> 3 instructions.
    EXPECT_EQ(xg::core_op_cost(CoreOp::AddMod, IsaMode::Compiler), 4.0);
    EXPECT_EQ(xg::core_op_cost(CoreOp::AddMod, IsaMode::InlineAsm), 3.0);
    // Fig. 4: ~60% reduction for mul64.
    const double c = xg::core_op_cost(CoreOp::Mul64, IsaMode::Compiler);
    const double a = xg::core_op_cost(CoreOp::Mul64, IsaMode::InlineAsm);
    EXPECT_NEAR((c - a) / c, 0.6, 0.05);
    // mad_mod must beat the unfused pair in both modes.
    for (auto mode : {IsaMode::Compiler, IsaMode::InlineAsm}) {
        EXPECT_LT(xg::core_op_cost(CoreOp::MadMod, mode),
                  xg::core_op_cost(CoreOp::MulModAddMod, mode));
    }
}

TEST(CostModel, OccupancySaturates) {
    const xg::CostModel model(xg::device1());
    EXPECT_LE(model.occupancy(1, 1), 1.0);
    EXPECT_GT(model.occupancy(1, 1), 0.0);
    double prev = 0.0;
    for (double items : {1e3, 1e5, 1e7, 1e9}) {
        const double occ = model.occupancy(items, 1);
        EXPECT_GE(occ, prev) << "occupancy must be monotone";
        prev = occ;
    }
    EXPECT_DOUBLE_EQ(model.occupancy(1e12, 1), 1.0);
}

TEST(CostModel, RooflineBound) {
    // Time must be at least every individual roofline term.
    const xg::CostModel model(xg::device1());
    xg::KernelStats s;
    s.alu_ops = 1e9;
    s.gmem_bytes = 1e8;
    s.gmem_eff = 0.5;
    s.work_items = 1e9;
    xg::ExecConfig cfg;
    cfg.charge_launch_overhead = false;
    const double t = model.kernel_time_ns(s, cfg) * 1e-9;
    const auto &spec = model.spec();
    EXPECT_GE(t * spec.peak_int64_ops(1) * spec.alu_efficiency,
              s.alu_ops * 0.999);
    EXPECT_GE(t * spec.gmem_bandwidth(1), s.gmem_bytes / s.gmem_eff * 0.999);
}

TEST(CostModel, MonotoneInWork) {
    const xg::CostModel model(xg::device2());
    xg::ExecConfig cfg;
    double prev = 0.0;
    for (double ops = 1e6; ops <= 1e12; ops *= 10) {
        xg::KernelStats s;
        s.alu_ops = ops;
        s.work_items = 1e9;
        const double t = model.kernel_time_ns(s, cfg);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CostModel, LaunchOverheadCharged) {
    const xg::CostModel model(xg::device1());
    xg::KernelStats s;  // zero work
    xg::ExecConfig with, without;
    without.charge_launch_overhead = false;
    EXPECT_DOUBLE_EQ(model.kernel_time_ns(s, with),
                     model.spec().kernel_launch_overhead_ns);
    EXPECT_DOUBLE_EQ(model.kernel_time_ns(s, without), 0.0);
}

TEST(CostModel, TilesClampedToDevice) {
    const xg::CostModel model(xg::device2());  // single-tile part
    xg::KernelStats s;
    s.alu_ops = 1e10;
    s.work_items = 1e9;
    xg::ExecConfig one{1, xg::IsaMode::Compiler, false};
    xg::ExecConfig eight{8, xg::IsaMode::Compiler, false};
    EXPECT_DOUBLE_EQ(model.kernel_time_ns(s, one),
                     model.kernel_time_ns(s, eight));
}

TEST(MemoryCache, ReusesFreedBuffers) {
    xg::MemoryCache cache(xg::device1());
    {
        auto b = cache.allocate(1000);
        EXPECT_EQ(b.size(), 1000u);
        b[0] = 42;
    }
    EXPECT_EQ(cache.stats().device_allocs, 1u);
    EXPECT_EQ(cache.stats().frees, 1u);
    {
        // Smaller request must reuse the 1000-word buffer (capacity >= size).
        auto b = cache.allocate(500);
        EXPECT_EQ(b.size(), 500u);
        EXPECT_EQ(b[0], 0u) << "recycled buffers must be zeroed";
    }
    EXPECT_EQ(cache.stats().cache_hits, 1u);
    EXPECT_EQ(cache.stats().device_allocs, 1u);
}

TEST(MemoryCache, DisabledAlwaysAllocates) {
    xg::MemoryCache cache(xg::device1());
    cache.set_enabled(false);
    { auto b = cache.allocate(100); }
    { auto b = cache.allocate(100); }
    EXPECT_EQ(cache.stats().device_allocs, 2u);
    EXPECT_EQ(cache.stats().cache_hits, 0u);
}

TEST(MemoryCache, SimulatedCostReflectsHits) {
    const auto spec = xg::device1();
    xg::MemoryCache cache(spec);
    { auto b = cache.allocate(64); }
    const double first = cache.stats().sim_alloc_ns;
    EXPECT_DOUBLE_EQ(first, spec.malloc_overhead_ns);
    { auto b = cache.allocate(64); }
    EXPECT_DOUBLE_EQ(cache.stats().sim_alloc_ns,
                     spec.malloc_overhead_ns + spec.cached_malloc_overhead_ns);
}

TEST(MemoryCache, MoveSemantics) {
    xg::MemoryCache cache(xg::device1());
    auto a = cache.allocate(10);
    a[3] = 7;
    xg::DeviceBuffer b = std::move(a);
    EXPECT_EQ(b.size(), 10u);
    EXPECT_EQ(b[3], 7u);
    EXPECT_EQ(cache.stats().frees, 0u) << "move must not free";
    b = cache.allocate(20);
    EXPECT_EQ(cache.stats().frees, 1u) << "assignment releases old storage";
}

namespace {

/// One fixed allocate/free script: fresh allocations, recycled hits
/// (smaller requests into larger blocks), a zero-word request, moves and
/// a buffer kept live across the rest.
xg::MemoryCache::Stats replay_alloc_script(xg::Queue &queue) {
    xg::MemoryCache &cache = queue.cache();
    auto held = cache.allocate(4096);
    {
        auto a = cache.allocate(1000);
        auto b = cache.allocate(2000);
        auto empty = cache.allocate(0);
        xg::DeviceBuffer moved = std::move(a);
    }
    for (int round = 0; round < 3; ++round) {
        auto c = cache.allocate(1500);  // hit: the 2000-word block
        auto d = cache.allocate(800);   // hit: the 1000-word block
        auto e = cache.allocate(3000);  // miss on round 0, then a hit
    }
    held = cache.allocate(64);  // releases the 4096-word block
    return cache.stats();
}

void expect_same_stats(const xg::MemoryCache::Stats &a,
                       const xg::MemoryCache::Stats &b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.device_allocs, b.device_allocs);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.frees, b.frees);
    EXPECT_EQ(a.sim_alloc_ns, b.sim_alloc_ns);
    EXPECT_EQ(a.live_bytes, b.live_bytes);
    EXPECT_EQ(a.peak_live_bytes, b.peak_live_bytes);
}

}  // namespace

// A cost-only queue's buffers carry no payload, but the cache accounts
// for them exactly as for real ones: the simulated allocation charges and
// the live/peak bytes do not depend on whether storage exists.
TEST(MemoryCache, SizeOnlyBuffersKeepStatsIdentical) {
    xg::Queue functional(xg::device1());
    xg::Queue cost_only(xg::device1());
    cost_only.set_functional(false);
    const auto want = replay_alloc_script(functional);
    const auto got = replay_alloc_script(cost_only);
    expect_same_stats(got, want);
    EXPECT_GT(want.cache_hits, 0u);
    EXPECT_GT(want.live_bytes, 0u);
    functional.charge_alloc_time();
    cost_only.charge_alloc_time();
    EXPECT_EQ(cost_only.clock_ns(), functional.clock_ns());
    // Every buffer the script handed out is gone, the zero-word one too.
    EXPECT_NO_THROW(cost_only.set_functional(true));
}

// Size-only buffers have a size and a non-null base (sub-spans are well
// defined) but no storage: every one shares the cache's single reserved
// region, however many are live.
TEST(MemoryCache, SizeOnlyBufferHasSizeButNoStorage) {
    xg::Queue queue(xg::device1());
    queue.set_functional(false);
    auto fresh = queue.cache().allocate(1000);
    EXPECT_EQ(fresh.size(), 1000u);
    ASSERT_NE(fresh.data(), nullptr);
    EXPECT_EQ(fresh.span().data(), fresh.data());
    {
        auto recycled = queue.cache().allocate(10);
        xg::DeviceBuffer moved = std::move(recycled);
        EXPECT_EQ(moved.size(), 10u);
        EXPECT_EQ(moved.data(), fresh.data());
    }
    auto hit = queue.cache().allocate(5);  // the freed 10-word block
    EXPECT_EQ(queue.cache().stats().cache_hits, 1u);
    EXPECT_EQ(hit.size(), 5u);
    EXPECT_EQ(hit.data(), fresh.data());
    auto none = queue.cache().allocate(0);
    EXPECT_EQ(none.data(), nullptr);
}

// A queue may go back to functional only once no size-only buffer is
// live; from then on it hands out zeroed real storage, recycled blocks
// included.
TEST(MemoryCache, BackToFunctionalHandsOutZeroedStorage) {
    xg::Queue queue(xg::device1());
    {
        auto real = queue.cache().allocate(256);
        real[7] = 99;  // dirties a block the size-only phase recycles
    }
    queue.set_functional(false);
    auto live = queue.cache().allocate(128);
    auto none = queue.cache().allocate(0);  // holds nothing to return
    EXPECT_THROW(queue.set_functional(true), std::invalid_argument);
    EXPECT_FALSE(queue.functional());

    live = xg::DeviceBuffer();  // returns the last size-only buffer
    queue.set_functional(true);
    EXPECT_TRUE(queue.functional());
    auto recycled = queue.cache().allocate(200);  // block was size-only
    auto fresh = queue.cache().allocate(300);
    EXPECT_EQ(queue.cache().stats().cache_hits, 2u);
    for (const xg::DeviceBuffer *b : {&recycled, &fresh}) {
        ASSERT_NE(b->data(), nullptr);
        for (std::size_t i = 0; i < b->size(); ++i) {
            ASSERT_EQ((*b)[i], 0u) << i;
        }
    }
}

TEST(Queue, TimelineAdvancesAndProfilerRecords) {
    xg::Queue queue(xg::device1());
    xg::KernelStats s;
    s.name = "unit";
    s.alu_ops = 1e6;
    s.work_items = 1024;
    xg::ElementwiseKernel k("unit", 1024, [](std::size_t) {}, s);
    const double t = queue.submit(k);
    EXPECT_GT(t, 0.0);
    EXPECT_DOUBLE_EQ(queue.clock_ns(), t);
    EXPECT_EQ(queue.profiler().entries().at("unit").launches, 1u);
    queue.wait();
    EXPECT_GT(queue.clock_ns(), t);
}

TEST(Queue, ElementwiseKernelExecutesBody) {
    xg::Queue queue(xg::device1());
    std::vector<uint64_t> data(5000, 0);
    xg::KernelStats s;
    s.alu_ops = 1.0 * data.size();
    xg::ElementwiseKernel k(
        "fill", data.size(), [&](std::size_t i) { data[i] = i; }, s);
    queue.submit(k);
    for (std::size_t i = 0; i < data.size(); ++i) {
        ASSERT_EQ(data[i], i);
    }
}

TEST(Queue, DryRunSkipsExecution) {
    xg::Queue queue(xg::device1());
    queue.set_functional(false);
    bool touched = false;
    xg::KernelStats s;
    s.alu_ops = 1;
    xg::ElementwiseKernel k("noop", 16, [&](std::size_t) { touched = true; },
                            s);
    const double t = queue.submit(k);
    EXPECT_FALSE(touched);
    EXPECT_GT(t, 0.0) << "cost must still be charged";
}

TEST(Queue, ChargeAllocTimeIsIncremental) {
    xg::Queue queue(xg::device1());
    { auto b = queue.cache().allocate(128); }
    queue.charge_alloc_time();
    const double after_first = queue.clock_ns();
    EXPECT_GT(after_first, 0.0);
    queue.charge_alloc_time();
    EXPECT_DOUBLE_EQ(queue.clock_ns(), after_first) << "no double charging";
}
