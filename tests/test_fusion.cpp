// Dyadic-kernel fusion must change the timeline, never the ciphertexts:
// every Section IV-C routine is run fused and unfused on identical inputs
// and must produce bit-identical results (and decrypt identically), the
// profiler's aggregate kernel-name multiset must be invariant under
// fusion (a fused launch reports its constituent op names), the physical
// submission count and simulated time must strictly drop, and the
// MemoryCache must see strictly fewer allocation requests (merged
// scratch, eliminated intermediates).  Also pins down the FusionBuilder /
// FusedKernel execution semantics on the raw xgpu layer.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "ckks/encoder.h"
#include "test_common.h"
#include "xehe/routines.h"
#include "xgpu/fusion.h"
#include "xgpu/scheduler.h"

namespace xc = xehe::ckks;
namespace xr = xehe::core;
namespace xg = xehe::xgpu;

using xehe::test::kScale;

namespace {

xr::GpuOptions gpu_options(bool fuse) {
    xr::GpuOptions opts;
    opts.slm_block = 256;
    opts.wg_size = 64;
    opts.fuse_dyadic = fuse;
    return opts;
}

/// Composes one Section IV-C routine from the evaluator's primitives.
xr::GpuCiphertext compose(const xr::GpuEvaluator &eval, xr::Routine routine,
                          const xr::GpuCiphertext &a,
                          const xr::GpuCiphertext &b,
                          const xr::GpuCiphertext &c,
                          const xc::RelinKeys &relin,
                          const xc::GaloisKeys &galois) {
    switch (routine) {
        case xr::Routine::MulLin:
            return eval.relinearize(eval.multiply(a, b), relin);
        case xr::Routine::MulLinRS:
            return eval.rescale(eval.relinearize(eval.multiply(a, b), relin));
        case xr::Routine::SqrLinRS:
            return eval.rescale(eval.relinearize(eval.square(a), relin));
        case xr::Routine::MulLinRSModSwAdd:
            return eval.mod_switch_add(
                eval.rescale(eval.relinearize(eval.multiply(a, b), relin)),
                c);
        case xr::Routine::Rotate:
            return eval.rotate(a, 1, galois);
    }
    return {};
}

/// One full evaluator stack (host scheme + GPU context) with a fixed
/// fusion mode; inputs are encrypted identically across instances.
struct FusionBench : xehe::test::CkksBench {
    xr::GpuContext gpu;
    xr::GpuEvaluator eval;
    xc::RelinKeys relin;
    xc::GaloisKeys galois;

    explicit FusionBench(bool fuse, std::size_t n = 2048,
                         std::size_t levels = 3)
        : xehe::test::CkksBench(n, levels),
          gpu(context, xg::device1(), gpu_options(fuse)),
          eval(gpu),
          relin(keygen.create_relin_keys()),
          galois([&] {
              const int steps[] = {1};
              return keygen.create_galois_keys(steps);
          }()) {}

    xc::Ciphertext encrypt_random(uint64_t seed) {
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::vector<double> values(context.slots());
        for (auto &v : values) {
            v = dist(rng);
        }
        return encryptor.encrypt(
            encoder.encode(std::span<const double>(values), kScale));
    }

    /// Runs one routine on freshly uploaded inputs and downloads the
    /// result.
    xc::Ciphertext run(xr::Routine routine, const xc::Ciphertext &a,
                       const xc::Ciphertext &b, const xc::Ciphertext &c) {
        const auto ga = xr::upload(gpu, a);
        const auto gb = xr::upload(gpu, b);
        const auto gc = xr::upload(gpu, c);
        return xr::download(
            gpu, compose(eval, routine, ga, gb, gc, relin, galois));
    }
};

/// name -> launches, the profiler's kernel-name multiset.
std::map<std::string, std::size_t> name_multiset(const xg::Profiler &p) {
    std::map<std::string, std::size_t> m;
    for (const auto &[name, e] : p.entries()) {
        m[name] = e.launches;
    }
    return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential: every routine bit-identical fused vs unfused
// ---------------------------------------------------------------------------

TEST(FusionDifferential, RoutinesBitIdenticalAndCheaper) {
    // One scheme; both stacks share its keys so ciphertexts are directly
    // comparable bit for bit.
    FusionBench unfused(false);
    xr::GpuContext fused_gpu(unfused.context, xg::device1(),
                             gpu_options(true));
    xr::GpuEvaluator fused_eval(fused_gpu);

    const auto a = unfused.encrypt_random(101);
    const auto b = unfused.encrypt_random(102);
    const auto c = unfused.encrypt_random(103);

    for (const auto routine : xr::kAllRoutines) {
        const char *name = xr::routine_name(routine);

        auto &uq = unfused.gpu.queue();
        auto &fq = fused_gpu.queue();
        const std::size_t alloc0_u = uq.cache().stats().requests;
        const std::size_t alloc0_f = fq.cache().stats().requests;
        const double clock0_u = unfused.gpu.queue().clock_ns();
        const double clock0_f = fq.clock_ns();

        const auto expect = unfused.run(routine, a, b, c);

        const auto ga = xr::upload(fused_gpu, a);
        const auto gb = xr::upload(fused_gpu, b);
        const auto gc = xr::upload(fused_gpu, c);
        const xr::GpuCiphertext gout = compose(
            fused_eval, routine, ga, gb, gc, unfused.relin, unfused.galois);
        const auto got = xr::download(fused_gpu, gout);

        // Bit-identical ciphertexts, hence bit-identical decryptions.
        EXPECT_EQ(got.data, expect.data) << name;
        EXPECT_EQ(got.size, expect.size) << name;
        EXPECT_DOUBLE_EQ(got.scale, expect.scale) << name;
        const auto dec_got = unfused.dec(got);
        const auto dec_expect = unfused.dec(expect);
        ASSERT_EQ(dec_got.size(), dec_expect.size()) << name;
        for (std::size_t i = 0; i < dec_got.size(); ++i) {
            ASSERT_EQ(dec_got[i], dec_expect[i]) << name << " slot " << i;
        }

        // Strictly fewer MemoryCache requests: merged scratch allocations
        // and (for MulLinRSModSwAdd) the eliminated c_down intermediate.
        EXPECT_LT(fq.cache().stats().requests - alloc0_f,
                  uq.cache().stats().requests - alloc0_u)
            << name;
        // Strictly faster simulated timeline.
        EXPECT_LT(fq.clock_ns() - clock0_f,
                  unfused.gpu.queue().clock_ns() - clock0_u)
            << name;
    }
}

TEST(FusionDifferential, ProfilerNameMultisetPreserved) {
    // The per-routine aggregate profiler must expose the same kernel-name
    // multiset (and total ALU work) whether or not the launches fused;
    // only the physical submission count and the time drop.
    for (const auto routine : xr::kAllRoutines) {
        const char *name = xr::routine_name(routine);
        std::map<std::string, std::size_t> multiset[2];
        double alu[2] = {0.0, 0.0};
        double time_ns[2] = {0.0, 0.0};
        std::size_t submissions[2] = {0, 0};
        for (int fuse = 0; fuse < 2; ++fuse) {
            FusionBench bench(fuse == 1);
            const auto a = bench.encrypt_random(7);
            const auto b = bench.encrypt_random(8);
            const auto c = bench.encrypt_random(9);
            bench.gpu.profiler().reset();
            bench.run(routine, a, b, c);
            const auto &p = bench.gpu.profiler();
            multiset[fuse] = name_multiset(p);
            alu[fuse] = p.total_alu_ops();
            time_ns[fuse] = p.total_ns();
            submissions[fuse] = p.submissions();
        }
        EXPECT_EQ(multiset[0], multiset[1]) << name;
        EXPECT_DOUBLE_EQ(alu[0], alu[1]) << name;
        EXPECT_LT(submissions[1], submissions[0]) << name;
        EXPECT_LT(time_ns[1], time_ns[0]) << name;
    }
}

TEST(FusionDifferential, FlagOffMatchesBaselinePipeline) {
    // fuse_dyadic=false must reproduce the PR 2 pipeline exactly: one
    // physical launch per profiler entry launch.
    FusionBench bench(false);
    const auto a = bench.encrypt_random(21);
    const auto b = bench.encrypt_random(22);
    bench.gpu.profiler().reset();
    bench.run(xr::Routine::MulLinRS, a, b, a);
    const auto &p = bench.gpu.profiler();
    std::size_t non_ntt_launches = 0;
    for (const auto &[name, e] : p.entries()) {
        if (!e.is_ntt) {
            non_ntt_launches += e.launches;
        }
    }
    EXPECT_GT(non_ntt_launches, 0u);
    // Unfused, no dyadic kernel batches: every non-NTT entry launch is a
    // physical submission (NTT entries may batch multiple transforms into
    // one physical launch in either mode, so submissions <= launches).
    EXPECT_GE(p.submissions(), non_ntt_launches);
    EXPECT_LE(p.submissions(), p.launches());
}

// ---------------------------------------------------------------------------
// FusionBuilder semantics on the raw xgpu layer
// ---------------------------------------------------------------------------

TEST(FusionBuilder, FusedAndUnfusedComputeIdenticalResults) {
    // a chained (vertical) stage after a horizontal pair: out[i] depends
    // on the same-index result of its column only.
    xg::Queue queue(xg::device1());
    std::vector<uint64_t> x(64, 3), y(64, 5), z(64, 0);
    for (int fuse = 0; fuse < 2; ++fuse) {
        std::fill(z.begin(), z.end(), 0);
        std::vector<uint64_t> w(64, 0);
        xg::FusionBuilder group(queue, fuse == 1, 32);
        uint64_t *xp = x.data(), *yp = y.data(), *zp = z.data(),
                 *wp = w.data();
        group.stage("mul", 64, 1.0, 3.0,
                    [=](std::size_t i) { zp[i] = xp[i] * yp[i]; });
        group.then("add_one", 1.0, 2.0,
                   [=](std::size_t i) { zp[i] += 1; },
                   /*shared_streams=*/1.0);
        group.stage("copy", 64, 0.0, 2.0,
                    [=](std::size_t i) { wp[i] = xp[i]; });
        group.submit();
        for (std::size_t i = 0; i < 64; ++i) {
            ASSERT_EQ(z[i], 16u) << "fuse=" << fuse;
            ASSERT_EQ(w[i], 3u) << "fuse=" << fuse;
        }
    }
}

TEST(FusionBuilder, SingleLaunchChargesOneOverheadAndMergedTraffic) {
    const xg::DeviceSpec spec = xg::device1();
    struct Result {
        std::size_t submissions = 0, launches = 0;
        double clock_ns = 0.0, total_ns = 0.0, entry_time_sum = 0.0;
    };
    auto run = [&](bool fuse) {
        xg::Queue queue(spec);
        queue.set_functional(false);
        xg::FusionBuilder group(queue, fuse, 64);
        for (int s = 0; s < 4; ++s) {
            group.stage("stage" + std::to_string(s), 4096, 8.0, 2.0,
                        [](std::size_t) {});
        }
        group.submit();
        Result r;
        r.submissions = queue.profiler().submissions();
        r.launches = queue.profiler().launches();
        r.clock_ns = queue.clock_ns();
        r.total_ns = queue.profiler().total_ns();
        for (const auto &[name, e] : queue.profiler().entries()) {
            r.entry_time_sum += e.time_ns;
        }
        return r;
    };
    const Result unfused = run(false);
    const Result fused = run(true);
    EXPECT_EQ(unfused.submissions, 4u);
    EXPECT_EQ(fused.submissions, 1u);
    EXPECT_EQ(fused.launches, 4u)
        << "constituent entries preserve the launch multiset";
    // Three launch overheads disappear; occupancy of the merged domain
    // can only help, so the saving is at least those overheads.
    EXPECT_LE(fused.clock_ns,
              unfused.clock_ns - 3.0 * spec.kernel_launch_overhead_ns);
    // Time attribution: constituents sum to the fused total.
    EXPECT_NEAR(fused.entry_time_sum, fused.total_ns, 1e-9);
}

TEST(FusionBuilder, SharedStreamsReduceChargedTraffic) {
    xg::Queue queue(xg::device1());
    queue.set_functional(false);
    auto clock_for = [&](double shared) {
        const double t0 = queue.clock_ns();
        xg::FusionBuilder group(queue, true, 64);
        // Memory-bound stages: discounted streams must shorten the launch.
        group.stage("a", 1 << 20, 0.0, 4.0, [](std::size_t) {});
        group.then("b", 0.0, 4.0, [](std::size_t) {}, shared);
        group.submit();
        return queue.clock_ns() - t0;
    };
    EXPECT_LT(clock_for(3.0), clock_for(0.0));
}

TEST(FusionBuilder, CarriesEventDependenciesAcrossQueues) {
    // A fused launch must still participate in the scheduler's event
    // graph: the consumer queue stalls until the producer's event.
    xg::Scheduler sched(xg::device1());
    xg::FusionBuilder producer(sched.queue(0), true, 64);
    producer.stage("p0", 1 << 18, 64.0, 2.0, [](std::size_t) {});
    producer.stage("p1", 1 << 18, 64.0, 2.0, [](std::size_t) {});
    const xg::Event produced = producer.submit();
    EXPECT_TRUE(produced.valid());
    EXPECT_GT(produced.ready_ns, 0.0);

    xg::FusionBuilder consumer(sched.queue(1), true, 64);
    consumer.stage("c0", 256, 1.0, 2.0, [](std::size_t) {});
    consumer.stage("c1", 256, 1.0, 2.0, [](std::size_t) {});
    const xg::Event deps[] = {produced};
    const xg::Event consumed = consumer.submit(deps);
    EXPECT_GE(consumed.ready_ns,
              produced.ready_ns + sched.spec().cross_queue_sync_ns);
    // Both queues' profilers carry the constituent names.
    EXPECT_EQ(sched.queue(0).profiler().entries().count("p1"), 1u);
    EXPECT_EQ(sched.queue(1).profiler().entries().count("c1"), 1u);
    EXPECT_EQ(sched.aggregate_profiler().submissions(), 2u);
}
