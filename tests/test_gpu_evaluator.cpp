// The GPU evaluator must be bit-exact against the CPU evaluator for every
// primitive, and its profiler must expose the NTT-dominance the paper's
// Figure 5 reports.  Also covers the matmul application and the routine
// harness end to end (functional mode).
#include <gtest/gtest.h>

#include <random>

#include "ckks/encoder.h"
#include "test_common.h"
#include "xehe/matmul.h"
#include "xehe/routines.h"

namespace xc = xehe::ckks;
namespace xr = xehe::core;
namespace xg = xehe::xgpu;

using xehe::test::kScale;

namespace {

/// The shared CKKS bench plus a simulated GPU context and evaluator; the
/// CPU evaluator (`cpu`) is the bit-exactness oracle for the GPU one.
struct GpuBench : xehe::test::CkksBench {
    xc::Evaluator &cpu = evaluator;
    xr::GpuContext gpu;
    xr::GpuEvaluator eval;
    xc::RelinKeys relin;

    explicit GpuBench(std::size_t n = 2048, std::size_t levels = 3,
                      xr::GpuOptions opts = {})
        : xehe::test::CkksBench(n, levels),
          gpu(context, xg::device1(), opts),
          eval(gpu),
          relin(keygen.create_relin_keys()) {}

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
};

xr::GpuOptions small_gpu_options() {
    xr::GpuOptions opts;
    opts.slm_block = 256;
    opts.wg_size = 64;
    return opts;
}

}  // namespace

TEST(GpuEvaluator, UploadDownloadRoundtrip) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto ct = bench.encrypt_random(1);
    const auto gpu_ct = xr::upload(bench.gpu, ct);
    const auto back = xr::download(bench.gpu, gpu_ct);
    EXPECT_EQ(back.data, ct.data);
    EXPECT_EQ(back.size, ct.size);
    EXPECT_DOUBLE_EQ(back.scale, ct.scale);
}

TEST(GpuEvaluator, AddMatchesCpu) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto a = bench.encrypt_random(2);
    const auto b = bench.encrypt_random(3);
    const auto expect = bench.cpu.add(a, b);
    const auto got = xr::download(
        bench.gpu, bench.eval.add(xr::upload(bench.gpu, a),
                                  xr::upload(bench.gpu, b)));
    EXPECT_EQ(got.data, expect.data);
}

TEST(GpuEvaluator, MultiplyMatchesCpu) {
    for (bool fuse : {false, true}) {
        xr::GpuOptions opts = small_gpu_options();
        opts.fuse_mad_mod = fuse;
        GpuBench bench(1024, 2, opts);
        const auto a = bench.encrypt_random(4);
        const auto b = bench.encrypt_random(5);
        const auto expect = bench.cpu.multiply(a, b);
        const auto got = xr::download(
            bench.gpu,
            bench.eval.multiply(xr::upload(bench.gpu, a), xr::upload(bench.gpu,
                                                                     b)));
        EXPECT_EQ(got.data, expect.data) << "fuse=" << fuse;
        EXPECT_EQ(got.size, 3u);
    }
}

TEST(GpuEvaluator, SquareMatchesCpu) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto a = bench.encrypt_random(6);
    const auto expect = bench.cpu.square(a);
    const auto got =
        xr::download(bench.gpu, bench.eval.square(xr::upload(bench.gpu, a)));
    EXPECT_EQ(got.data, expect.data);
}

TEST(GpuEvaluator, RelinearizeMatchesCpu) {
    GpuBench bench(1024, 3, small_gpu_options());
    const auto a = bench.encrypt_random(7);
    const auto b = bench.encrypt_random(8);
    const auto prod_cpu = bench.cpu.multiply(a, b);
    const auto expect = bench.cpu.relinearize(prod_cpu, bench.relin);
    const auto got = xr::download(
        bench.gpu,
        bench.eval.relinearize(xr::upload(bench.gpu, prod_cpu), bench.relin));
    EXPECT_EQ(got.data, expect.data);
}

TEST(GpuEvaluator, RescaleMatchesCpu) {
    GpuBench bench(1024, 3, small_gpu_options());
    const auto a = bench.encrypt_random(9);
    const auto b = bench.encrypt_random(10);
    const auto prod = bench.cpu.relinearize(bench.cpu.multiply(a, b),
                                            bench.relin);
    const auto expect = bench.cpu.rescale(prod);
    const auto got =
        xr::download(bench.gpu, bench.eval.rescale(xr::upload(bench.gpu,
                                                              prod)));
    EXPECT_EQ(got.data, expect.data);
    EXPECT_DOUBLE_EQ(got.scale, expect.scale);
}

TEST(GpuEvaluator, ModSwitchMatchesCpu) {
    GpuBench bench(1024, 3, small_gpu_options());
    const auto a = bench.encrypt_random(11);
    const auto expect = bench.cpu.mod_switch(a);
    const auto got =
        xr::download(bench.gpu, bench.eval.mod_switch(xr::upload(bench.gpu,
                                                                 a)));
    EXPECT_EQ(got.data, expect.data);
}

TEST(GpuEvaluator, RotateMatchesCpu) {
    GpuBench bench(1024, 3, small_gpu_options());
    const int steps[] = {1};
    const auto gk = bench.keygen.create_galois_keys(steps);
    const auto a = bench.encrypt_random(12);
    const auto expect = bench.cpu.rotate(a, 1, gk);
    const auto got =
        xr::download(bench.gpu, bench.eval.rotate(xr::upload(bench.gpu, a), 1,
                                                  gk));
    EXPECT_EQ(got.data, expect.data);
}

TEST(GpuEvaluator, AllNttVariantsAgree) {
    // Every NTT variant must produce identical relinearization results.
    const xehe::ntt::NttVariant variants[] = {
        xehe::ntt::NttVariant::NaiveRadix2, xehe::ntt::NttVariant::StagedSimd8,
        xehe::ntt::NttVariant::LocalRadix4, xehe::ntt::NttVariant::LocalRadix8,
        xehe::ntt::NttVariant::LocalRadix16};
    std::vector<uint64_t> reference;
    for (const auto variant : variants) {
        xr::GpuOptions opts = small_gpu_options();
        opts.ntt_variant = variant;
        GpuBench bench(512, 2, opts);
        const auto a = bench.encrypt_random(13);
        const auto b = bench.encrypt_random(14);
        const auto got = xr::download(
            bench.gpu,
            bench.eval.mul_lin_rs(xr::upload(bench.gpu, a),
                                  xr::upload(bench.gpu, b), bench.relin));
        if (reference.empty()) {
            reference = got.data;
        } else {
            EXPECT_EQ(got.data, reference)
                << xehe::ntt::variant_name(variant);
        }
    }
}

TEST(GpuEvaluator, RoutinesDecryptCorrectly) {
    GpuBench bench(2048, 3, small_gpu_options());
    const auto a_values = [&] {
        std::mt19937_64 rng(77);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::vector<double> v(bench.context.slots());
        for (auto &x : v) x = dist(rng);
        return v;
    }();
    const auto ct = bench.encryptor.encrypt(
        bench.encoder.encode(std::span<const double>(a_values), kScale));
    const auto result = xr::download(
        bench.gpu, bench.eval.sqr_lin_rs(xr::upload(bench.gpu, ct),
                                         bench.relin));
    const auto decoded = bench.encoder.decode(bench.decryptor.decrypt(result));
    double max_err = 0;
    for (std::size_t i = 0; i < a_values.size(); ++i) {
        max_err = std::max(
            max_err, std::abs(decoded[i].real() - a_values[i] * a_values[i]));
    }
    EXPECT_LT(max_err, 1e-3);
}

TEST(GpuEvaluator, ProfilerShowsNttDominance) {
    // Fig. 5: NTT should account for the large majority of routine time.
    const xc::CkksContext host(xc::EncryptionParameters::create(2048, 3));
    xr::GpuOptions opts = small_gpu_options();
    xr::RoutineBench bench(host, xg::device1(), opts, /*functional=*/false);
    for (const auto routine : xr::kAllRoutines) {
        const auto profile = bench.run(routine);
        EXPECT_GT(profile.total_ms(), 0.0) << xr::routine_name(routine);
        EXPECT_GT(profile.ntt_fraction(), 0.5)
            << xr::routine_name(routine) << " should be NTT-dominated";
    }
}

TEST(GpuEvaluator, MatmulFunctionalCorrectness) {
    xr::MatmulConfig config;
    config.m = 2;
    config.n = 2;
    config.k = 2;
    config.poly_degree = 1024;
    config.levels = 2;
    config.device = xg::device1();
    config.gpu = small_gpu_options();
    config.functional = true;
    const auto report = xr::run_encrypted_matmul(config);
    EXPECT_EQ(report.products, 8u);
    EXPECT_LT(report.max_error, 1e-2);
    EXPECT_GT(report.sim_total_ms, 0.0);
}

TEST(GpuEvaluator, MatmulFusedAndUnfusedAgree) {
    for (bool fuse : {false, true}) {
        xr::MatmulConfig config;
        config.m = 2;
        config.n = 1;
        config.k = 2;
        config.poly_degree = 1024;
        config.levels = 2;
        config.device = xg::device1();
        config.gpu = small_gpu_options();
        config.gpu.fuse_mad_mod = fuse;
        const auto report = xr::run_encrypted_matmul(config);
        EXPECT_LT(report.max_error, 1e-2) << "fuse=" << fuse;
    }
}

// On a cost-only context, upload and download skip the host copy (the
// buffers are size-only) but charge the same transfer time, and download
// returns an all-zero ciphertext of the right shape.
TEST(GpuEvaluator, CostOnlyUploadDownloadChargeTransfersWithoutPayload) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto ct = bench.encrypt_random(3);
    xr::GpuContext cost_only(bench.context, xg::device1(), small_gpu_options());
    cost_only.set_functional(false);
    bench.gpu.queue().reset_clock();
    cost_only.queue().reset_clock();

    const auto on_device = xr::upload(cost_only, ct);
    const auto reference = xr::upload(bench.gpu, ct);
    EXPECT_EQ(on_device.data.size(), ct.data.size());
    EXPECT_EQ(cost_only.queue().clock_ns(), bench.gpu.queue().clock_ns());

    const auto back = xr::download(cost_only, on_device);
    xr::download(bench.gpu, reference);
    EXPECT_EQ(cost_only.queue().clock_ns(), bench.gpu.queue().clock_ns());
    EXPECT_EQ(back.n, ct.n);
    EXPECT_EQ(back.size, ct.size);
    EXPECT_EQ(back.rns, ct.rns);
    EXPECT_EQ(back.scale, ct.scale);
    EXPECT_EQ(back.ntt_form, ct.ntt_form);
    EXPECT_EQ(back.data, std::vector<uint64_t>(ct.data.size(), 0));
    // Size-only: the upload target is the cache's shared reserved base.
    EXPECT_EQ(on_device.data.data(),
              cost_only.queue().cache().allocate(1).data());
}

TEST(GpuEvaluator, MemoryCacheReducesAllocations) {
    xr::MatmulConfig config;
    config.m = 3;
    config.n = 3;
    config.k = 2;
    config.poly_degree = 1024;
    config.levels = 2;
    config.device = xg::device1();
    config.gpu = small_gpu_options();
    config.functional = false;

    config.gpu.use_memory_cache = false;
    const auto without = xr::run_encrypted_matmul(config);
    config.gpu.use_memory_cache = true;
    const auto with = xr::run_encrypted_matmul(config);
    EXPECT_LT(with.alloc.device_allocs, without.alloc.device_allocs);
    EXPECT_GT(with.alloc.cache_hits, 0u);
    EXPECT_LT(with.sim_total_ms, without.sim_total_ms);
}

TEST(GpuEvaluator, AsyncPipelineFasterThanSync) {
    const xc::CkksContext host(xc::EncryptionParameters::create(1024, 3));
    auto run = [&](bool async) {
        xr::GpuOptions opts = small_gpu_options();
        opts.async = async;
        xr::RoutineBench bench(host, xg::device1(), opts, /*functional=*/false);
        bench.gpu().queue().reset_clock();
        const double t0 = bench.gpu().queue().clock_ns();
        bench.run(xr::Routine::MulLinRS);
        return bench.gpu().queue().clock_ns() - t0;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(GpuEvaluator, BaselineOptionsDescribeThePaperBaseline) {
    const auto opts = xr::baseline_options();
    EXPECT_EQ(opts.ntt_variant, xehe::ntt::NttVariant::NaiveRadix2);
    EXPECT_EQ(opts.isa, xg::IsaMode::Compiler);
    EXPECT_FALSE(opts.fuse_mad_mod);
    EXPECT_FALSE(opts.fuse_dyadic);
    EXPECT_FALSE(opts.use_memory_cache);
    EXPECT_FALSE(opts.async);
    EXPECT_EQ(opts.tiles, 1);
}

TEST(GpuEvaluator, RoutineBenchInputsAreIndependent) {
    // Regression: the bench used to seed all three inputs' slot values
    // and encryption noise from one shared stream, producing three
    // identical ciphertexts — every binary routine then ran on a == b.
    const xc::CkksContext host(xc::EncryptionParameters::create(1024, 2));
    xr::RoutineBench bench(host, xg::device1(), small_gpu_options(),
                           /*functional=*/true, /*seed=*/42);
    const auto a = xr::download(bench.gpu(), bench.input(0));
    const auto b = xr::download(bench.gpu(), bench.input(1));
    const auto c = xr::download(bench.gpu(), bench.input(2));
    EXPECT_NE(a.data, b.data);
    EXPECT_NE(a.data, c.data);
    EXPECT_NE(b.data, c.data);

    // Still deterministic: the same bench seed reproduces the inputs.
    xr::RoutineBench again(host, xg::device1(), small_gpu_options(),
                           /*functional=*/true, /*seed=*/42);
    EXPECT_EQ(xr::download(again.gpu(), again.input(0)).data, a.data);
    EXPECT_EQ(xr::download(again.gpu(), again.input(1)).data, b.data);
}

TEST(GpuEvaluator, SubNegateMatchCpu) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto a = bench.encrypt_random(30);
    const auto b = bench.encrypt_random(31);
    EXPECT_EQ(xr::download(bench.gpu,
                           bench.eval.sub(xr::upload(bench.gpu, a),
                                          xr::upload(bench.gpu, b)))
                  .data,
              bench.cpu.sub(a, b).data);
    EXPECT_EQ(xr::download(bench.gpu, bench.eval.negate(xr::upload(bench.gpu,
                                                                   a)))
                  .data,
              bench.cpu.negate(a).data);
}

TEST(GpuEvaluator, PlainOpsMatchCpu) {
    GpuBench bench(1024, 2, small_gpu_options());
    const auto a = bench.encrypt_random(32);
    std::mt19937_64 rng(33);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> values(bench.context.slots());
    for (auto &v : values) {
        v = dist(rng);
    }
    const auto plain =
        bench.encoder.encode(std::span<const double>(values), kScale);
    EXPECT_EQ(xr::download(bench.gpu,
                           bench.eval.add_plain(xr::upload(bench.gpu, a),
                                                plain))
                  .data,
              bench.cpu.add_plain(a, plain).data);
    const auto got = xr::download(
        bench.gpu, bench.eval.multiply_plain(xr::upload(bench.gpu, a), plain));
    const auto expect = bench.cpu.multiply_plain(a, plain);
    EXPECT_EQ(got.data, expect.data);
    EXPECT_DOUBLE_EQ(got.scale, expect.scale);
}
