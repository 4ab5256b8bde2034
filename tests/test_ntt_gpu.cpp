// Every simulated-GPU NTT variant must be bit-exact against the reference
// transform, across sizes, RNS widths and batch shapes; the cost model must
// behave sanely (positive times, naive slower than radix-8, spills only for
// radix-16), and its exact figures are pinned by one digest.
#include <gtest/gtest.h>

#include "ntt/ntt_gpu.h"
#include "test_common.h"

namespace xn = xehe::ntt;
namespace xg = xehe::xgpu;
namespace xu = xehe::util;

using xehe::test::Batch;
using xehe::test::make_batch;
using xehe::test::reference_forward;

namespace {

const xn::NttVariant kAllVariants[] = {
    xn::NttVariant::NaiveRadix2,   xn::NttVariant::StagedSimd8,
    xn::NttVariant::StagedSimd16,  xn::NttVariant::StagedSimd32,
    xn::NttVariant::LocalRadix4,   xn::NttVariant::LocalRadix8,
    xn::NttVariant::LocalRadix16,
};

}  // namespace

class GpuNttVariantTest
    : public ::testing::TestWithParam<
          std::tuple<xn::NttVariant, std::size_t>> {};

TEST_P(GpuNttVariantTest, ForwardMatchesReference) {
    const auto [variant, n] = GetParam();
    Batch b = make_batch(n, 2, 2, n);
    const auto expect = reference_forward(b);

    xg::Queue queue(xg::device1());
    xn::NttConfig cfg;
    cfg.variant = variant;
    cfg.slm_block = std::min<std::size_t>(256, n);
    cfg.wg_size = 64;
    xn::GpuNtt gpu(queue, cfg);
    const double ns = gpu.forward(b.data, b.polys, b.tables);
    EXPECT_GT(ns, 0.0);
    EXPECT_EQ(b.data, expect) << xn::variant_name(variant) << " n=" << n;
}

TEST_P(GpuNttVariantTest, RoundtripThroughGpuInverse) {
    const auto [variant, n] = GetParam();
    Batch b = make_batch(n, 2, 3, n + 9);
    const auto original = b.data;

    xg::Queue queue(xg::device1());
    xn::NttConfig cfg;
    cfg.variant = variant;
    cfg.slm_block = std::min<std::size_t>(256, n);
    cfg.wg_size = 64;
    xn::GpuNtt gpu(queue, cfg);
    gpu.forward(b.data, b.polys, b.tables);
    gpu.inverse(b.data, b.polys, b.tables);
    EXPECT_EQ(b.data, original) << xn::variant_name(variant) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSizes, GpuNttVariantTest,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Values(64, 256, 1024, 4096)),
    [](const auto &info) {
        return std::string(xn::variant_name(std::get<0>(info.param))) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

TEST(GpuNtt, SingleTransformNoBatch) {
    Batch b = make_batch(512, 1, 1, 5);
    const auto expect = reference_forward(b);
    xg::Queue queue(xg::device2());
    xn::NttConfig cfg;
    cfg.variant = xn::NttVariant::LocalRadix8;
    cfg.slm_block = 128;
    cfg.wg_size = 32;
    xn::GpuNtt gpu(queue, cfg);
    gpu.forward(b.data, b.polys, b.tables);
    EXPECT_EQ(b.data, expect);
}

TEST(GpuNtt, MismatchedSizeThrows) {
    Batch b = make_batch(64, 1, 1, 6);
    b.data.pop_back();
    xg::Queue queue(xg::device1());
    xn::GpuNtt gpu(queue);
    EXPECT_THROW(gpu.forward(b.data, b.polys, b.tables), std::invalid_argument);
}

TEST(GpuNtt, ProfilerSeesNttKernels) {
    Batch b = make_batch(256, 1, 2, 7);
    xg::Queue queue(xg::device1());
    xn::NttConfig cfg;
    cfg.variant = xn::NttVariant::LocalRadix8;
    cfg.slm_block = 64;
    cfg.wg_size = 32;
    xn::GpuNtt gpu(queue, cfg);
    gpu.forward(b.data, b.polys, b.tables);
    EXPECT_GT(queue.profiler().ntt_ns(), 0.0);
    EXPECT_DOUBLE_EQ(queue.profiler().ntt_fraction(), 1.0)
        << "all kernels of a pure NTT run must be tagged NTT";
}

TEST(GpuNtt, CostOrderingMatchesPaper) {
    // Simulated cost at the paper's batched operating point (32K-point,
    // 1024 instances) must order naive > staged radix-2 > radix-8
    // (Figs. 12/13); dry-run mode needs no data storage.
    const std::size_t n = 32768;
    const auto moduli = xu::generate_ntt_primes(50, n, 1);
    const auto tables = xn::make_ntt_tables(n, moduli);

    auto cost = [&](xn::NttVariant v) {
        xg::Queue queue(xg::device1());
        queue.set_functional(false);
        xn::NttConfig cfg;
        cfg.variant = v;
        xn::GpuNtt gpu(queue, cfg);
        return gpu.forward({}, 1024, tables);
    };

    const double naive = cost(xn::NttVariant::NaiveRadix2);
    const double simd8 = cost(xn::NttVariant::StagedSimd8);
    const double radix8 = cost(xn::NttVariant::LocalRadix8);
    const double radix16 = cost(xn::NttVariant::LocalRadix16);
    EXPECT_GT(naive, simd8);
    EXPECT_GT(simd8, radix8);
    EXPECT_GT(radix16, radix8) << "radix-16 must regress due to GRF spills";
}

TEST(GpuNtt, DualTileFasterThanSingle) {
    const std::size_t n = 32768;
    const auto moduli = xu::generate_ntt_primes(50, n, 1);
    const auto tables = xn::make_ntt_tables(n, moduli);
    std::vector<uint64_t> data(8 * n, 1);

    auto cost = [&](int tiles) {
        xg::Queue queue(xg::device1(),
                        xg::ExecConfig{tiles, xg::IsaMode::Compiler, true});
        queue.set_functional(false);
        xn::GpuNtt gpu(queue);
        return gpu.forward(data, 8, tables);
    };
    const double one = cost(1);
    const double two = cost(2);
    EXPECT_LT(two, one);
    EXPECT_GT(two, one / 2.0) << "scaling cannot be super-linear";
}

TEST(GpuNtt, InlineAsmFasterThanCompiler) {
    const std::size_t n = 32768;
    const auto moduli = xu::generate_ntt_primes(50, n, 1);
    const auto tables = xn::make_ntt_tables(n, moduli);
    std::vector<uint64_t> data(8 * n, 1);

    auto cost = [&](xg::IsaMode isa) {
        xg::Queue queue(xg::device1(), xg::ExecConfig{1, isa, true});
        queue.set_functional(false);
        xn::GpuNtt gpu(queue);
        return gpu.forward(data, 8, tables);
    };
    const double comp = cost(xg::IsaMode::Compiler);
    const double asm_ = cost(xg::IsaMode::InlineAsm);
    EXPECT_LT(asm_, comp);
}

TEST(GpuNtt, CostIsPinned) {
    // Every simulated cost the NTT reports — forward and inverse ns and each
    // profiler entry's launches, time and ALU ops — across variants, both
    // devices, both ISA modes, one and two tiles, a functional N=1024 batch
    // whose SLM block leaves global rounds, and the paper's cost-only 32K x
    // 1024 operating point.  A refactor of the kernels must keep this
    // digest; a deliberate cost-model change updates it.
    const Batch small = make_batch(1024, 2, 2, 11);
    const auto big_tables =
        xn::make_ntt_tables(32768, xu::generate_ntt_primes(50, 32768, 1));

    xehe::test::Digest d;
    for (const xn::NttVariant v : kAllVariants) {
        for (const auto &spec : {xg::device1(), xg::device2()}) {
            for (const xg::IsaMode isa :
                 {xg::IsaMode::Compiler, xg::IsaMode::InlineAsm}) {
                for (const int tiles : {1, 2}) {
                    for (const bool functional : {true, false}) {
                        xg::Queue queue(spec, xg::ExecConfig{tiles, isa, true});
                        queue.set_functional(functional);
                        xn::NttConfig cfg;
                        cfg.variant = v;
                        if (functional) {
                            cfg.slm_block = 128;
                            cfg.wg_size = 64;
                        }
                        xn::GpuNtt gpu(queue, cfg);
                        std::vector<uint64_t> data = small.data;
                        const std::span<uint64_t> span =
                            functional ? std::span<uint64_t>(data)
                                       : std::span<uint64_t>();
                        const std::size_t polys = functional ? 2 : 1024;
                        const auto &tables =
                            functional ? small.tables : big_tables;
                        d.num(gpu.forward(span, polys, tables));
                        d.num(gpu.inverse(span, polys, tables));
                        for (const auto &[name, e] :
                             queue.profiler().entries()) {
                            d.str(name);
                            d.num(e.launches);
                            d.num(e.time_ns);
                            d.num(e.alu_ops);
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(d.h, 0x85728cbf32cd13c4ull)
        << "simulated NTT cost moved; digest now " << std::hex << d.h;
}

TEST(Table1, OpCountsMatchPaper) {
    EXPECT_DOUBLE_EQ(xn::table1_ops_per_item(2), 48.0);
    EXPECT_DOUBLE_EQ(xn::table1_ops_per_item(4), 157.0);
    EXPECT_DOUBLE_EQ(xn::table1_ops_per_item(8), 456.0);
    EXPECT_DOUBLE_EQ(xn::table1_ops_per_item(16), 1156.0);
    EXPECT_DOUBLE_EQ(xn::table1_butterfly_ops(8), 336.0);
}
