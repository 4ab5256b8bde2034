// The CKKS limb kernels (ckks::detail::dot_mod and divide_round_limb)
// against their scalar loops, word for word.  On a CPU with AVX-512 IFMA
// the dispatched kernels run the IFMA52 code for every prime below 2^50;
// the 60-bit prime, more than kMaxIfmaTerms terms, or a CPU without IFMA
// take the scalar loops.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <tuple>

#include "ckks/poly.h"
#include "test_common.h"
#include "util/avx512.h"

namespace xc = xehe::ckks;
namespace xn = xehe::ntt;
namespace xu = xehe::util;

using xehe::test::PrimeChoice;

namespace {

/// n words below `bound`: zeros, then bound - 1, then random, so every
/// run holds both extremes and the random middle.
std::vector<uint64_t> words(std::size_t n, uint64_t bound, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> w(n);
    for (std::size_t k = 0; k < n; ++k) {
        w[k] = k < n / 8 ? 0 : k < n / 4 ? bound - 1 : rng() % bound;
    }
    return w;
}

const PrimeChoice kPrimes[] = {{30, 0}, {40, 0}, {49, 0}, {50, 2},
                               {50, 0}, {60, 0}};

}  // namespace

TEST(LimbKernels, DispatchRule) {
    const auto q50 = xu::generate_ntt_primes(50, 64, 1)[0];
    const auto q60 = xu::generate_ntt_primes(60, 64, 1)[0];
    const bool ifma = xu::avx512::has_ifma();
    EXPECT_EQ(xc::detail::uses_ifma(q50), ifma);
    EXPECT_EQ(xc::detail::uses_ifma(q50, xc::detail::kMaxIfmaTerms), ifma);
    EXPECT_FALSE(xc::detail::uses_ifma(q50, xc::detail::kMaxIfmaTerms + 1));
    EXPECT_FALSE(xc::detail::uses_ifma(q60));
    RecordProperty("ifma", ifma ? "yes" : "no");
}

// ---------------------------------------------------------------------------
// dot_mod: t = 1..8 terms, and kMaxIfmaTerms terms of q - 1 (the largest
// high-half sum the vector code folds).
// ---------------------------------------------------------------------------

using DotParam = std::tuple<std::size_t, PrimeChoice>;

class DotModTest : public ::testing::TestWithParam<DotParam> {};

void expect_dot_matches(std::size_t n, const xu::Modulus &q, std::size_t t,
                        const std::vector<std::vector<uint64_t>> &a,
                        const std::vector<std::vector<uint64_t>> &b) {
    std::vector<const uint64_t *> pa, pb;
    for (std::size_t i = 0; i < t; ++i) {
        pa.push_back(a[i].data());
        pb.push_back(b[i].data());
    }
    std::vector<uint64_t> expect(n), got(n, 1);
    xc::detail::dot_mod_scalar(pa, pb, expect, q);
    xc::detail::dot_mod(pa, pb, got, q);
    ASSERT_EQ(got, expect) << "t=" << t;
    if (t == 1) {
        for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(got[k], xu::mul_mod(a[0][k], b[0][k], q)) << "k=" << k;
        }
    }
}

TEST_P(DotModTest, MatchesScalar) {
    const std::size_t n = std::get<0>(GetParam());
    const auto q = std::get<1>(GetParam()).prime(64);
    std::vector<std::vector<uint64_t>> a, b;
    for (std::size_t i = 0; i < 8; ++i) {
        a.push_back(words(n, q.value(), 2 * i + 1));
        b.push_back(words(n, q.value(), 2 * i + 2));
    }
    for (std::size_t t = 1; t <= 8; ++t) {
        expect_dot_matches(n, q, t, a, b);
    }
}

TEST_P(DotModTest, MostTermsAtTheTop) {
    const std::size_t n = std::get<0>(GetParam());
    const auto q = std::get<1>(GetParam()).prime(64);
    const std::size_t t = xc::detail::kMaxIfmaTerms;
    const std::vector<std::vector<uint64_t>> top(
        t, std::vector<uint64_t>(n, q.value() - 1));
    expect_dot_matches(n, q, t, top, top);
    // q - 1 squared t times is t mod q.
    std::vector<const uint64_t *> p(t, top[0].data());
    std::vector<uint64_t> got(n);
    xc::detail::dot_mod(p, p, got, q);
    EXPECT_EQ(got[0], t % q.value());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPrimes, DotModTest,
    ::testing::Combine(::testing::Values(8, 13, 4096),
                       ::testing::ValuesIn(kPrimes)),
    [](const ::testing::TestParamInfo<DotParam> &info) {
        const PrimeChoice c = std::get<1>(info.param);
        std::ostringstream name;
        name << "n" << std::get<0>(info.param) << "_q" << c.bits << "bit_rank"
             << c.rank;
        return name.str();
    });

// ---------------------------------------------------------------------------
// divide_round_limb: the dropped limb r is under a 60-bit prime (the
// key-switch mod-down) or a 50-bit one (Rescale), limb j under each prime.
// ---------------------------------------------------------------------------

using LimbParam = std::tuple<std::size_t, PrimeChoice, int>;

class DivideRoundLimbTest : public ::testing::TestWithParam<LimbParam> {};

TEST_P(DivideRoundLimbTest, MatchesScalar) {
    const auto [n, choice, drop_bits] = GetParam();
    const auto qj = choice.prime(n);
    // Rank 3: distinct from every q_j of kPrimes.
    const auto q_drop = xu::generate_ntt_primes(drop_bits, n, 4)[3];
    const xn::NttTables table(n, qj);
    uint64_t inv = 0;
    ASSERT_TRUE(xu::try_invert_mod(q_drop.value(), qj, &inv));
    const xu::MultiplyModOperand inv_op(inv, qj);
    const uint64_t half = xu::barrett_reduce_64(q_drop.value() / 2, qj);

    const auto r = words(n, q_drop.value(), 11);
    const auto s = words(n, qj.value(), 12);
    for (const uint64_t d_seed : {0, 13}) {
        // A zeroed accumulator (Rescale's output) and a full one.
        const auto d0 = d_seed == 0 ? std::vector<uint64_t>(n, 0)
                                    : words(n, qj.value(), d_seed);
        auto expect = d0, got = d0;
        std::vector<uint64_t> t_expect(n), t_got(n);
        xc::detail::divide_round_limb_scalar(r, s, expect, t_expect,
                                             table, inv_op, half);
        xc::detail::divide_round_limb(r, s, got, t_got, table, inv_op,
                                      half);
        ASSERT_EQ(got, expect) << "d_seed=" << d_seed;
        ASSERT_EQ(t_got, t_expect) << "d_seed=" << d_seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPrimes, DivideRoundLimbTest,
    ::testing::Combine(::testing::Values(16, 1024, 8192),
                       ::testing::ValuesIn(kPrimes), ::testing::Values(50, 60)),
    [](const ::testing::TestParamInfo<LimbParam> &info) {
        const PrimeChoice c = std::get<1>(info.param);
        std::ostringstream name;
        name << "N" << std::get<0>(info.param) << "_q" << c.bits << "bit_rank"
             << c.rank << "_drop" << std::get<2>(info.param) << "bit";
        return name.str();
    });
