// Correctness of the reference negacyclic NTT against the O(N^2) oracle,
// roundtrip identities, the convolution theorem, and the dispatched
// (AVX-512 IFMA52 or 64-bit AVX-512F/DQ where available) transforms
// against the scalar loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

#include "ntt/ntt_ref.h"
#include "test_common.h"
#include "util/avx512.h"

namespace xn = xehe::ntt;
namespace xu = xehe::util;

using xehe::test::PrimeChoice;
using xehe::test::random_poly;

class NttRefTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttRefTest, MatchesNaiveDft) {
    const std::size_t n = GetParam();
    const auto q = xu::generate_ntt_primes(40, n, 1)[0];
    const xn::NttTables tables(n, q);
    auto a = random_poly(n, q, n);
    std::vector<uint64_t> expect(n);
    xn::naive_negacyclic_ntt(a, expect, tables);
    xn::ntt_forward(a, tables);
    EXPECT_EQ(a, expect);
}

TEST_P(NttRefTest, Roundtrip) {
    const std::size_t n = GetParam();
    const auto q = xu::generate_ntt_primes(50, n, 1)[0];
    const xn::NttTables tables(n, q);
    const auto original = random_poly(n, q, n + 1);
    auto a = original;
    xn::ntt_forward(a, tables);
    xn::ntt_inverse(a, tables);
    EXPECT_EQ(a, original);
}

TEST_P(NttRefTest, InverseThenForwardRoundtrip) {
    const std::size_t n = GetParam();
    const auto q = xu::generate_ntt_primes(50, n, 1)[0];
    const xn::NttTables tables(n, q);
    const auto original = random_poly(n, q, n + 2);
    auto a = original;
    xn::ntt_inverse(a, tables);
    xn::ntt_forward(a, tables);
    EXPECT_EQ(a, original);
}

TEST_P(NttRefTest, ConvolutionTheorem) {
    const std::size_t n = GetParam();
    const auto q = xu::generate_ntt_primes(50, n, 1)[0];
    const xn::NttTables tables(n, q);
    auto a = random_poly(n, q, 2 * n);
    auto b = random_poly(n, q, 2 * n + 1);
    std::vector<uint64_t> expect(n);
    xn::naive_negacyclic_multiply(a, b, expect, q);

    xn::ntt_forward(a, tables);
    xn::ntt_forward(b, tables);
    std::vector<uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) {
        c[i] = xu::mul_mod(a[i], b[i], q);
    }
    xn::ntt_inverse(c, tables);
    EXPECT_EQ(c, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttRefTest,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256, 512));

TEST(NttTables, RejectsBadParams) {
    const auto q = xu::generate_ntt_primes(40, 64, 1)[0];
    EXPECT_THROW(xn::NttTables(63, q), std::invalid_argument);
    // A prime that is not 1 mod 2N.
    EXPECT_THROW(xn::NttTables(1ull << 20, xu::Modulus(q.value())),
                 std::invalid_argument);
}

TEST(NttTables, PsiIsPrimitiveRoot) {
    const std::size_t n = 256;
    const auto q = xu::generate_ntt_primes(45, n, 1)[0];
    const xn::NttTables tables(n, q);
    EXPECT_EQ(xu::pow_mod(tables.psi(), n, q), q.value() - 1);
    EXPECT_EQ(xu::pow_mod(tables.psi(), 2 * n, q), 1ull);
    // inv_degree * N == 1.
    EXPECT_EQ(xu::mul_mod(tables.inv_degree().operand, n, q), 1ull);
}

TEST(NttRef, LinearityProperty) {
    const std::size_t n = 128;
    const auto q = xu::generate_ntt_primes(50, n, 1)[0];
    const xn::NttTables tables(n, q);
    auto a = random_poly(n, q, 77);
    auto b = random_poly(n, q, 78);
    std::vector<uint64_t> sum(n);
    for (std::size_t i = 0; i < n; ++i) {
        sum[i] = xu::add_mod(a[i], b[i], q);
    }
    xn::ntt_forward(a, tables);
    xn::ntt_forward(b, tables);
    xn::ntt_forward(sum, tables);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sum[i], xu::add_mod(a[i], b[i], q));
    }
}

TEST(NttRef, ConstantPolynomialTransformsToConstant) {
    // NTT of the constant polynomial c is the all-c vector (x^0 evaluates
    // to 1 everywhere).
    const std::size_t n = 64;
    const auto q = xu::generate_ntt_primes(40, n, 1)[0];
    const xn::NttTables tables(n, q);
    std::vector<uint64_t> a(n, 0);
    a[0] = 12345 % q.value();
    xn::ntt_forward(a, tables);
    for (auto x : a) {
        EXPECT_EQ(x, 12345 % q.value());
    }
}

// ---------------------------------------------------------------------------
// Dispatched transforms against the scalar loops, word for word.  On a CPU
// with AVX-512 IFMA the dispatched path is the IFMA52 code for every prime
// below 2^50, and on one with AVX-512F/DQ the 64-bit lanes for the rest
// (51- to 61-bit, the 60-bit special prime and the largest 61-bit NTT
// prime included); detail::path names the one taken.
// ---------------------------------------------------------------------------

using DiffParam = std::tuple<std::size_t, PrimeChoice>;

class NttDispatchTest : public ::testing::TestWithParam<DiffParam> {
protected:
    std::size_t n() const { return std::get<0>(GetParam()); }

    xu::Modulus prime() const { return std::get<1>(GetParam()).prime(n()); }

    /// Random residues, all zeros, all q - 1, and lazy words below
    /// `lazy_bound`·q (random, the first eight at the bound minus one).
    std::vector<std::vector<uint64_t>> inputs(const xu::Modulus &q,
                                              uint64_t lazy_bound) const {
        std::vector<uint64_t> lazy(n());
        std::mt19937_64 rng(n() ^ q.value());
        for (auto &x : lazy) {
            x = rng() % (lazy_bound * q.value());
        }
        std::fill_n(lazy.begin(), 8, lazy_bound * q.value() - 1);
        return {random_poly(n(), q, n() + 3), std::vector<uint64_t>(n(), 0),
                std::vector<uint64_t>(n(), q.value() - 1), lazy};
    }
};

TEST_P(NttDispatchTest, ForwardMatchesScalar) {
    const auto q = prime();
    const xn::NttTables tables(n(), q);
    for (const auto &input : inputs(q, 4)) {
        auto expect = input;
        xn::detail::forward_scalar(expect, tables);
        auto got = input;
        xn::ntt_forward(got, tables);
        ASSERT_EQ(got, expect);
    }
}

TEST_P(NttDispatchTest, InverseMatchesScalar) {
    const auto q = prime();
    const xn::NttTables tables(n(), q);
    for (const auto &input : inputs(q, 2)) {
        auto expect = input;
        xn::detail::inverse_scalar(expect, tables);
        auto got = input;
        xn::ntt_inverse(got, tables);
        ASSERT_EQ(got, expect);
    }
}

TEST_P(NttDispatchTest, RoundtripMatchesScalar) {
    const auto q = prime();
    const xn::NttTables tables(n(), q);
    for (const auto &input : inputs(q, 4)) {
        auto expect = input;
        xn::detail::forward_scalar(expect, tables);
        xn::detail::inverse_scalar(expect, tables);
        auto got = input;
        xn::ntt_forward(got, tables);
        xn::ntt_inverse(got, tables);
        ASSERT_EQ(got, expect);
        for (std::size_t i = 0; i < n(); ++i) {
            ASSERT_EQ(got[i], input[i] % q.value()) << "i=" << i;
        }
    }
}

TEST_P(NttDispatchTest, DispatchRule) {
    using Path = xn::detail::Path;
    const auto q = prime();
    const xn::NttTables tables(n(), q);
    Path expect = Path::scalar;
    if (q.value() < (1ull << 50) && xu::avx512::has_ifma()) {
        expect = Path::ifma;
    } else if (xu::avx512::has_dq()) {
        expect = Path::avx512;
    }
    EXPECT_EQ(xn::detail::path(tables), expect);
    RecordProperty("path", static_cast<int>(expect));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPrimes, NttDispatchTest,
    ::testing::Combine(
        ::testing::Values(16, 32, 64, 256, 1024, 8192, 32768),
        ::testing::Values(PrimeChoice{30, 0}, PrimeChoice{40, 0},
                          PrimeChoice{50, 2}, PrimeChoice{50, 0},
                          PrimeChoice{51, 0}, PrimeChoice{55, 1},
                          PrimeChoice{60, 0}, PrimeChoice{61, 3},
                          PrimeChoice{61, 0})),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        const PrimeChoice c = std::get<1>(info.param);
        return "N" + std::to_string(std::get<0>(info.param)) + "_q" +
               std::to_string(c.bits) + "bit" +
               (c.rank == 0 ? "_largest" : "_rank" + std::to_string(c.rank));
    });

TEST(NttDispatch, SmallTransformsTakeTheScalarLoops) {
    for (const std::size_t n : {1, 2, 4, 8}) {
        for (const int bits : {50, 60}) {
            const xn::NttTables tables(n,
                                       xu::generate_ntt_primes(bits, n, 1)[0]);
            EXPECT_EQ(xn::detail::path(tables), xn::detail::Path::scalar)
                << "n=" << n << " bits=" << bits;
        }
    }
}

TEST(NttDispatch, LargestPrimeLazyInputsMatchScalar) {
    // The largest 61-bit NTT prime with every word at the top of the lazy
    // ranges, where 4q - 1 is within 2^61 of 2^63 and the 64-bit lanes'
    // high products are largest.
    const std::size_t n = 4096;
    const xn::NttTables tables(n, xu::generate_ntt_primes(61, n, 1)[0]);
    const uint64_t q = tables.modulus().value();
    for (const uint64_t top : {4 * q - 1, 2 * q - 1}) {
        std::vector<uint64_t> expect(n, top), got(n, top);
        if (top == 4 * q - 1) {
            xn::detail::forward_scalar(expect, tables);
            xn::ntt_forward(got, tables);
        } else {
            xn::detail::inverse_scalar(expect, tables);
            xn::ntt_inverse(got, tables);
        }
        ASSERT_EQ(got, expect) << "top=" << top;
    }
}
