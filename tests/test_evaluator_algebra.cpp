// Algebraic property tests of the evaluator: homomorphism laws that must
// hold (approximately) through encryption — commutativity, associativity,
// distributivity, rotation composition — plus poly:: helper units.
#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "test_common.h"

namespace xc = xehe::ckks;
namespace xu = xehe::util;

namespace {

/// The shared CKKS bench plus relinearization keys, at the smaller N = 2048
/// parameter set these algebra tests use.
struct AlgebraBench : xehe::test::CkksBench {
    xc::Evaluator &eval = evaluator;
    xc::RelinKeys relin;

    AlgebraBench()
        : xehe::test::CkksBench(2048, 4), relin(keygen.create_relin_keys()) {}
};

const auto &max_diff = xehe::test::max_abs_diff;

}  // namespace

TEST(EvaluatorAlgebra, AddIsCommutativeExactly) {
    AlgebraBench b;
    const auto ca = b.enc(b.values(1)), cb = b.enc(b.values(2));
    EXPECT_EQ(b.eval.add(ca, cb).data, b.eval.add(cb, ca).data);
}

TEST(EvaluatorAlgebra, MultiplyIsCommutativeExactly) {
    AlgebraBench b;
    const auto ca = b.enc(b.values(3)), cb = b.enc(b.values(4));
    EXPECT_EQ(b.eval.multiply(ca, cb).data, b.eval.multiply(cb, ca).data);
}

TEST(EvaluatorAlgebra, AddIsAssociativeExactly) {
    AlgebraBench b;
    const auto ca = b.enc(b.values(5)), cb = b.enc(b.values(6)),
               cc = b.enc(b.values(7));
    EXPECT_EQ(b.eval.add(b.eval.add(ca, cb), cc).data,
              b.eval.add(ca, b.eval.add(cb, cc)).data);
}

TEST(EvaluatorAlgebra, SubEqualsAddNegate) {
    AlgebraBench b;
    const auto ca = b.enc(b.values(8)), cb = b.enc(b.values(9));
    EXPECT_EQ(b.eval.sub(ca, cb).data, b.eval.add(ca, b.eval.negate(cb)).data);
}

TEST(EvaluatorAlgebra, MultiplicationDistributesOverAddition) {
    AlgebraBench b;
    const auto va = b.values(10), vb = b.values(11), vc = b.values(12);
    const auto ca = b.enc(va), cb = b.enc(vb), cc = b.enc(vc);
    // a*(b+c) vs a*b + a*c, both relinearized+rescaled.
    auto lhs = b.eval.rescale(b.eval.relinearize(
        b.eval.multiply(ca, b.eval.add(cb, cc)), b.relin));
    auto rhs = b.eval.add(
        b.eval.rescale(b.eval.relinearize(b.eval.multiply(ca, cb), b.relin)),
        b.eval.rescale(b.eval.relinearize(b.eval.multiply(ca, cc), b.relin)));
    EXPECT_LT(max_diff(b.dec(lhs), b.dec(rhs)), 1e-4);
    std::vector<std::complex<double>> expect(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        expect[i] = va[i] * (vb[i] + vc[i]);
    }
    EXPECT_LT(max_diff(b.dec(lhs), expect), 1e-3);
}

TEST(EvaluatorAlgebra, RotationsCompose) {
    AlgebraBench b;
    const int steps[] = {1, 2, 3};
    const auto gk = b.keygen.create_galois_keys(steps);
    const auto ct = b.enc(b.values(13));
    const auto once_then_twice =
        b.eval.rotate(b.eval.rotate(ct, 1, gk), 2, gk);
    const auto direct = b.eval.rotate(ct, 3, gk);
    EXPECT_LT(max_diff(b.dec(once_then_twice), b.dec(direct)), 1e-3);
}

TEST(EvaluatorAlgebra, FullCycleRotationIsIdentity) {
    AlgebraBench b;
    // Rotating by slots/2 twice returns to the start.
    const int half = static_cast<int>(b.context.slots() / 2);
    const int steps[] = {half};
    const auto gk = b.keygen.create_galois_keys(steps);
    const auto v = b.values(14);
    const auto ct = b.enc(v);
    const auto back = b.eval.rotate(b.eval.rotate(ct, half, gk), half, gk);
    EXPECT_LT(max_diff(b.dec(back), v), 1e-3);
}

TEST(EvaluatorAlgebra, ConjugateOfProductEqualsProductOfConjugates) {
    AlgebraBench b;
    const auto gk = b.keygen.create_conjugation_keys();
    const auto va = b.values(15), vb = b.values(16);
    const auto ca = b.enc(va), cb = b.enc(vb);
    auto prod = b.eval.rescale(
        b.eval.relinearize(b.eval.multiply(ca, cb), b.relin));
    // conj(a*b)
    const auto lhs = b.eval.conjugate(prod, gk);
    std::vector<std::complex<double>> expect(va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        expect[i] = std::conj(va[i] * vb[i]);
    }
    EXPECT_LT(max_diff(b.dec(lhs), expect), 1e-3);
}

TEST(EvaluatorAlgebra, RescaleCommutesWithAddition) {
    AlgebraBench b;
    const auto ca = b.enc(b.values(17)), cb = b.enc(b.values(18));
    auto pa = b.eval.relinearize(b.eval.multiply(ca, cb), b.relin);
    auto pb = b.eval.relinearize(b.eval.multiply(cb, ca), b.relin);
    const auto sum_then_rescale = b.eval.rescale(b.eval.add(pa, pb));
    const auto rescale_then_sum =
        b.eval.add(b.eval.rescale(pa), b.eval.rescale(pb));
    // Rounding differs per path by at most 1 ulp of the dropped prime.
    EXPECT_LT(max_diff(b.dec(sum_then_rescale), b.dec(rescale_then_sum)), 1e-4);
}

TEST(PolyHelpers, AddSubMulDotAgainstScalarLoop) {
    const auto moduli = xu::generate_ntt_primes(40, 64, 2);
    const std::size_t n = 64;
    std::mt19937_64 rng(19);
    std::vector<uint64_t> a(2 * n), b(2 * n);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            a[r * n + i] = rng() % moduli[r].value();
            b[r * n + i] = rng() % moduli[r].value();
        }
    }
    std::vector<uint64_t> out(2 * n), expect(2 * n);
    xc::poly::add(a, b, out, moduli, n);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            expect[r * n + i] = xu::add_mod(a[r * n + i], b[r * n + i],
                                            moduli[r]);
        }
    }
    EXPECT_EQ(out, expect);

    xc::poly::mul(a, b, out, moduli, n);
    std::vector<uint64_t> acc(n);
    const uint64_t *x[] = {a.data(), a.data()}, *y[] = {b.data(), b.data()};
    xc::detail::dot_mod(x, y, acc, moduli[0]);
    for (std::size_t i = 0; i < 2 * n; ++i) {
        const auto &q = moduli[i / n];
        EXPECT_EQ(out[i], xu::mul_mod(a[i], b[i], q));
        if (i < n) {
            EXPECT_EQ(acc[i], xu::add_mod(out[i], out[i], q));
        }
    }

    std::vector<uint64_t> neg(2 * n);
    xc::poly::negate(a, neg, moduli, n);
    xc::poly::add(a, neg, out, moduli, n);
    for (uint64_t x : out) {
        EXPECT_EQ(x, 0ull);
    }
}

TEST(PolyHelpers, SizeMismatchThrows) {
    const auto moduli = xu::generate_ntt_primes(40, 64, 2);
    std::vector<uint64_t> a(100), b(128), out(128);
    EXPECT_THROW(xc::poly::add(a, b, out, moduli, 64), std::invalid_argument);
}
