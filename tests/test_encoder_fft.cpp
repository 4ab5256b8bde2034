// Properties of the encoder's complex negacyclic FFT and of the encoding
// itself: transform roundtrips, linearity, conjugate symmetry, Parseval-ish
// magnitude preservation, and scale handling; golden digests that pin encode
// and decode (CRT composition included) bit for bit; and the rejection of
// malformed plaintexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>

#include "ckks/encoder.h"
#include "test_common.h"

namespace xc = xehe::ckks;
using xehe::test::complexd;
using xehe::test::max_abs_diff;
using xehe::test::random_complex;

class ComplexFftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ComplexFftTest, ForwardInverseRoundtrip) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    const auto original = random_complex(n, n);
    auto a = original;
    fft.forward(a);
    fft.inverse(a);
    EXPECT_LT(max_abs_diff(a, original), 1e-10);
}

TEST_P(ComplexFftTest, InverseForwardRoundtrip) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    const auto original = random_complex(n, n + 1);
    auto a = original;
    fft.inverse(a);
    fft.forward(a);
    EXPECT_LT(max_abs_diff(a, original), 1e-10);
}

TEST_P(ComplexFftTest, Linearity) {
    const std::size_t n = GetParam();
    const xc::ComplexFft fft(n);
    auto a = random_complex(n, 2 * n);
    auto b = random_complex(n, 2 * n + 1);
    std::vector<complexd> sum(n);
    for (std::size_t i = 0; i < n; ++i) {
        sum[i] = 2.0 * a[i] + b[i];
    }
    fft.forward(a);
    fft.forward(b);
    fft.forward(sum);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + b[i])), 1e-9);
    }
}

TEST_P(ComplexFftTest, MatchesDirectEvaluation) {
    // forward output j equals the polynomial evaluated at
    // psi^(2*bitrev(j)+1) with psi = e^{i pi / n}.
    const std::size_t n = GetParam();
    if (n > 64) {
        GTEST_SKIP() << "O(N^2) oracle kept small";
    }
    const xc::ComplexFft fft(n);
    const auto a = random_complex(n, 3 * n);
    auto transformed = a;
    fft.forward(transformed);
    const int log_n = xehe::util::log2_exact(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double angle = std::numbers::pi / static_cast<double>(n) *
                             (2.0 * xehe::util::reverse_bits(j, log_n) + 1.0);
        const complexd zeta{std::cos(angle), std::sin(angle)};
        complexd acc{0, 0}, power{1, 0};
        for (std::size_t k = 0; k < n; ++k) {
            acc += a[k] * power;
            power *= zeta;
        }
        EXPECT_LT(std::abs(transformed[j] - acc), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ComplexFftTest,
                         ::testing::Values(2, 4, 16, 64, 256, 2048));

TEST(Encoder, EncodingIsAdditivelyHomomorphic) {
    const xc::CkksContext context(xc::EncryptionParameters::create(2048, 2));
    const xc::CkksEncoder encoder(context);
    const double scale = std::ldexp(1.0, 40);
    const auto a = random_complex(encoder.slots(), 11);
    const auto b = random_complex(encoder.slots(), 12);
    const auto pa = encoder.encode(std::span<const complexd>(a), scale);
    const auto pb = encoder.encode(std::span<const complexd>(b), scale);
    // Add plaintext polynomials componentwise.
    xc::Plaintext sum = pa;
    for (std::size_t r = 0; r < pa.rns; ++r) {
        const auto &q = context.key_modulus()[r];
        for (std::size_t i = 0; i < pa.n; ++i) {
            sum.data[r * pa.n + i] = xehe::util::add_mod(
                pa.data[r * pa.n + i], pb.data[r * pa.n + i], q);
        }
    }
    const auto decoded = encoder.decode(sum);
    for (std::size_t i = 0; i < encoder.slots(); ++i) {
        EXPECT_LT(std::abs(decoded[i] - (a[i] + b[i])), 1e-6);
    }
}

TEST(Encoder, ScaleControlsPrecision) {
    const xc::CkksContext context(xc::EncryptionParameters::create(2048, 2));
    const xc::CkksEncoder encoder(context);
    const auto values = random_complex(encoder.slots(), 13);
    double coarse_err = 0, fine_err = 0;
    for (auto [scale, err] : {std::pair<double, double *>{std::ldexp(1.0, 20),
                                                          &coarse_err},
                              std::pair<double, double *>{std::ldexp(1.0, 45),
                                                          &fine_err}}) {
        const auto plain = encoder.encode(std::span<const complexd>(values),
                                          scale);
        const auto decoded = encoder.decode(plain);
        for (std::size_t i = 0; i < values.size(); ++i) {
            *err = std::max(*err, std::abs(decoded[i] - values[i]));
        }
    }
    EXPECT_LT(fine_err, coarse_err / 1e4)
        << "larger scale must give far better precision";
}

TEST(Encoder, PurelyImaginaryValuesSurvive) {
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    const xc::CkksEncoder encoder(context);
    std::vector<complexd> values(encoder.slots(), complexd{0.0, 1.0});
    const auto plain =
        encoder.encode(std::span<const complexd>(values), std::ldexp(1.0, 40));
    const auto decoded = encoder.decode(plain);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_NEAR(decoded[i].real(), 0.0, 1e-7);
        EXPECT_NEAR(decoded[i].imag(), 1.0, 1e-7);
    }
}

TEST(Encoder, DecodeAfterModSwitchSemantics) {
    // Dropping the last RNS component of a plaintext must not change the
    // decoded values (the message is far below the remaining modulus).
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 3));
    const xc::CkksEncoder encoder(context);
    const auto values = random_complex(encoder.slots(), 14);
    auto plain = encoder.encode(std::span<const complexd>(values),
                                std::ldexp(1.0, 40));
    xc::Plaintext dropped = plain;
    dropped.rns -= 1;
    dropped.data.resize(dropped.rns * dropped.n);
    const auto decoded = encoder.decode(dropped);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_LT(std::abs(decoded[i] - values[i]), 1e-6);
    }
}

namespace {

/// FNV-1a folded one 64-bit word at a time; doubles fold by bit pattern, so
/// a change in the last ulp of any decoded value changes the digest.
struct WordDigest {
    uint64_t h = 0xcbf29ce484222325ull;

    void word(uint64_t w) { h = (h ^ w) * 0x100000001b3ull; }
    void value(double v) { word(std::bit_cast<uint64_t>(v)); }
};

/// The parameter sets the codec goldens pin: every level of N=1024 L=4 and
/// N=8192 L=3, and the lowest and top level of the paper's N=32K L=8.
struct GoldenCase {
    std::size_t n;
    std::size_t levels;
    std::vector<std::size_t> pinned_levels;
};

std::vector<GoldenCase> golden_cases() {
    return {{1024, 4, {1, 2, 3, 4}}, {8192, 3, {1, 2, 3}}, {32768, 8, {1, 8}}};
}

/// Residues mod q of the coefficients decode treats specially: 0, 1,
/// ±(2^62 - 1), floor(Q/2) and floor(Q/2) + 1 (residues (q-1)/2 and
/// (q+1)/2, since Q is odd), and Q - 1.
std::array<uint64_t, 7> edge_residues(uint64_t q) {
    const uint64_t big = ((1ull << 62) - 1) % q;
    return {0, 1, big, (q - big) % q, (q - 1) / 2, (q + 1) / 2, q - 1};
}

}  // namespace

// Pins decode bit for bit: seeded full-range residue plaintexts, and one
// plaintext per edge coefficient built in coefficient form and moved to the
// NTT domain.  CRT composition, centering and the forward FFT all feed it.
TEST(Encoder, DecodeMatchesGoldenDigest) {
    const uint64_t expected[] = {0x14f8c2f4dd291b31ull, 0xdee0c79d7b6c0c59ull,
                                 0x844623341b803fcdull};
    const auto cases = golden_cases();
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const GoldenCase &g = cases[c];
        const xc::CkksContext context(
            xc::EncryptionParameters::create(g.n, g.levels));
        const xc::CkksEncoder encoder(context);
        WordDigest digest;
        const auto fold = [&](const xc::Plaintext &plain) {
            for (const complexd &v : encoder.decode(plain)) {
                digest.value(v.real());
                digest.value(v.imag());
            }
        };
        for (const std::size_t level : g.pinned_levels) {
            xc::Plaintext plain;
            plain.n = g.n;
            plain.rns = level;
            plain.scale = xehe::test::kScale;
            plain.data.resize(level * g.n);
            std::mt19937_64 rng(g.n * 16 + level);
            for (std::size_t r = 0; r < level; ++r) {
                const uint64_t q = context.key_modulus()[r].value();
                for (std::size_t k = 0; k < g.n; ++k) {
                    plain.data[r * g.n + k] = rng() % q;
                }
            }
            fold(plain);

            std::vector<std::array<uint64_t, 7>> edges;
            for (std::size_t r = 0; r < level; ++r) {
                edges.push_back(
                    edge_residues(context.key_modulus()[r].value()));
            }
            for (std::size_t e = 0; e < edges[0].size(); ++e) {
                std::fill(plain.data.begin(), plain.data.end(), 0);
                for (std::size_t r = 0; r < level; ++r) {
                    plain.data[r * g.n + e] = edges[r][e];
                }
                xc::poly::ntt(plain.data, context.tables(level), g.n);
                fold(plain);
            }
        }
        EXPECT_EQ(digest.h, expected[c])
            << "N=" << g.n << " L=" << g.levels << std::hex << " digest 0x"
            << digest.h;
    }
}

// Pins encode bit for bit at the same sizes.  The scale 2^55 keeps every
// mantissa bit of the larger inverse-FFT outputs in the rounded residues.
TEST(Encoder, EncodeMatchesGoldenDigest) {
    const uint64_t expected[] = {0x62eedbeeb7b4e83bull, 0xbafe698594709ebcull,
                                 0x6275cc537421be4full};
    const auto cases = golden_cases();
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const GoldenCase &g = cases[c];
        const xc::CkksContext context(
            xc::EncryptionParameters::create(g.n, g.levels));
        const xc::CkksEncoder encoder(context);
        WordDigest digest;
        for (const std::size_t level : g.pinned_levels) {
            const auto values = random_complex(encoder.slots(), g.n + level);
            const auto plain = encoder.encode(
                std::span<const complexd>(values), std::ldexp(1.0, 55), level);
            for (const uint64_t w : plain.data) {
                digest.word(w);
            }
        }
        EXPECT_EQ(digest.h, expected[c])
            << "N=" << g.n << " L=" << g.levels << std::hex << " digest 0x"
            << digest.h;
    }
}

// A plaintext whose level or data size disagrees with the context is
// rejected before any table or residue is read.
TEST(Encoder, DecodeRejectsMalformedPlaintext) {
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    const xc::CkksEncoder encoder(context);
    const auto values = random_complex(encoder.slots(), 15);
    const auto good = encoder.encode(std::span<const complexd>(values),
                                     xehe::test::kScale);
    ASSERT_NO_THROW(encoder.decode(good));
    const auto rejects = [&](auto &&mutate) {
        xc::Plaintext bad = good;
        mutate(bad);
        EXPECT_THROW(encoder.decode(bad), std::invalid_argument);
    };
    rejects([](xc::Plaintext &p) { p.rns = 0; });
    // One past the data primes (the special prime's slot), and one past
    // every NTT table the context holds.
    rejects([&](xc::Plaintext &p) {
        p.rns = context.max_level() + 1;
        p.data.resize(p.rns * p.n);
    });
    rejects([&](xc::Plaintext &p) {
        p.rns = context.max_level() + 2;
        p.data.resize(p.rns * p.n);
    });
    rejects([](xc::Plaintext &p) { p.data.resize(p.data.size() - 1); });
    rejects([](xc::Plaintext &p) { p.data.resize(p.n); });
    rejects([](xc::Plaintext &p) { p.data.push_back(0); });
    rejects([](xc::Plaintext &p) { p.n /= 2; });
}

TEST(Encoder, PolyNttRejectsSizeMismatch) {
    const xc::CkksContext context(xc::EncryptionParameters::create(1024, 2));
    std::vector<uint64_t> short_poly(2 * context.n() - 1);
    EXPECT_THROW(xc::poly::ntt(short_poly, context.tables(2), context.n()),
                 std::invalid_argument);
    EXPECT_THROW(xc::poly::intt(short_poly, context.tables(2), context.n()),
                 std::invalid_argument);
}
