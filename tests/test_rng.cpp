// Exactness of the randomness engine: util::Mt19937_64 must reproduce
// std::mt19937_64 word for word (whole blocks and single draws, from any
// position), and every consumer — the seeded uniform expansion behind wire
// seed compression and key re-expansion, and RandomGenerator's secret and
// error samplers — must draw exactly what the standard engine with the
// straightforward algorithm draws.  A mismatch here would silently re-key
// every tenant and change every seeded ciphertext.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

#include "ckks/context.h"
#include "util/rng.h"

namespace xc = xehe::ckks;
namespace xu = xehe::util;

namespace {

constexpr std::size_t kBlock = xu::Mt19937_64::kStateSize;

const uint64_t kSeeds[] = {0, 1, 5489, 0x5EA1C0DE, ~uint64_t{0}};

std::vector<uint64_t> standard_words(uint64_t seed, std::size_t count) {
    std::mt19937_64 engine(seed);
    std::vector<uint64_t> words(count);
    for (auto &w : words) {
        w = engine();
    }
    return words;
}

/// The straightforward expansion: one standard-engine word per candidate,
/// rejected at or above the largest multiple of q, then reduced with `%`.
std::vector<uint64_t> reference_expand(std::span<const xu::Modulus> moduli,
                                       std::size_t n, uint64_t seed,
                                       std::size_t *rejected) {
    std::mt19937_64 engine(seed);
    std::vector<uint64_t> out(moduli.size() * n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const uint64_t q = moduli[r].value();
        const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % q);
        for (std::size_t k = 0; k < n; ++k) {
            uint64_t x = engine();
            while (x >= limit) {
                ++*rejected;
                x = engine();
            }
            out[r * n + k] = x % q;
        }
    }
    return out;
}

std::vector<uint64_t> expand(std::span<const xu::Modulus> moduli,
                             std::size_t n, uint64_t seed) {
    std::vector<uint64_t> out(moduli.size() * n);
    xu::expand_uniform_seeded(out, moduli, n, seed);
    return out;
}

/// RandomGenerator's samplers written against std::mt19937_64.
class ReferenceGenerator {
public:
    explicit ReferenceGenerator(uint64_t seed) : engine_(seed) {}

    uint64_t uniform_uint64() { return engine_(); }

    int ternary() {
        std::uniform_int_distribution<int> dist(-1, 1);
        return dist(engine_);
    }

    int cbd_error() {
        int sum = 0;
        for (int i = 0; i < 21; ++i) {
            sum += static_cast<int>(engine_() & 1);
            sum -= static_cast<int>(engine_() & 1);
        }
        return sum;
    }

private:
    std::mt19937_64 engine_;
};

}  // namespace

TEST(Mt19937_64, SingleDrawsMatchTheStandardEngine) {
    for (const uint64_t seed : kSeeds) {
        SCOPED_TRACE(seed);
        const auto expect = standard_words(seed, 3 * kBlock + 7);
        xu::Mt19937_64 engine(seed);
        for (std::size_t i = 0; i < expect.size(); ++i) {
            ASSERT_EQ(engine(), expect[i]) << "word " << i;
        }
    }
}

TEST(Mt19937_64, BlocksMatchTheStandardEngineFromAnyPosition) {
    std::array<uint64_t, kBlock> block{};
    for (const uint64_t seed : kSeeds) {
        SCOPED_TRACE(seed);
        const auto expect = standard_words(seed, 3 * kBlock + 8);

        // Blocks from a fresh engine, then single draws past them.
        xu::Mt19937_64 aligned(seed);
        std::vector<uint64_t> got;
        for (int b = 0; b < 3; ++b) {
            aligned.block(block);
            got.insert(got.end(), block.begin(), block.end());
        }
        for (int i = 0; i < 7; ++i) {
            got.push_back(aligned());
        }
        EXPECT_EQ(got, std::vector<uint64_t>(expect.begin(),
                                             expect.begin() + got.size()));

        // Single draws first, so every block straddles a twist.
        xu::Mt19937_64 offset(seed);
        got.clear();
        for (int i = 0; i < 7; ++i) {
            got.push_back(offset());
        }
        for (int b = 0; b < 3; ++b) {
            offset.block(block);
            got.insert(got.end(), block.begin(), block.end());
        }
        got.push_back(offset());
        EXPECT_EQ(got, std::vector<uint64_t>(expect.begin(),
                                             expect.begin() + got.size()));
    }
}

// [rand.predef]: the 10000th consecutive invocation of a default-constructed
// mt19937_64 produces 9981545732273789042.
TEST(Mt19937_64, TenThousandthOutputIsTheStandardsValue) {
    xu::Mt19937_64 engine;
    for (int i = 1; i < 10000; ++i) {
        engine();
    }
    EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(Mt19937_64, StandardDistributionsDrawTheSameValues) {
    xu::Mt19937_64 engine(42);
    std::mt19937_64 standard(42);
    std::uniform_int_distribution<int> ints(-7, 1000);
    std::uniform_real_distribution<double> reals(-1.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(ints(engine), ints(standard));
        ASSERT_EQ(reals(engine), reals(standard));
    }
}

TEST(ExpandUniformSeeded, MatchesTheReferenceOnTheKeyChain) {
    const auto moduli =
        xc::EncryptionParameters::create(32768, 8).coeff_modulus;
    ASSERT_EQ(moduli.size(), 9u);
    for (const uint64_t seed : {uint64_t{1}, uint64_t{0x5EA1C0DE}}) {
        SCOPED_TRACE(seed);
        std::size_t rejected = 0;
        EXPECT_EQ(expand(moduli, 32768, seed),
                  reference_expand(moduli, 32768, seed, &rejected));
    }
}

// A 61-bit modulus just under 2^64 / 8 rejects ~4% of words, and n = 1000
// is no multiple of the block size: rejections and block boundaries fall
// in the middle of limbs.
TEST(ExpandUniformSeeded, MatchesTheReferenceThroughFrequentRejections) {
    const uint64_t q61 = 0x1EB851EB851EB851ull;  // ~0.96 * 2^61
    const std::vector<xu::Modulus> moduli = {
        xu::Modulus(q61), xu::Modulus(q61 - 2), xu::Modulus(q61)};
    ASSERT_EQ(moduli[0].bit_count(), 61);
    for (const uint64_t seed : kSeeds) {
        SCOPED_TRACE(seed);
        std::size_t rejected = 0;
        const auto expect = reference_expand(moduli, 1000, seed, &rejected);
        EXPECT_GT(rejected, 60u);  // ~120 expected over 3000 draws
        EXPECT_EQ(expand(moduli, 1000, seed), expect);
    }
}

TEST(RandomGenerator, SamplersMatchTheStandardEngineReference) {
    xu::RandomGenerator rng(0x5EA1C0DE);
    ReferenceGenerator ref(0x5EA1C0DE);
    // 10^4 draws of each sampler, interleaved.
    for (int i = 0; i < 30000; ++i) {
        switch (i % 3) {
        case 0:
            ASSERT_EQ(rng.uniform_uint64(), ref.uniform_uint64()) << i;
            break;
        case 1:
            ASSERT_EQ(rng.ternary(), ref.ternary()) << i;
            break;
        default:
            ASSERT_EQ(rng.cbd_error(), ref.cbd_error()) << i;
            break;
        }
    }
}
