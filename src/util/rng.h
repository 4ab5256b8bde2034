// Randomness for key generation and encryption: uniform residues, ternary
// secrets, and a centered-binomial error sampler standing in for the
// discrete Gaussian (standard deviation ~3.2, as in SEAL).
//
// Every draw comes from util::Mt19937_64, an implementation of the
// standard's mt19937_64 that produces exactly its output sequence (which
// [rand.predef] fixes bit for bit) but twists without a data-dependent
// branch and can emit a whole state's worth of words at once.
#pragma once

#include <algorithm>
#include <array>
#include <random>
#include <span>

#include "util/modarith.h"

namespace xehe::util {

/// The 64-bit Mersenne Twister of the C++ standard (std::mt19937_64):
/// same seeding, recurrence and tempering, so the same output for the same
/// seed.  It differs only in speed: the twist selects the matrix term with
/// a mask where libstdc++ branches on the low bit of each word (a branch
/// that mispredicts about half the time), and block() twists once and
/// tempers all 312 words into a caller buffer.  A UniformRandomBitGenerator,
/// so standard distributions drawn from it match those drawn from
/// std::mt19937_64.
class Mt19937_64 {
public:
    using result_type = uint64_t;
    static constexpr std::size_t kStateSize = 312;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    explicit Mt19937_64(result_type seed = 5489u) noexcept {
        state_[0] = seed;
        for (std::size_t i = 1; i < kStateSize; ++i) {
            const uint64_t prev = state_[i - 1];
            state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
        }
    }

    result_type operator()() noexcept {
        if (next_ == kStateSize) {
            twist();
            next_ = 0;
        }
        return temper(state_[next_++]);
    }

    /// Writes the next kStateSize outputs to `out`: the same words, in the
    /// same order, as kStateSize calls of operator() (from any position).
    void block(std::span<result_type, kStateSize> out) noexcept {
        const std::size_t tail = kStateSize - next_;
        for (std::size_t i = 0; i < tail; ++i) {
            out[i] = temper(state_[next_ + i]);
        }
        twist();
        for (std::size_t i = 0; i < next_; ++i) {
            out[tail + i] = temper(state_[i]);
        }
    }

private:
    static constexpr std::size_t kShift = 156;  // the standard's m
    static constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ull;
    static constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
    static constexpr uint64_t kLowerMask = ~kUpperMask;

    static uint64_t mix(uint64_t upper, uint64_t lower,
                        uint64_t far) noexcept {
        const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
    }

    static uint64_t temper(uint64_t x) noexcept {
        x ^= (x >> 29) & 0x5555555555555555ull;
        x ^= (x << 17) & 0x71D67FFFEDA60000ull;
        x ^= (x << 37) & 0xFFF7EEE000000000ull;
        return x ^ (x >> 43);
    }

    /// Regenerates the whole state; as in the standard, word k mixes words
    /// k and k+1 with word k+156 (mod 312), the latter already regenerated
    /// for k >= 156.
    void twist() noexcept {
        std::size_t k = 0;
        for (; k < kStateSize - kShift; ++k) {
            state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
        }
        for (; k < kStateSize - 1; ++k) {
            state_[k] = mix(state_[k], state_[k + 1],
                            state_[k + kShift - kStateSize]);
        }
        state_[k] = mix(state_[k], state_[0], state_[kShift - 1]);
    }

    std::array<uint64_t, kStateSize> state_{};
    std::size_t next_ = kStateSize;  ///< next state word to temper
};

class RandomGenerator {
public:
    explicit RandomGenerator(uint64_t seed = 0x5EA1C0DEull) : engine_(seed) {}

    uint64_t uniform_uint64() { return engine_(); }

    // Uniform residue sampling lives in expand_uniform_seeded below: the
    // seed-compressed wire format must re-expand identically everywhere,
    // so nothing may sample uniforms through the implementation-defined
    // std::uniform_int_distribution.

    /// Samples a ternary coefficient in {-1, 0, 1}, returned as a signed int.
    int ternary() {
        std::uniform_int_distribution<int> dist(-1, 1);
        return dist(engine_);
    }

    /// Centered binomial error with standard deviation ~3.2 (eta = 21 gives
    /// sigma = sqrt(21/2) ~ 3.24), clipped implicitly by construction.
    int cbd_error() {
        int sum = 0;
        for (int i = 0; i < 21; ++i) {
            sum += static_cast<int>(engine_() & 1);
            sum -= static_cast<int>(engine_() & 1);
        }
        return sum;
    }

private:
    Mt19937_64 engine_;
};

/// Expands `seed` into uniform residues mod `moduli[r]` for each of the
/// `moduli.size()` components of one RNS polynomial (n words each), writing
/// component r into out[r*n .. r*n+n).
///
/// This is the expansion behind wire seed compression: the uniform `a`
/// component of fresh keys and symmetric ciphertexts travels as its seed
/// and is regenerated on load (and on a serve::KeyManager miss), so the
/// expansion must be reproducible everywhere.  It therefore uses rejection
/// sampling on the words of Mt19937_64 — the standard's mt19937_64
/// sequence, which tests pin against std::mt19937_64 — instead of
/// std::uniform_int_distribution, whose algorithm is implementation-defined
/// and may differ across standard libraries.
inline void expand_uniform_seeded(std::span<uint64_t> out,
                                  std::span<const Modulus> moduli,
                                  std::size_t n, uint64_t seed) {
    Mt19937_64 engine(seed);
    std::array<uint64_t, Mt19937_64::kStateSize> words{};
    std::size_t used = words.size();
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        // A local copy: stores to `out` cannot alias it, so the Barrett
        // constants stay in registers.
        const Modulus q = moduli[r];
        // Largest multiple of q representable in 64 bits; values at or
        // above it are rejected so that x mod q is exactly uniform.
        const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % q.value());
        uint64_t *dst = out.data() + r * n;
        std::size_t k = 0;
        while (k < n) {
            if (used == words.size()) {
                engine.block(words);
                used = 0;
            }
            // Each word is reduced and stored at dst[k], and k advances
            // only when the word is accepted: no branch on the rejection.
            // At most n - k words are read, so dst[k] stays in bounds.
            const std::size_t end =
                std::min(words.size(), used + (n - k));
            for (; used < end; ++used) {
                const uint64_t x = words[used];
                dst[k] = barrett_reduce_64(x, q);
                k += x < limit ? 1 : 0;
            }
        }
    }
}

/// Maps a signed small value into [0, q) (centered representation).
inline uint64_t signed_to_mod(int value, const Modulus &q) {
    return value >= 0 ? static_cast<uint64_t>(value)
                      : q.value() - static_cast<uint64_t>(-value);
}

}  // namespace xehe::util
