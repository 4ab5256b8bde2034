// RNS polynomial storage and elementwise helpers shared by the CKKS
// primitives.  A Plaintext holds one RNS polynomial; a Ciphertext holds
// `size` of them (2 normally, 3 after an unrelinearized multiply),
// laid out contiguously as [poly][rns][N] — the same layout the batched
// GPU NTT dispatcher consumes.
#pragma once

#include <cmath>
#include <vector>

#include "ckks/context.h"
#include "ntt/ntt_ref.h"

namespace xehe::ckks {

struct Plaintext {
    std::vector<uint64_t> data;  ///< rns * n words
    std::size_t n = 0;
    std::size_t rns = 0;         ///< active prime count (the level)
    double scale = 1.0;
    bool ntt_form = true;

    std::span<uint64_t> component(std::size_t r) {
        return {data.data() + r * n, n};
    }
    std::span<const uint64_t> component(std::size_t r) const {
        return {data.data() + r * n, n};
    }
};

struct Ciphertext {
    std::vector<uint64_t> data;  ///< size * rns * n words
    std::size_t n = 0;
    std::size_t size = 0;        ///< number of polynomials (2 or 3)
    std::size_t rns = 0;         ///< active prime count (the level)
    double scale = 1.0;
    bool ntt_form = true;

    /// When `a_seeded`, poly(1) equals util::expand_uniform_seeded(a_seed)
    /// over the active moduli, and wire serialization ships the seed
    /// instead of the polynomial (seed compression).  Only key generation
    /// and symmetric encryption set this; any code that writes poly(1)
    /// without going through resize() must clear it.
    uint64_t a_seed = 0;
    bool a_seeded = false;

    void resize(std::size_t n_, std::size_t size_, std::size_t rns_) {
        n = n_;
        size = size_;
        rns = rns_;
        data.assign(size * rns * n, 0);
        a_seed = 0;
        a_seeded = false;
    }

    std::span<uint64_t> poly(std::size_t p) {
        return {data.data() + p * rns * n, rns * n};
    }
    std::span<const uint64_t> poly(std::size_t p) const {
        return {data.data() + p * rns * n, rns * n};
    }
    std::span<uint64_t> component(std::size_t p, std::size_t r) {
        return {data.data() + (p * rns + r) * n, n};
    }
    std::span<const uint64_t> component(std::size_t p, std::size_t r) const {
        return {data.data() + (p * rns + r) * n, n};
    }
};

/// The evaluators' scale gate: add, sub and add_plain accept two scales
/// only within kScaleGate relative of each other.  The one copy of the
/// test — the evaluators, the compiler's planner and the analyzer all
/// call it, so their point decisions agree bitwise.
inline constexpr double kScaleGate = 1e-6;
inline bool scales_match(double a, double b) {
    return std::abs(a / b - 1.0) < kScaleGate;
}

namespace poly {

using util::Modulus;

/// out = a + b elementwise, one RNS polynomial (rns * n words).
void add(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n);

/// out = a - b.
void sub(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n);

/// out = -a.
void negate(std::span<const uint64_t> a, std::span<uint64_t> out,
            std::span<const Modulus> moduli, std::size_t n);

/// out = a ⊙ b (dyadic product in the NTT domain).
void mul(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n);

/// out += a ⊙ b, using the fused mad_mod.
void mad(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n);

/// Forward/inverse NTT of every component of one RNS polynomial.
void ntt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
         std::size_t n);
void intt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
          std::size_t n);

}  // namespace poly
}  // namespace xehe::ckks
