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

/// Forward/inverse NTT of every component of one RNS polynomial.
void ntt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
         std::size_t n);
void intt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
          std::size_t n);

}  // namespace poly

/// The limb kernels under poly::mul, Evaluator::multiply, the key-switch
/// inner product and the rounded division (Rescale and the key-switch
/// mod-down).  Each runs 8-lane AVX-512 IFMA52 code exactly when
/// uses_ifma(q, ...) holds — the CPU runs AVX-512F, DQ and IFMA (x86-64
/// builds only) and q < 2^50 — and its *_scalar loops otherwise; the
/// scalar loops are the oracle the vector code is tested against.  Inputs
/// are canonical residues (below q), outputs too, so both paths write the
/// same words.
namespace detail {

/// Most terms dot_mod's vector code sums: with a_i, b_i < 2^50 the high
/// halves of 16 products sum below 2^52, the multiplier's input width.
inline constexpr std::size_t kMaxIfmaTerms = 16;

/// True when the kernels below run their vector code for q (and, for
/// dot_mod, t terms).
bool uses_ifma(const Modulus &q, std::size_t terms = 1) noexcept;

/// out[k] = Σ_{i<t} a[i][k]·b[i][k] mod q for k < out.size(), t =
/// a.size() = b.size(); each a[i], b[i] points at out.size() residues.
/// The vector code sums the low and high 52-bit halves of the products
/// apart, then folds the high sum back through 2^52 mod q; the scalar
/// loop sums in 128 bits (t <= 64 for 61-bit q) and reduces once.
void dot_mod(std::span<const uint64_t *const> a,
             std::span<const uint64_t *const> b, std::span<uint64_t> out,
             const Modulus &q);
void dot_mod_scalar(std::span<const uint64_t *const> a,
                    std::span<const uint64_t *const> b,
                    std::span<uint64_t> out, const Modulus &q);

/// One limb j of a rounded division by q_drop: with r the rounded dropped
/// limb in coefficient form (residues below q_drop < 2^61), s and d the
/// NTT-form limb j of the dividend and of the accumulator, and t an
/// n-word buffer the kernel overwrites,
///   t = NTT_j((r - half) mod q_j),   d = d + (s - t)·inv (mod q_j),
/// where half = floor(q_drop / 2) mod q_j and inv = q_drop^{-1} mod q_j.
void divide_round_limb(std::span<const uint64_t> r,
                       std::span<const uint64_t> s, std::span<uint64_t> d,
                       std::span<uint64_t> t, const NttTables &table,
                       const MultiplyModOperand &inv, uint64_t half);
void divide_round_limb_scalar(std::span<const uint64_t> r,
                              std::span<const uint64_t> s,
                              std::span<uint64_t> d,
                              std::span<uint64_t> t,
                              const NttTables &table,
                              const MultiplyModOperand &inv, uint64_t half);

}  // namespace detail
}  // namespace xehe::ckks
