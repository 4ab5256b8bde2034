// CKKS encoder: maps vectors of N/2 complex numbers to plaintext
// polynomials via the canonical embedding (a negacyclic FFT over ℂ with the
// Galois slot ordering), scales by Δ, and carries the result into RNS+NTT
// form — the Encode/Decode primitives of Section II-A.
#pragma once

#include <complex>

#include "ckks/poly.h"

namespace xehe::ckks {

/// Negacyclic complex FFT with the same loop structure and table layout as
/// the integer NTT (ψ = e^{iπ/N}); used only by the encoder.
class ComplexFft {
public:
    explicit ComplexFft(std::size_t n);

    std::size_t n() const noexcept { return n_; }

    /// Decode direction: a[j] <- Σ_k a_k ψ^{(2 bitrev(j)+1) k}.
    void forward(std::span<std::complex<double>> a) const;

    /// Encode direction: exact inverse of forward (includes the 1/N).
    void inverse(std::span<std::complex<double>> a) const;

private:
    std::size_t n_;
    int log_n_;
    std::vector<std::complex<double>> roots_;      // roots_[m+i], bit-reversed
    // sequential-consumption layout
    std::vector<std::complex<double>> inv_roots_;
};

class CkksEncoder {
public:
    explicit CkksEncoder(const CkksContext &context);

    std::size_t slots() const noexcept { return context_->slots(); }

    /// Encodes up to `slots()` complex values at the given scale into a
    /// plaintext with `rns_count` active primes (defaults to max level).
    Plaintext encode(std::span<const std::complex<double>> values, double scale,
                     std::size_t rns_count = 0) const;

    /// Encodes a vector of reals (imaginary parts zero).
    Plaintext encode(std::span<const double> values, double scale,
                     std::size_t rns_count = 0) const;

    /// Encodes a constant into every slot.
    Plaintext encode(double value, double scale,
                     std::size_t rns_count = 0) const;

    /// Inverse of encode.  Each coefficient's residues y_i mod the level's
    /// primes q_0..q_{l-1} are composed by Garner's mixed-radix rule, in
    /// fixed-width words: digits a_0 = y_0 and
    ///   a_i = (y_i - [a_0 + a_1 q_0 + ... + a_{i-1} q_0⋯q_{i-2}]_{q_i}) · c_i
    /// mod q_i, with c_i = (q_0⋯q_{i-1})^{-1} mod q_i, give the unique
    /// x = Σ a_i q_0⋯q_{i-1} < Q_l = q_0⋯q_{l-1}.  Sign convention: an
    /// x >= floor(Q_l / 2) decodes as the negative x - Q_l.  Throws
    /// std::invalid_argument on a plaintext whose degree, level or data
    /// size does not match the context.
    std::vector<std::complex<double>> decode(const Plaintext &plain) const;

private:
    /// Garner digits (the rule on decode) of the x < Q_l with
    /// x ≡ residues[i] (mod q_i), l = residues.size(); residues[i] < q_i.
    void garner_digits(std::span<const uint64_t> residues,
                       std::span<uint64_t> digits) const;

    const CkksContext *context_;
    ComplexFft fft_;
    /// garner_inv_[i] = c_i = (q_0⋯q_{i-1})^{-1} mod q_i; no c_i depends on
    /// the level, so one table serves them all.
    std::vector<MultiplyModOperand> garner_inv_;
    /// radix_mod_[i][j] = q_j mod q_i, for j < i.
    std::vector<std::vector<uint64_t>> radix_mod_;
    /// half_digits_[l] = the Garner digits of floor(Q_l / 2), the sign
    /// threshold at level l.
    std::vector<std::vector<uint64_t>> half_digits_;
    /// Slot i of the message lives at transform position index_map_[i]
    /// (and its conjugate at index_map_[i + slots]): the 3^i Galois
    /// ordering that makes rotations act as cyclic slot shifts.
    std::vector<std::size_t> index_map_;
};

}  // namespace xehe::ckks
