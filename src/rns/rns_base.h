// Residue number system base: CRT decomposition/composition and the
// precomputed punctured products used everywhere in RNS-CKKS
// (Section II-B of the paper).
#pragma once

#include <span>
#include <vector>

#include "util/biguint.h"
#include "util/modarith.h"

namespace xehe::rns {

using util::BigUInt;
using util::Modulus;
using util::MultiplyModOperand;

class RnsBase {
public:
    /// Moduli must be pairwise coprime (primes in practice).
    explicit RnsBase(std::vector<Modulus> moduli);

    std::size_t size() const noexcept { return moduli_.size(); }
    const Modulus &operator[](std::size_t i) const noexcept {
        return moduli_[i];
    }
    const std::vector<Modulus> &moduli() const noexcept { return moduli_; }

    /// Q = Π q_i.
    const BigUInt &product() const noexcept { return product_; }

    /// Q / q_i.
    const BigUInt &punctured(std::size_t i) const noexcept {
        return punctured_[i];
    }

    /// (Q / q_i)^{-1} mod q_i.
    const MultiplyModOperand &inv_punctured(std::size_t i) const noexcept {
        return inv_punctured_[i];
    }

    /// value mod q_i for every i; value must be < Q.
    void decompose(const BigUInt &value, std::span<uint64_t> out) const;

    /// CRT composition: the unique x < Q with x ≡ residues[i] (mod q_i).
    BigUInt compose(std::span<const uint64_t> residues) const;

private:
    std::vector<Modulus> moduli_;
    BigUInt product_;
    std::vector<BigUInt> punctured_;
    std::vector<MultiplyModOperand> inv_punctured_;
};

/// Fast (approximate, HPS-style) base conversion of RNS residues from base
/// `in` to base `out`:  y_j = Σ_i [x_i · (Q/q_i)^{-1}]_{q_i} · (Q/q_i) mod p_j.
/// The result can be off by a small multiple of Q mod p_j, which key
/// switching tolerates as additional noise.
class BaseConverter {
public:
    BaseConverter(const RnsBase &in, std::vector<Modulus> out);

    /// Converts one residue vector (size of the input base) to base `out`.
    void convert(std::span<const uint64_t> in, std::span<uint64_t> out) const;

private:
    const RnsBase *in_;
    std::vector<Modulus> out_;
    // punctured_mod_out_[j][i] = (Q/q_i) mod p_j
    std::vector<std::vector<uint64_t>> punctured_mod_out_;
};

}  // namespace xehe::rns
