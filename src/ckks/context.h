// Encryption parameters and precomputation context for RNS-CKKS.
//
// Follows the SEAL convention: `coeff_modulus` lists L data primes followed
// by one special prime used only for key switching.  Fresh ciphertexts live
// under the L data primes; Rescale and ModSwitch drop data primes one at a
// time (the "level" of a ciphertext is its active data-prime count).
#pragma once

#include <span>
#include <vector>

#include "ntt/ntt_tables.h"
#include "util/modarith.h"

namespace xehe::ckks {

using ntt::NttTables;
using util::Modulus;
using util::MultiplyModOperand;

struct EncryptionParameters {
    std::size_t poly_degree = 0;          ///< N, a power of two
    std::vector<Modulus> coeff_modulus;   ///< L data primes + 1 special prime

    /// Convenience factory: N, L data primes of `data_bits` bits and one
    /// special prime of `special_bits` bits, all NTT-friendly.
    static EncryptionParameters create(std::size_t poly_degree,
                                       std::size_t levels,
                                       int data_bits = 50,
                                       int special_bits = 60);
};

class CkksContext {
public:
    explicit CkksContext(EncryptionParameters params);

    std::size_t n() const noexcept { return params_.poly_degree; }
    std::size_t slots() const noexcept { return n() / 2; }
    int log_n() const noexcept { return log_n_; }

    /// All key-switching moduli (data primes + special prime).
    const std::vector<Modulus> &key_modulus() const noexcept {
        return params_.coeff_modulus;
    }
    std::size_t key_rns() const noexcept {
        return params_.coeff_modulus.size();
    }

    /// Number of data primes L (the maximum ciphertext level).
    std::size_t max_level() const noexcept { return key_rns() - 1; }

    const Modulus &special_prime() const noexcept {
        return params_.coeff_modulus.back();
    }

    const NttTables &table(std::size_t i) const noexcept { return tables_[i]; }
    /// NTT tables of the first `count` moduli.
    std::span<const NttTables> tables(std::size_t count) const noexcept {
        return {tables_.data(), count};
    }

    /// (q_j)^{-1} mod q_i, for dropping modulus j onto component i < j —
    /// used by Rescale (j = level-1) and key-switch mod-down (j = special).
    const MultiplyModOperand &inv_mod(std::size_t j,
                                      std::size_t i) const noexcept {
        return inv_last_[j][i];
    }
    /// floor(q_j / 2) and its residue mod q_i (rounding correction).
    uint64_t half(std::size_t j) const noexcept { return half_[j]; }
    uint64_t half_mod(std::size_t j, std::size_t i) const noexcept {
        return half_mod_[j][i];
    }

private:
    EncryptionParameters params_;
    int log_n_ = 0;
    std::vector<NttTables> tables_;
    std::vector<std::vector<MultiplyModOperand>> inv_last_;
    std::vector<uint64_t> half_;
    std::vector<std::vector<uint64_t>> half_mod_;
};

}  // namespace xehe::ckks
