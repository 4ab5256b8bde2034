// Key material and key generation: secret/public keys, relinearization keys
// for s^2 and Galois keys for rotations — the KeyGen primitive of
// Section II-A, with SEAL-style single-special-prime key switching keys.
#pragma once

#include <map>

#include "ckks/galois.h"
#include "util/rng.h"

namespace xehe::ckks {

/// Ternary secret key in NTT form over the full key base (rns = key_rns).
struct SecretKey {
    std::vector<uint64_t> data;
};

/// pk = (-(a·s + e), a) over the full key base, NTT form.
struct PublicKey {
    Ciphertext ct;
};

/// One key-switching key: for each decomposition index i < L, an encryption
/// of P · t · δ_i under s (the P·t term lands only in RNS component i).
struct KSwitchKey {
    std::vector<Ciphertext> keys;
};

/// Throws std::invalid_argument unless `key` can switch an `l`-limb
/// target under `context`: at least l key ciphertexts, each of size 2 and
/// degree N over the full key base.  Both evaluators check this before
/// reading a key word, so keys of another context fail cleanly.
void require_kswitch_key(const CkksContext &context, const KSwitchKey &key,
                         std::size_t l);

/// Key modulus of prime j of an `l`-limb key switch's extended base
/// {q_0..q_{l-1}, p}: data prime j for j < l, the special prime for j = l.
inline std::size_t kswitch_modulus_index(const CkksContext &context,
                                         std::size_t l, std::size_t j) {
    return j < l ? j : context.key_rns() - 1;
}

struct RelinKeys {
    KSwitchKey key;  ///< switches s^2 -> s
};

struct GaloisKeys {
    std::map<uint64_t, KSwitchKey> keys;  ///< galois element -> key

    bool has(uint64_t galois_elt) const { return keys.count(galois_elt) != 0; }
    const KSwitchKey &key(uint64_t galois_elt) const {
        util::require(has(galois_elt), "missing galois key");
        return keys.at(galois_elt);
    }
};

class KeyGenerator {
public:
    explicit KeyGenerator(const CkksContext &context, uint64_t seed = 0x5EA1);

    const SecretKey &secret_key() const noexcept { return secret_key_; }

    PublicKey create_public_key();
    RelinKeys create_relin_keys();
    /// Galois keys for the given rotation steps.
    GaloisKeys create_galois_keys(std::span<const int> steps);
    /// A Galois key for complex conjugation.
    GaloisKeys create_conjugation_keys();

private:
    /// (c0, c1) = (-(a·s + e), a) over the full key base, NTT form.  The
    /// uniform `a` is expanded from a freshly drawn seed, which is
    /// returned so the caller can mark the ciphertext seed-compressible.
    uint64_t encrypt_zero_symmetric(std::span<uint64_t> c0,
                                    std::span<uint64_t> c1);
    KSwitchKey make_kswitch_key(std::span<const uint64_t> target);

    const CkksContext *context_;
    util::RandomGenerator rng_;
    GaloisTool galois_;
    SecretKey secret_key_;
};

}  // namespace xehe::ckks
