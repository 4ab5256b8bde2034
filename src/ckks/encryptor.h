// Public-key encryption and secret-key decryption (Encrypt / Decrypt of
// Section II-A).  Per the paper's design (Fig. 1) these stay on the host;
// only evaluation is GPU-accelerated.
#pragma once

#include "ckks/keys.h"

namespace xehe::ckks {

class Encryptor {
public:
    Encryptor(const CkksContext &context, PublicKey public_key,
              uint64_t seed = 0xE4C12f7);

    /// Additionally holds the secret key, enabling encrypt_symmetric —
    /// the seed-compressible client-side path.  Throws
    /// std::invalid_argument unless the key covers every key limb.
    Encryptor(const CkksContext &context, PublicKey public_key,
              SecretKey secret_key, uint64_t seed = 0xE4C12f7);

    /// Encrypts an NTT-form plaintext:
    /// c = (pk0·u + e0 + m, pk1·u + e1) at the plaintext's level.
    Ciphertext encrypt(const Plaintext &plain);

    /// Secret-key encryption: c = (-(a·s + e) + m, a) with the uniform `a`
    /// expanded from a freshly drawn seed and the seed recorded on the
    /// ciphertext, so wire serialization replaces poly(1) by 8 bytes
    /// (roughly halving the fresh ciphertext's wire size).  Requires the
    /// secret-key constructor.
    Ciphertext encrypt_symmetric(const Plaintext &plain);

private:
    const CkksContext *context_;
    PublicKey public_key_;
    SecretKey secret_key_;
    bool has_secret_key_ = false;
    util::RandomGenerator rng_;
};

class Decryptor {
public:
    /// Throws std::invalid_argument unless the key covers every key limb.
    Decryptor(const CkksContext &context, SecretKey secret_key);

    /// m = c0 + c1·s (+ c2·s^2) mod q_l, NTT form.  Throws
    /// std::invalid_argument on a ciphertext whose size, degree, level or
    /// data size does not match the context.
    Plaintext decrypt(const Ciphertext &ct) const;

private:
    const CkksContext *context_;
    SecretKey secret_key_;
};

}  // namespace xehe::ckks
