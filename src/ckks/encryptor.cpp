#include "ckks/encryptor.h"

namespace xehe::ckks {

namespace {

/// A secret key covers every key limb (decryption and symmetric encryption
/// slice it at r·N), so a short or long one is refused up front.
SecretKey checked(const CkksContext &context, SecretKey sk) {
    util::require(sk.data.size() == context.key_rns() * context.n(),
                  "secret key does not match the context's key limbs");
    return sk;
}

}  // namespace

Encryptor::Encryptor(const CkksContext &context, PublicKey public_key,
                     uint64_t seed)
    : context_(&context), public_key_(std::move(public_key)), rng_(seed) {}

Encryptor::Encryptor(const CkksContext &context, PublicKey public_key,
                     SecretKey secret_key, uint64_t seed)
    : context_(&context), public_key_(std::move(public_key)),
      secret_key_(checked(context, std::move(secret_key))),
      has_secret_key_(true), rng_(seed) {}

Ciphertext Encryptor::encrypt(const Plaintext &plain) {
    const std::size_t n = context_->n();
    const std::size_t rns = plain.rns;
    util::require(plain.ntt_form, "encrypt expects NTT-form plaintext");
    util::require(rns >= 1 && rns <= context_->max_level(),
                  "bad plaintext level");

    Ciphertext ct;
    ct.resize(n, 2, rns);
    ct.ntt_form = true;
    ct.scale = plain.scale;

    // Shared small polynomials, reduced consistently across components.
    std::vector<int> u_coeffs(n), e0_coeffs(n), e1_coeffs(n);
    for (std::size_t k = 0; k < n; ++k) {
        u_coeffs[k] = rng_.ternary();
        e0_coeffs[k] = rng_.cbd_error();
        e1_coeffs[k] = rng_.cbd_error();
    }

    std::vector<uint64_t> u(n), e(n);
    for (std::size_t r = 0; r < rns; ++r) {
        const auto &q = context_->key_modulus()[r];
        const auto &table = context_->table(r);
        // u in NTT form under q_r.
        for (std::size_t k = 0; k < n; ++k) {
            u[k] = util::signed_to_mod(u_coeffs[k], q);
        }
        ntt::ntt_forward(u, table);

        for (int part = 0; part < 2; ++part) {
            const auto &err = part == 0 ? e0_coeffs : e1_coeffs;
            for (std::size_t k = 0; k < n; ++k) {
                e[k] = util::signed_to_mod(err[k], q);
            }
            ntt::ntt_forward(e, table);
            auto dst = ct.component(part, r);
            const auto pk = public_key_.ct.component(part, r);
            for (std::size_t k = 0; k < n; ++k) {
                dst[k] = util::mad_mod(pk[k], u[k], e[k], q);
            }
        }
        // Add the message into c0.
        auto c0 = ct.component(0, r);
        const auto m = plain.component(r);
        for (std::size_t k = 0; k < n; ++k) {
            c0[k] = util::add_mod(c0[k], m[k], q);
        }
    }
    return ct;
}

Ciphertext Encryptor::encrypt_symmetric(const Plaintext &plain) {
    const std::size_t n = context_->n();
    const std::size_t rns = plain.rns;
    util::require(has_secret_key_,
                  "encrypt_symmetric requires the secret-key constructor");
    util::require(plain.ntt_form, "encrypt expects NTT-form plaintext");
    util::require(rns >= 1 && rns <= context_->max_level(),
                  "bad plaintext level");

    Ciphertext ct;
    ct.resize(n, 2, rns);
    ct.ntt_form = true;
    ct.scale = plain.scale;

    // c1 = a, uniform in the NTT domain, expanded from a fresh seed.
    const std::span<const Modulus> moduli(context_->key_modulus().data(), rns);
    ct.a_seed = rng_.uniform_uint64();
    util::expand_uniform_seeded(ct.poly(1), moduli, n, ct.a_seed);
    ct.a_seeded = true;

    // c0 = -(a·s + e) + m.
    std::vector<int> e_coeffs(n);
    for (auto &c : e_coeffs) {
        c = rng_.cbd_error();
    }
    std::vector<uint64_t> e(n);
    for (std::size_t r = 0; r < rns; ++r) {
        const auto &q = context_->key_modulus()[r];
        const auto &table = context_->table(r);
        for (std::size_t k = 0; k < n; ++k) {
            e[k] = util::signed_to_mod(e_coeffs[k], q);
        }
        ntt::ntt_forward(e, table);
        const auto sk = std::span<const uint64_t>(secret_key_.data)
                            .subspan(r * n, n);
        const auto a = ct.component(1, r);
        const auto m = plain.component(r);
        auto c0 = ct.component(0, r);
        for (std::size_t k = 0; k < n; ++k) {
            const uint64_t as = util::mad_mod(a[k], sk[k], e[k], q);
            c0[k] = util::add_mod(util::negate_mod(as, q), m[k], q);
        }
    }
    return ct;
}

Decryptor::Decryptor(const CkksContext &context, SecretKey secret_key)
    : context_(&context),
      secret_key_(checked(context, std::move(secret_key))) {}

Plaintext Decryptor::decrypt(const Ciphertext &ct) const {
    const std::size_t n = context_->n();
    util::require(ct.ntt_form, "decrypt expects NTT form");
    util::require(ct.size >= 2 && ct.size <= 3, "unsupported ciphertext size");
    util::require(ct.n == n && ct.rns >= 1 && ct.rns <= context_->max_level() &&
                      ct.data.size() == ct.size * ct.rns * n,
                  "malformed ciphertext");

    Plaintext plain;
    plain.n = n;
    plain.rns = ct.rns;
    plain.scale = ct.scale;
    plain.ntt_form = true;
    plain.data.resize(ct.rns * n);

    for (std::size_t r = 0; r < ct.rns; ++r) {
        const auto &q = context_->key_modulus()[r];
        const auto sk = std::span<const uint64_t>(secret_key_.data)
                            .subspan(r * n, n);
        const auto c0 = ct.component(0, r);
        const auto c1 = ct.component(1, r);
        auto out = plain.component(r);
        for (std::size_t k = 0; k < n; ++k) {
            out[k] = util::mad_mod(c1[k], sk[k], c0[k], q);
        }
        if (ct.size == 3) {
            const auto c2 = ct.component(2, r);
            for (std::size_t k = 0; k < n; ++k) {
                const uint64_t sk_sq = util::mul_mod(sk[k], sk[k], q);
                out[k] = util::mad_mod(c2[k], sk_sq, out[k], q);
            }
        }
    }
    return plain;
}

}  // namespace xehe::ckks
