#include "ckks/keys.h"

namespace xehe::ckks {

namespace {

/// Samples a small integer polynomial (one set of integer coefficients) and
/// reduces it consistently into every RNS component, then transforms to NTT.
template <typename Sampler>
std::vector<uint64_t> sample_small_ntt(const CkksContext &ctx, std::size_t rns,
                                       Sampler &&sampler) {
    const std::size_t n = ctx.n();
    std::vector<int> coeffs(n);
    for (auto &c : coeffs) {
        c = sampler();
    }
    std::vector<uint64_t> result(rns * n);
    for (std::size_t r = 0; r < rns; ++r) {
        const auto &q = ctx.key_modulus()[r];
        for (std::size_t k = 0; k < n; ++k) {
            result[r * n + k] = util::signed_to_mod(coeffs[k], q);
        }
    }
    poly::ntt(result, ctx.tables(rns), n);
    return result;
}

}  // namespace

void require_kswitch_key(const CkksContext &context, const KSwitchKey &key,
                         std::size_t l) {
    const std::size_t n = context.n();
    const std::size_t key_rns = context.key_rns();
    util::require(key.keys.size() >= l, "key-switching key too short");
    for (std::size_t i = 0; i < l; ++i) {
        const Ciphertext &k = key.keys[i];
        util::require(k.size == 2 && k.n == n && k.rns == key_rns &&
                          k.data.size() == 2 * key_rns * n,
                      "key-switching key shape mismatch");
    }
}

KeyGenerator::KeyGenerator(const CkksContext &context, uint64_t seed)
    : context_(&context), rng_(seed), galois_(context.n()) {
    secret_key_.data =
        sample_small_ntt(*context_, context_->key_rns(),
                         [&] { return rng_.ternary(); });
}

uint64_t KeyGenerator::encrypt_zero_symmetric(std::span<uint64_t> c0,
                                              std::span<uint64_t> c1) {
    const std::size_t n = context_->n();
    const std::size_t k = context_->key_rns();
    // Uniform a directly in the NTT domain (the NTT is a bijection on
    // R_q), expanded from a per-ciphertext seed so the wire layer can ship
    // the seed instead of the polynomial.
    const uint64_t a_seed = rng_.uniform_uint64();
    util::expand_uniform_seeded(c1, context_->key_modulus(), n, a_seed);
    const auto e =
        sample_small_ntt(*context_, k, [&] { return rng_.cbd_error(); });
    // c0 = -(a·s + e)
    for (std::size_t r = 0; r < k; ++r) {
        const auto &q = context_->key_modulus()[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            const uint64_t as = util::mul_mod(c1[i], secret_key_.data[i], q);
            c0[i] = util::negate_mod(util::add_mod(as, e[i], q), q);
        }
    }
    return a_seed;
}

PublicKey KeyGenerator::create_public_key() {
    PublicKey pk;
    pk.ct.resize(context_->n(), 2, context_->key_rns());
    pk.ct.ntt_form = true;
    pk.ct.a_seed = encrypt_zero_symmetric(pk.ct.poly(0), pk.ct.poly(1));
    pk.ct.a_seeded = true;
    return pk;
}

KSwitchKey KeyGenerator::make_kswitch_key(std::span<const uint64_t> target) {
    const std::size_t n = context_->n();
    const std::size_t k = context_->key_rns();
    const std::size_t decomp = context_->max_level();
    util::require(target.size() == k * n, "target key size mismatch");

    KSwitchKey result;
    result.keys.resize(decomp);
    const uint64_t p = context_->special_prime().value();
    for (std::size_t i = 0; i < decomp; ++i) {
        Ciphertext &key = result.keys[i];
        key.resize(n, 2, k);
        key.ntt_form = true;
        key.a_seed = encrypt_zero_symmetric(key.poly(0), key.poly(1));
        key.a_seeded = true;
        // Add P · t into RNS component i of c0 only.
        const auto &qi = context_->key_modulus()[i];
        const uint64_t factor = util::barrett_reduce_64(p, qi);
        auto c0i = key.component(0, i);
        const auto ti = target.subspan(i * n, n);
        for (std::size_t j = 0; j < n; ++j) {
            c0i[j] = util::mad_mod(ti[j], factor, c0i[j], qi);
        }
    }
    return result;
}

RelinKeys KeyGenerator::create_relin_keys() {
    const std::size_t n = context_->n();
    const std::size_t k = context_->key_rns();
    // Target: s^2, dyadic square in NTT form.
    std::vector<uint64_t> sk_sq(k * n);
    for (std::size_t r = 0; r < k; ++r) {
        const auto &q = context_->key_modulus()[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            sk_sq[i] = util::mul_mod(secret_key_.data[i], secret_key_.data[i],
                                     q);
        }
    }
    RelinKeys keys;
    keys.key = make_kswitch_key(sk_sq);
    return keys;
}

GaloisKeys KeyGenerator::create_galois_keys(std::span<const int> steps) {
    const std::size_t n = context_->n();
    const std::size_t k = context_->key_rns();
    GaloisKeys result;
    for (int step : steps) {
        const uint64_t elt = galois_.elt_from_step(step);
        if (result.has(elt)) {
            continue;
        }
        // Target: s(x^g) in NTT form — the galois image of the secret key.
        std::vector<uint64_t> target(k * n);
        for (std::size_t r = 0; r < k; ++r) {
            galois_.apply_ntt(
                std::span<const uint64_t>(secret_key_.data).subspan(r * n, n),
                elt, std::span<uint64_t>(target).subspan(r * n, n));
        }
        result.keys.emplace(elt, make_kswitch_key(target));
    }
    return result;
}

GaloisKeys KeyGenerator::create_conjugation_keys() {
    const std::size_t n = context_->n();
    const std::size_t k = context_->key_rns();
    const uint64_t elt = galois_.conjugation_elt();
    GaloisKeys result;
    std::vector<uint64_t> target(k * n);
    for (std::size_t r = 0; r < k; ++r) {
        galois_.apply_ntt(
            std::span<const uint64_t>(secret_key_.data).subspan(r * n, n), elt,
            std::span<uint64_t>(target).subspan(r * n, n));
    }
    result.keys.emplace(elt, make_kswitch_key(target));
    return result;
}

}  // namespace xehe::ckks
