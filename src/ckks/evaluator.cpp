#include "ckks/evaluator.h"

namespace xehe::ckks {

namespace {

/// Divides an RNS polynomial by one of its moduli with rounding — the
/// shared core of Rescale and the key-switch mod-down.  `drop` is the
/// NTT-form limb under key modulus `drop_idx`; for each j < count,
///   r     = INTT(drop) + floor(q_drop / 2)           (mod q_drop),
///   v_j   = (src_j - NTT_j(r - floor(q_drop / 2))) · q_drop^{-1}  (mod q_j),
/// and v_j is added into dst_j (a zeroed dst_j receives v_j itself).
void divide_round(const CkksContext &ctx, std::span<const uint64_t> drop,
                  std::size_t drop_idx, std::span<const uint64_t> src,
                  std::span<uint64_t> dst, std::size_t count) {
    const std::size_t n = ctx.n();
    const Modulus &q_drop = ctx.key_modulus()[drop_idx];
    const uint64_t half = ctx.half(drop_idx);
    std::vector<uint64_t> rounded(drop.begin(), drop.end()), t(n);
    ntt::ntt_inverse(rounded, ctx.table(drop_idx));
    for (auto &x : rounded) {
        x = util::add_mod(x, half, q_drop);
    }
    for (std::size_t j = 0; j < count; ++j) {
        const Modulus &qj = ctx.key_modulus()[j];
        const uint64_t half_j = ctx.half_mod(drop_idx, j);
        for (std::size_t k = 0; k < n; ++k) {
            t[k] = util::sub_mod(util::barrett_reduce_64(rounded[k], qj),
                                 half_j, qj);
        }
        ntt::ntt_forward(t, ctx.table(j));
        const auto &inv = ctx.inv_mod(drop_idx, j);
        const auto sj = src.subspan(j * n, n);
        auto dj = dst.subspan(j * n, n);
        for (std::size_t k = 0; k < n; ++k) {
            const uint64_t v = util::mul_mod(util::sub_mod(sj[k], t[k], qj),
                                             inv, qj);
            dj[k] = util::add_mod(dj[k], v, qj);
        }
    }
}

}  // namespace

Evaluator::Evaluator(const CkksContext &context)
    : context_(&context), galois_(context.n()) {}

void Evaluator::check_compatible(const Ciphertext &a,
                                 const Ciphertext &b) const {
    util::require(a.n == b.n && a.rns == b.rns, "ciphertext level mismatch");
    util::require(a.ntt_form && b.ntt_form, "expected NTT form");
    util::require(scales_match(a.scale, b.scale), "scale mismatch");
}

Ciphertext Evaluator::add(const Ciphertext &a, const Ciphertext &b) const {
    check_compatible(a, b);
    util::require(a.size == b.size, "size mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::add(a.poly(p), b.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const {
    check_compatible(a, b);
    util::require(a.size == b.size, "size mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::sub(a.poly(p), b.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::negate(const Ciphertext &a) const {
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t p = 0; p < a.size; ++p) {
        poly::negate(a.poly(p), out.poly(p), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::add_plain(const Ciphertext &a, const Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n, "level mismatch");
    util::require(scales_match(a.scale, p.scale), "scale mismatch");
    Ciphertext out = a;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    poly::add(a.poly(0), p.data, out.poly(0), moduli, a.n);
    return out;
}

Ciphertext Evaluator::multiply_plain(const Ciphertext &a,
                                     const Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n, "level mismatch");
    Ciphertext out = a;
    out.a_seeded = false;  // poly(1) is rewritten below
    out.scale = a.scale * p.scale;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    for (std::size_t i = 0; i < a.size; ++i) {
        poly::mul(a.poly(i), p.data, out.poly(i), moduli, a.n);
    }
    return out;
}

Ciphertext Evaluator::multiply(const Ciphertext &a, const Ciphertext &b) const {
    // No scale check: unlike add/sub, multiplication is exact across
    // unequal scales (the result tracks their product), matching the GPU
    // evaluator.
    util::require(a.n == b.n && a.rns == b.rns, "ciphertext level mismatch");
    util::require(a.ntt_form && b.ntt_form, "expected NTT form");
    util::require(a.size == 2 && b.size == 2, "multiply expects size-2 inputs");
    Ciphertext out;
    out.resize(a.n, 3, a.rns);
    out.ntt_form = true;
    out.scale = a.scale * b.scale;
    const auto moduli =
        std::span<const Modulus>(context_->key_modulus()).subspan(0, a.rns);
    poly::mul(a.poly(0), b.poly(0), out.poly(0), moduli, a.n);
    // d1 = a0·b1 + a1·b0 through the fused multiply-add.
    poly::mul(a.poly(0), b.poly(1), out.poly(1), moduli, a.n);
    poly::mad(a.poly(1), b.poly(0), out.poly(1), moduli, a.n);
    poly::mul(a.poly(1), b.poly(1), out.poly(2), moduli, a.n);
    return out;
}

Ciphertext Evaluator::square(const Ciphertext &a) const {
    return multiply(a, a);
}

void Evaluator::switch_key_inplace(Ciphertext &dest,
                                   std::span<const uint64_t> target,
                                   const KSwitchKey &key) const {
    const std::size_t n = context_->n();
    const std::size_t l = dest.rns;
    const std::size_t special = context_->key_rns() - 1;
    util::require(target.size() == l * n, "switch-key target size mismatch");
    util::require(key.keys.size() >= l, "key-switching key too short");

    // The inner products below sum l digit×key products, each of two
    // residues below 2^kMaxBits, in 128 bits before a single reduction.
    constexpr int kProductBits = 2 * Modulus::kMaxBits;
    static_assert(kProductBits < 128, "digit×key product must fit 128 bits");
    util::require(l <= (std::size_t{1} << (128 - kProductBits)),
                  "too many key-switch digits for a 128-bit inner product");

    // 1. Decomposition digits need the coefficient representation.
    std::vector<uint64_t> target_coeff(target.begin(), target.end());
    poly::intt(target_coeff, context_->tables(l), n);

    // 2. Inner products over the extended base {q_0..q_{l-1}, p}.
    std::vector<uint64_t> acc0((l + 1) * n), acc1((l + 1) * n);
    std::vector<uint64_t> digits(l * n);
    std::vector<const uint64_t *> d(l), k0(l), k1(l);
    for (std::size_t j = 0; j <= l; ++j) {
        const std::size_t mod_idx = (j < l) ? j : special;
        const Modulus &mj = context_->key_modulus()[mod_idx];
        for (std::size_t i = 0; i < l; ++i) {
            // Digit i as an integer polynomial with coefficients < q_i,
            // reduced into modulus m_j and NTT'ed under m_j.  Its diagonal
            // (m_j = q_i) is the NTT-form input limb itself: the limb holds
            // canonical residues, so NTT(INTT(x)) = x.
            k0[i] = key.keys[i].component(0, mod_idx).data();
            k1[i] = key.keys[i].component(1, mod_idx).data();
            if (mod_idx == i) {
                d[i] = target.data() + i * n;
                continue;
            }
            uint64_t *digit = digits.data() + i * n;
            const uint64_t *src = target_coeff.data() + i * n;
            for (std::size_t k = 0; k < n; ++k) {
                digit[k] = util::barrett_reduce_64(src[k], mj);
            }
            ntt::ntt_forward({digit, n}, context_->table(mod_idx));
            d[i] = digit;
        }
        uint64_t *a0 = acc0.data() + j * n;
        uint64_t *a1 = acc1.data() + j * n;
        for (std::size_t k = 0; k < n; ++k) {
            util::Uint128 s0, s1;
            for (std::size_t i = 0; i < l; ++i) {
                const uint64_t di = d[i][k];
                s0 = util::add_uint128(s0, util::mul_uint64_wide(di, k0[i][k]));
                s1 = util::add_uint128(s1, util::mul_uint64_wide(di, k1[i][k]));
            }
            a0[k] = util::barrett_reduce_128(s0, mj);
            a1[k] = util::barrett_reduce_128(s1, mj);
        }
    }

    // 3. Mod-down by the special prime with rounding, accumulated into dest.
    for (int part = 0; part < 2; ++part) {
        const auto acc = std::span<const uint64_t>(part == 0 ? acc0 : acc1);
        divide_round(*context_, acc.subspan(l * n, n), special, acc,
                     dest.poly(part), l);
    }
}

Ciphertext Evaluator::relinearize(const Ciphertext &a,
                                  const RelinKeys &keys) const {
    util::require(a.size == 3, "relinearize expects a size-3 ciphertext");
    Ciphertext out;
    out.resize(a.n, 2, a.rns);
    out.ntt_form = a.ntt_form;
    out.scale = a.scale;
    std::copy(a.poly(0).begin(), a.poly(0).end(), out.poly(0).begin());
    std::copy(a.poly(1).begin(), a.poly(1).end(), out.poly(1).begin());
    switch_key_inplace(out, a.poly(2), keys.key);
    return out;
}

Ciphertext Evaluator::rescale(const Ciphertext &a) const {
    util::require(a.rns >= 2, "cannot rescale at the last level");
    util::require(a.ntt_form, "expected NTT form");
    const std::size_t last = a.rns - 1;
    Ciphertext out;
    out.resize(a.n, a.size, last);
    out.ntt_form = true;
    out.scale = a.scale /
                static_cast<double>(context_->key_modulus()[last].value());
    for (std::size_t p = 0; p < a.size; ++p) {
        divide_round(*context_, a.component(p, last), last, a.poly(p),
                     out.poly(p), last);
    }
    return out;
}

Ciphertext Evaluator::mod_switch(const Ciphertext &a) const {
    util::require(a.rns >= 2, "cannot switch below one prime");
    Ciphertext out;
    out.resize(a.n, a.size, a.rns - 1);
    out.ntt_form = a.ntt_form;
    out.scale = a.scale;
    for (std::size_t p = 0; p < a.size; ++p) {
        const auto src = a.poly(p);
        std::copy(src.begin(), src.begin() + out.rns * a.n,
                  out.poly(p).begin());
    }
    return out;
}

Ciphertext Evaluator::rotate(const Ciphertext &a, int step,
                             const GaloisKeys &keys) const {
    util::require(a.size == 2, "rotate expects a size-2 ciphertext");
    const uint64_t elt = galois_.elt_from_step(step);
    return elt == 1 ? a : apply_galois(a, elt, keys);
}

Ciphertext Evaluator::conjugate(const Ciphertext &a,
                                const GaloisKeys &keys) const {
    util::require(a.size == 2, "conjugate expects a size-2 ciphertext");
    return apply_galois(a, galois_.conjugation_elt(), keys);
}

Ciphertext Evaluator::apply_galois(const Ciphertext &a, uint64_t elt,
                                   const GaloisKeys &keys) const {
    const std::size_t n = a.n;
    Ciphertext out;
    out.resize(n, 2, a.rns);
    out.ntt_form = true;
    out.scale = a.scale;
    std::vector<uint64_t> rotated_c1(a.rns * n);
    for (std::size_t r = 0; r < a.rns; ++r) {
        galois_.apply_ntt(a.component(0, r), elt, out.component(0, r));
        galois_.apply_ntt(a.component(1, r), elt,
                          std::span<uint64_t>(rotated_c1).subspan(r * n, n));
    }
    switch_key_inplace(out, rotated_c1, keys.key(elt));
    return out;
}

}  // namespace xehe::ckks
