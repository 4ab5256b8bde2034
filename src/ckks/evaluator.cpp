#include "ckks/evaluator.h"

#include <functional>
#include <memory>

#include "xgpu/threadpool.h"

namespace xehe::ckks {

namespace {

/// Runs fn(i) for i in [0, count): as tasks on `pool`, or in order on the
/// caller without one.  Each task writes only its own output limbs.
void for_each_task(xgpu::ThreadPool *pool, std::size_t count,
                   const std::function<void(std::size_t)> &fn) {
    if (pool != nullptr) {
        pool->parallel_for(count, fn);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        fn(i);
    }
}

/// Throws unless `ct` is shaped like a ciphertext of `ctx`: checked
/// before any task reads it.
void require_shape(const CkksContext &ctx, const Ciphertext &ct) {
    util::require(ct.n == ctx.n() && ct.rns >= 1 &&
                      ct.rns <= ctx.max_level() &&
                      ct.data.size() == ct.size * ct.rns * ct.n,
                  "malformed ciphertext");
}

/// One RNS polynomial to divide by a modulus with rounding: `drop` is its
/// NTT-form limb under the dropped modulus, `src` its remaining limbs, and
/// the quotient is added into `dst`.
struct RoundedDivision {
    std::span<const uint64_t> drop;
    std::span<const uint64_t> src;
    std::span<uint64_t> dst;
};

/// Divides RNS polynomials by one of their moduli with rounding — the
/// shared core of Rescale and the key-switch mod-down.  For each part,
///   r     = INTT(drop) + floor(q_drop / 2)           (mod q_drop),
/// one task per part; then for each j < count, one task per (part, j):
///   v_j   = (src_j - NTT_j(r - floor(q_drop / 2))) · q_drop^{-1}  (mod q_j),
/// and v_j is added into dst_j (a zeroed dst_j receives v_j itself).
void divide_round(const CkksContext &ctx, xgpu::ThreadPool *pool,
                  std::span<const RoundedDivision> parts,
                  std::size_t drop_idx, std::size_t count) {
    const std::size_t n = ctx.n();
    const Modulus &q_drop = ctx.key_modulus()[drop_idx];
    const uint64_t half = ctx.half(drop_idx);
    const auto rounded =
        std::make_unique_for_overwrite<uint64_t[]>(parts.size() * n);
    for_each_task(pool, parts.size(), [&](std::size_t p) {
        const std::span<uint64_t> r(rounded.get() + p * n, n);
        std::copy(parts[p].drop.begin(), parts[p].drop.end(), r.begin());
        ntt::ntt_inverse(r, ctx.table(drop_idx));
        for (auto &x : r) {
            x = util::add_mod(x, half, q_drop);
        }
    });
    for_each_task(pool, parts.size() * count, [&](std::size_t task) {
        const std::size_t p = task / count, j = task % count;
        const auto t = std::make_unique_for_overwrite<uint64_t[]>(n);
        detail::divide_round_limb(
            {rounded.get() + p * n, n}, parts[p].src.subspan(j * n, n),
            parts[p].dst.subspan(j * n, n), {t.get(), n}, ctx.table(j),
            ctx.inv_mod(drop_idx, j), ctx.half_mod(drop_idx, j));
    });
}

}  // namespace

Evaluator::Evaluator(const CkksContext &context, xgpu::ThreadPool *pool)
    : context_(&context), pool_(pool), galois_(context.n()) {}

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
    require_shape(*context_, a);
    require_shape(*context_, b);
    Ciphertext out;
    out.resize(a.n, 3, a.rns);
    out.ntt_form = true;
    out.scale = a.scale * b.scale;
    // One task per (output part p, limb r): d0 = a0·b0, d1 = a0·b1 +
    // a1·b0 (one two-term dot product), d2 = a1·b1.
    for_each_task(pool_, 3 * a.rns, [&](std::size_t task) {
        const std::size_t p = task / a.rns, r = task % a.rns;
        const uint64_t *x[] = {a.component(p == 2 ? 1 : 0, r).data(),
                               a.component(1, r).data()};
        const uint64_t *y[] = {b.component(p == 0 ? 0 : 1, r).data(),
                               b.component(0, r).data()};
        const std::size_t terms = p == 1 ? 2 : 1;
        detail::dot_mod({x, terms}, {y, terms}, out.component(p, r),
                        context_->key_modulus()[r]);
    });
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
    // Every check runs before the first task, so no task throws.
    util::require(l >= 1 && l <= context_->max_level() && dest.n == n &&
                      dest.size >= 2 &&
                      dest.data.size() == dest.size * l * n,
                  "switch-key destination shape mismatch");
    util::require(target.size() == l * n, "switch-key target size mismatch");
    require_kswitch_key(*context_, key, l);

    // The inner products below sum l digit×key products, each of two
    // residues below 2^kMaxBits; the scalar detail::dot_mod (the special
    // prime's row always) sums them in 128 bits before a single reduction.
    constexpr int kProductBits = 2 * Modulus::kMaxBits;
    static_assert(kProductBits < 128, "digit×key product must fit 128 bits");
    util::require(l <= (std::size_t{1} << (128 - kProductBits)),
                  "too many key-switch digits for a 128-bit inner product");

    // Extended base {q_0..q_{l-1}, p}: index j of it is key modulus
    // mod_index(j).
    const auto mod_index = [&](std::size_t j) {
        return kswitch_modulus_index(*context_, l, j);
    };

    // The scratch below is written in full before it is read, so none of
    // it is zero-filled.
    //
    // 1. Decomposition digits need the coefficient representation: one
    //    INTT per target limb.
    const auto target_coeff = std::make_unique_for_overwrite<uint64_t[]>(l * n);
    for_each_task(pool_, l, [&](std::size_t i) {
        const std::span<uint64_t> coeff(target_coeff.get() + i * n, n);
        const auto limb = target.subspan(i * n, n);
        std::copy(limb.begin(), limb.end(), coeff.begin());
        ntt::ntt_inverse(coeff, context_->table(i));
    });

    // 2. Digit i as an integer polynomial with coefficients < q_i, reduced
    //    into extended modulus m_j and NTT'ed under m_j: one task per
    //    (j, i).  The diagonal (m_j = q_i) is the NTT-form input limb
    //    itself: the limb holds canonical residues, so NTT(INTT(x)) = x.
    //    Where q_i < 4·m_j the coefficients are already in the transform's
    //    input range [0, 4·m_j), which returns canonical words, so they go
    //    in unreduced.
    const auto digits =
        std::make_unique_for_overwrite<uint64_t[]>((l + 1) * l * n);
    const auto digit = [&](std::size_t j, std::size_t i) {
        return j == i ? target.data() + i * n
                      : digits.get() + (j * l + i) * n;
    };
    for_each_task(pool_, (l + 1) * l, [&](std::size_t task) {
        const std::size_t j = task / l, i = task % l;
        if (j == i) {
            return;
        }
        const Modulus &mj = context_->key_modulus()[mod_index(j)];
        uint64_t *dst = digits.get() + task * n;
        const uint64_t *src = target_coeff.get() + i * n;
        if (context_->key_modulus()[i].value() < 4 * mj.value()) {
            std::copy(src, src + n, dst);
        } else {
            for (std::size_t k = 0; k < n; ++k) {
                dst[k] = util::barrett_reduce_64(src[k], mj);
            }
        }
        ntt::ntt_forward({dst, n}, context_->table(mod_index(j)));
    });

    // 3. Inner products over the extended base: one task per (j, half of
    //    the coefficients).
    const auto acc0 = std::make_unique_for_overwrite<uint64_t[]>((l + 1) * n);
    const auto acc1 = std::make_unique_for_overwrite<uint64_t[]>((l + 1) * n);
    for_each_task(pool_, 2 * (l + 1), [&](std::size_t task) {
        const std::size_t j = task / 2, mod_idx = mod_index(j);
        const std::size_t begin = (task % 2) * (n / 2);
        std::vector<const uint64_t *> d(l), k0(l), k1(l);
        for (std::size_t i = 0; i < l; ++i) {
            d[i] = digit(j, i) + begin;
            k0[i] = key.keys[i].component(0, mod_idx).data() + begin;
            k1[i] = key.keys[i].component(1, mod_idx).data() + begin;
        }
        const Modulus &mj = context_->key_modulus()[mod_idx];
        detail::dot_mod(d, k0, {acc0.get() + j * n + begin, n / 2}, mj);
        detail::dot_mod(d, k1, {acc1.get() + j * n + begin, n / 2}, mj);
    });

    // 4. Mod-down by the special prime with rounding, accumulated into dest.
    const RoundedDivision parts[] = {
        {{acc0.get() + l * n, n}, {acc0.get(), l * n}, dest.poly(0)},
        {{acc1.get() + l * n, n}, {acc1.get(), l * n}, dest.poly(1)},
    };
    divide_round(*context_, pool_, parts, special, l);
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
    require_shape(*context_, a);
    const std::size_t last = a.rns - 1;
    Ciphertext out;
    out.resize(a.n, a.size, last);
    out.ntt_form = true;
    out.scale = a.scale /
                static_cast<double>(context_->key_modulus()[last].value());
    std::vector<RoundedDivision> parts;
    for (std::size_t p = 0; p < a.size; ++p) {
        parts.push_back({a.component(p, last), a.poly(p), out.poly(p)});
    }
    divide_round(*context_, pool_, parts, last, last);
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
