#include "ckks/poly.h"

#include "util/avx512.h"

namespace xehe::ckks::poly {

namespace {
void check(std::span<const uint64_t> a, std::size_t rns, std::size_t n) {
    util::require(a.size() == rns * n, "RNS polynomial size mismatch");
}
}  // namespace

void add(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n) {
    check(a, moduli.size(), n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const Modulus &q = moduli[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            out[i] = util::add_mod(a[i], b[i], q);
        }
    }
}

void sub(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n) {
    check(a, moduli.size(), n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const Modulus &q = moduli[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            out[i] = util::sub_mod(a[i], b[i], q);
        }
    }
}

void negate(std::span<const uint64_t> a, std::span<uint64_t> out,
            std::span<const Modulus> moduli, std::size_t n) {
    check(a, moduli.size(), n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const Modulus &q = moduli[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            out[i] = util::negate_mod(a[i], q);
        }
    }
}

void mul(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n) {
    check(a, moduli.size(), n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const uint64_t *x = a.data() + r * n;
        const uint64_t *y = b.data() + r * n;
        detail::dot_mod({&x, 1}, {&y, 1}, out.subspan(r * n, n), moduli[r]);
    }
}

void ntt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
         std::size_t n) {
    check(a, tables.size(), n);
    for (std::size_t r = 0; r < tables.size(); ++r) {
        ntt::ntt_forward(a.subspan(r * n, n), tables[r]);
    }
}

void intt(std::span<uint64_t> a, std::span<const ntt::NttTables> tables,
          std::size_t n) {
    check(a, tables.size(), n);
    for (std::size_t r = 0; r < tables.size(); ++r) {
        ntt::ntt_inverse(a.subspan(r * n, n), tables[r]);
    }
}

}  // namespace xehe::ckks::poly

namespace xehe::ckks::detail {

#if defined(__x86_64__)
namespace {

namespace vec = util::avx512;

/// The width-52 constants of one modulus q < 2^50: the Harvey operands 1
/// and 2^52 mod q, through which fold() reduces a word split at bit 52.
struct Fold {
    vec::VecModulus m;
    vec::VecOperand one, two52;
};

XEHE_AVX512 Fold make_fold(const Modulus &q) {
    const MultiplyModOperand one(1, q);
    const MultiplyModOperand two52((1ull << 52) % q.value(), q);
    return {vec::vec_modulus(q.value()), vec::broadcast<52>(one),
            vec::broadcast<52>(two52)};
}

/// hi·2^52 + lo mod q in [0, 4q), for hi, lo < 2^52.
XEHE_AVX512 inline __m512i fold(__m512i hi, __m512i lo, const Fold &f) {
    const __m512i h = vec::mul_lazy<52>(hi, f.two52, f.m);
    return _mm512_add_epi64(h, vec::mul_lazy<52>(lo, f.one, f.m));
}

XEHE_AVX512 inline __m512i low52(__m512i x) {
    return _mm512_and_si512(x, _mm512_set1_epi64((1ll << 52) - 1));
}

/// Lanes [k, min(k + 8, n)) of an n-word array.
inline __mmask8 lanes(std::size_t k, std::size_t n) {
    return n - k >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - k)) - 1);
}

XEHE_AVX512 void dot_mod_ifma(std::span<const uint64_t *const> a,
                              std::span<const uint64_t *const> b,
                              std::span<uint64_t> out, const Modulus &q) {
    const Fold f = make_fold(q);
    const std::size_t n = out.size();
    for (std::size_t k = 0; k < n; k += 8) {
        const __mmask8 mask = lanes(k, n);
        // Each product is below 2^100: its low halves sum below t·2^52 <
        // 2^64, its high halves below t·2^48 (kMaxIfmaTerms).
        __m512i lo = _mm512_setzero_si512();
        __m512i hi = _mm512_setzero_si512();
        for (std::size_t i = 0; i < a.size(); ++i) {
            const __m512i x = _mm512_maskz_loadu_epi64(mask, a[i] + k);
            const __m512i y = _mm512_maskz_loadu_epi64(mask, b[i] + k);
            lo = _mm512_madd52lo_epu64(lo, x, y);
            hi = _mm512_madd52hi_epu64(hi, x, y);
        }
        // Σ = hi·2^52 + lo = (hi + lo / 2^52)·2^52 + lo mod 2^52.
        hi = _mm512_add_epi64(hi, vec::shr<52>(lo));
        const __m512i r = fold(hi, low52(lo), f);
        _mm512_mask_storeu_epi64(out.data() + k, mask, vec::reduce_4q(r, f.m));
    }
}

/// t = (r - half) mod q, lazily in [0, 3q): the transform accepts [0, 4q).
XEHE_AVX512 void shift_limb_ifma(std::span<const uint64_t> r,
                                 std::span<uint64_t> t, const Fold &f,
                                 uint64_t half) {
    const __m512i half_v = _mm512_set1_epi64(static_cast<long long>(half));
    const __m512i q_minus_half = _mm512_sub_epi64(f.m.q, half_v);
    for (std::size_t k = 0; k < r.size(); k += 8) {
        const __mmask8 mask = lanes(k, r.size());
        const __m512i x = _mm512_maskz_loadu_epi64(mask, r.data() + k);
        const __m512i y = fold(vec::shr<52>(x), low52(x), f);
        const __m512i z = vec::reduce_once(y, f.m.two_q);
        const __m512i lazy = _mm512_add_epi64(z, q_minus_half);
        _mm512_mask_storeu_epi64(t.data() + k, mask, lazy);
    }
}

/// d = d + (s - t)·inv mod q, all canonical.
XEHE_AVX512 void sub_mul_add_ifma(std::span<const uint64_t> s,
                                  std::span<const uint64_t> t,
                                  std::span<uint64_t> d, const Fold &f,
                                  const MultiplyModOperand &inv) {
    const vec::VecOperand w = vec::broadcast<52>(inv);
    for (std::size_t k = 0; k < d.size(); k += 8) {
        const __mmask8 mask = lanes(k, d.size());
        const __m512i x = _mm512_maskz_loadu_epi64(mask, s.data() + k);
        const __m512i y = _mm512_maskz_loadu_epi64(mask, t.data() + k);
        const __m512i acc = _mm512_maskz_loadu_epi64(mask, d.data() + k);
        // s - t + q in [1, 2q), its product in [0, 2q), the sum in [0, 3q).
        const __m512i diff = _mm512_sub_epi64(_mm512_add_epi64(x, f.m.q), y);
        const __m512i v = vec::mul_lazy<52>(diff, w, f.m);
        const __m512i sum = _mm512_add_epi64(acc, v);
        _mm512_mask_storeu_epi64(d.data() + k, mask, vec::reduce_4q(sum, f.m));
    }
}

}  // namespace
#endif  // __x86_64__

bool uses_ifma(const Modulus &q, std::size_t terms) noexcept {
    return q.value() < (1ull << 50) && terms <= kMaxIfmaTerms &&
           util::avx512::has_ifma();
}

void dot_mod(std::span<const uint64_t *const> a,
             std::span<const uint64_t *const> b, std::span<uint64_t> out,
             const Modulus &q) {
    assert(a.size() == b.size());
#if defined(__x86_64__)
    if (uses_ifma(q, a.size())) {
        dot_mod_ifma(a, b, out, q);
        return;
    }
#endif
    dot_mod_scalar(a, b, out, q);
}

void dot_mod_scalar(std::span<const uint64_t *const> a,
                    std::span<const uint64_t *const> b,
                    std::span<uint64_t> out, const Modulus &q) {
    assert(a.size() == b.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
        util::Uint128 sum;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const util::Uint128 p = util::mul_uint64_wide(a[i][k], b[i][k]);
            sum = util::add_uint128(sum, p);
        }
        out[k] = util::barrett_reduce_128(sum, q);
    }
}

void divide_round_limb(std::span<const uint64_t> r,
                       std::span<const uint64_t> s, std::span<uint64_t> d,
                       std::span<uint64_t> t, const NttTables &table,
                       const MultiplyModOperand &inv, uint64_t half) {
#if defined(__x86_64__)
    if (uses_ifma(table.modulus())) {
        const Fold f = make_fold(table.modulus());
        shift_limb_ifma(r, t, f, half);
        ntt::ntt_forward(t, table);
        sub_mul_add_ifma(s, t, d, f, inv);
        return;
    }
#endif
    divide_round_limb_scalar(r, s, d, t, table, inv, half);
}

void divide_round_limb_scalar(std::span<const uint64_t> r,
                              std::span<const uint64_t> s,
                              std::span<uint64_t> d,
                              std::span<uint64_t> t,
                              const NttTables &table,
                              const MultiplyModOperand &inv, uint64_t half) {
    const Modulus &q = table.modulus();
    for (std::size_t k = 0; k < r.size(); ++k) {
        t[k] =
            util::sub_mod(util::barrett_reduce_64(r[k], q), half, q);
    }
    ntt::ntt_forward(t, table);
    for (std::size_t k = 0; k < d.size(); ++k) {
        const uint64_t v =
            util::mul_mod(util::sub_mod(s[k], t[k], q), inv, q);
        d[k] = util::add_mod(d[k], v, q);
    }
}

}  // namespace xehe::ckks::detail
