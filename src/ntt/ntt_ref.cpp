#include "ntt/ntt_ref.h"

#include <cstddef>

#include "util/avx512.h"

namespace xehe::ntt {

namespace detail {

void forward_scalar(std::span<uint64_t> a, const NttTables &tables) {
    const std::size_t n = tables.n();
    util::require(a.size() == n, "size mismatch");
    const Modulus q = tables.modulus();  // local copy: cannot alias `a`
    const auto &roots = tables.root_powers();
    uint64_t *x = a.data();
    // Rounds with gap >= 2: group i of round m pairs the half-blocks at
    // 2·i·gap and (2·i+1)·gap under one twiddle, roots[m + i].
    std::size_t gap = n >> 1;
    for (std::size_t m = 1; gap > 1; m <<= 1, gap >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const MultiplyModOperand w = roots[m + i];
            uint64_t *lo = x + 2 * i * gap;
            uint64_t *hi = lo + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                util::forward_butterfly(lo + j, hi + j, w, q);
            }
        }
    }
    // Last round (gap 1) with the final [0, 4q) -> [0, q) reduction fused.
    const std::size_t half = n >> 1;
    for (std::size_t i = 0; i < half; ++i) {
        util::forward_butterfly(x + 2 * i, x + 2 * i + 1, roots[half + i], q);
        x[2 * i] = util::reduce_from_4p(x[2 * i], q);
        x[2 * i + 1] = util::reduce_from_4p(x[2 * i + 1], q);
    }
    if (n == 1) {
        x[0] = util::reduce_from_4p(x[0], q);
    }
}

void inverse_scalar(std::span<uint64_t> a, const NttTables &tables) {
    const std::size_t n = tables.n();
    util::require(a.size() == n, "size mismatch");
    const Modulus q = tables.modulus();  // local copy: cannot alias `a`
    const auto &roots = tables.inv_root_powers();
    uint64_t *x = a.data();
    // Rounds with more than one group; round m consumes its twiddles
    // sequentially from roots[n - 2m + 1].
    std::size_t gap = 1;
    for (std::size_t m = n >> 1; m > 1; m >>= 1, gap <<= 1) {
        const std::size_t base = n - 2 * m + 1;
        for (std::size_t i = 0; i < m; ++i) {
            const MultiplyModOperand w = roots[base + i];
            uint64_t *lo = x + 2 * i * gap;
            uint64_t *hi = lo + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                util::inverse_butterfly(lo + j, hi + j, w, q);
            }
        }
    }
    // Last round (one group) with N^{-1} folded in: X' = (X + Y)·N^{-1},
    // Y' = (X - Y)·(W·N^{-1}), both reduced to [0, q).
    const MultiplyModOperand &inv_n = tables.inv_degree();
    if (n == 1) {
        x[0] = util::mul_mod(x[0], inv_n, q);
        return;
    }
    const MultiplyModOperand w_inv_n(
        util::mul_mod(roots[n - 1].operand, inv_n, q), q);
    const uint64_t two_q = q.value() << 1;
    for (std::size_t j = 0; j < gap; ++j) {
        const uint64_t u = x[j];
        const uint64_t v = x[j + gap];
        x[j] = util::mul_mod(u + v, inv_n, q);
        x[j + gap] = util::mul_mod(u - v + two_q, w_inv_n, q);
    }
}

}  // namespace detail

#if defined(__x86_64__)
namespace {

// The 8-lane AVX-512 transforms (the scheme of Intel HEXL's CPU NTT), one
// template for both widths of util/avx512.h: Bits 52 runs the IFMA52
// product (q < 2^50), Bits 64 the AVX-512F/DQ product (q < 2^61).  Each
// lane runs the scalar butterfly.  Every lazy value stays below 4q, which
// is below 2^52 at width 52 and below 2^63 at width 64.  At width 52
// intermediate lazy values may differ from the scalar loops' by q; width
// 64 computes the scalar formula itself.  Both end in canonical residues,
// so every path writes the same words.

using util::avx512::reduce_once;
using util::avx512::VecModulus;
using util::avx512::VecOperand;

static_assert(sizeof(MultiplyModOperand) == 16 &&
                  offsetof(MultiplyModOperand, operand) == 0 &&
                  offsetof(MultiplyModOperand, quotient) == 8,
              "twiddles are loaded as interleaved (operand, quotient) words");

/// util::forward_butterfly on 8 lanes: X, Y in [0, 4q) -> [0, 4q).
template <int Bits>
XEHE_AVX512 inline void forward_butterfly(__m512i &x, __m512i &y,
                                          const VecOperand &w,
                                          const VecModulus &m) {
    const __m512i u = reduce_once(x, m.two_q);
    const __m512i v = util::avx512::mul_lazy<Bits>(y, w, m);
    x = _mm512_add_epi64(u, v);
    y = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v);
}

/// util::inverse_butterfly on 8 lanes: X, Y in [0, 2q) -> [0, 2q).
template <int Bits>
XEHE_AVX512 inline void inverse_butterfly(__m512i &x, __m512i &y,
                                          const VecOperand &w,
                                          const VecModulus &m) {
    const __m512i u = x;
    x = reduce_once(_mm512_add_epi64(u, y), m.two_q);
    y = util::avx512::mul_lazy<Bits>(
        _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), y), w, m);
}

/// The Count twiddles at t[0..Count) spread over 8 lanes, lane k taking
/// t[k·Count/8]: the in-register rounds' twiddles for one 16-word block.
template <int Bits, int Count>
XEHE_AVX512 inline VecOperand spread(const MultiplyModOperand *t) {
    static_assert(Count == 2 || Count == 4 || Count == 8);
    const __m512i lo = _mm512_maskz_loadu_epi64(Count == 2 ? 0x0F : 0xFF, t);
    const __m512i hi = Count == 8 ? _mm512_loadu_si512(t + 4) : lo;
    // Lane k reads operand word op(k) and the quotient after it.
    constexpr auto op = [](long long k) { return 2 * (k * Count / 8); };
    const __m512i ops = _mm512_setr_epi64(op(0), op(1), op(2), op(3), op(4),
                                          op(5), op(6), op(7));
    const __m512i quots = _mm512_add_epi64(ops, _mm512_set1_epi64(1));
    return {_mm512_permutex2var_epi64(lo, ops, hi),
            util::avx512::quotient_lanes<Bits>(
                _mm512_permutex2var_epi64(lo, quots, hi))};
}

/// Forward transform, N >= 16.  Rounds with gap >= 8 run 8 butterflies of
/// one group under a broadcast twiddle; the last three rounds (gap 4, 2,
/// 1) and the [0, 4q) -> [0, q) reduction run on 16-word blocks in
/// registers.
template <int Bits>
XEHE_AVX512 void forward_vec(uint64_t *x, std::size_t n,
                             const MultiplyModOperand *roots, uint64_t q) {
    const VecModulus m = util::avx512::vec_modulus(q);
    std::size_t round = 1;
    for (std::size_t gap = n >> 1; gap >= 8; round <<= 1, gap >>= 1) {
        for (std::size_t i = 0; i < round; ++i) {
            const VecOperand w =
                util::avx512::broadcast<Bits>(roots[round + i]);
            uint64_t *lo = x + 2 * i * gap;
            uint64_t *hi = lo + gap;
            for (std::size_t j = 0; j < gap; j += 8) {
                __m512i u = _mm512_loadu_si512(lo + j);
                __m512i v = _mm512_loadu_si512(hi + j);
                forward_butterfly<Bits>(u, v, w, m);
                _mm512_storeu_si512(lo + j, u);
                _mm512_storeu_si512(hi + j, v);
            }
        }
    }
    // Block c = words a0..a7 b0..b7 at 16c; gap-4 groups 2c, 2c+1 use
    // roots[N/8 + 2c..], gap-2 groups roots[N/4 + 4c..], gap-1 groups
    // roots[N/2 + 8c..].  A permutex2var index selects lanes 0-7 from its
    // first operand and 8-15 from its second.
    const __m512i gap4_lo = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i gap4_hi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    const __m512i gap2_lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i gap2_hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    const __m512i gap1_lo = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i gap1_hi = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
    const __m512i out_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i out_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    for (std::size_t c = 0; c < n / 16; ++c) {
        uint64_t *p = x + 16 * c;
        const __m512i a = _mm512_loadu_si512(p);
        const __m512i b = _mm512_loadu_si512(p + 8);
        // X = a0..a3 b0..b3, Y = a4..a7 b4..b7.
        __m512i u = _mm512_permutex2var_epi64(a, gap4_lo, b);
        __m512i v = _mm512_permutex2var_epi64(a, gap4_hi, b);
        forward_butterfly<Bits>(u, v, spread<Bits, 2>(roots + n / 8 + 2 * c),
                                m);
        // X = a0 a1 a4 a5 b0 b1 b4 b5, Y = a2 a3 a6 a7 b2 b3 b6 b7.
        __m512i s = _mm512_permutex2var_epi64(u, gap2_lo, v);
        __m512i t = _mm512_permutex2var_epi64(u, gap2_hi, v);
        forward_butterfly<Bits>(s, t, spread<Bits, 4>(roots + n / 4 + 4 * c),
                                m);
        // X = a0 a2 a4 a6 b0 b2 b4 b6, Y = a1 a3 a5 a7 b1 b3 b5 b7.
        u = _mm512_permutex2var_epi64(s, gap1_lo, t);
        v = _mm512_permutex2var_epi64(s, gap1_hi, t);
        forward_butterfly<Bits>(u, v, spread<Bits, 8>(roots + n / 2 + 8 * c),
                                m);
        u = util::avx512::reduce_4q(u, m);
        v = util::avx512::reduce_4q(v, m);
        _mm512_storeu_si512(p, _mm512_permutex2var_epi64(u, out_lo, v));
        _mm512_storeu_si512(p + 8, _mm512_permutex2var_epi64(u, out_hi, v));
    }
}

/// Inverse transform, N >= 16: the first three rounds (gap 1, 2, 4) on
/// 16-word blocks in registers, rounds with gap >= 8 under a broadcast
/// twiddle, and the last round with N^{-1} folded in.
template <int Bits>
XEHE_AVX512 void inverse_vec(uint64_t *x, std::size_t n,
                             const MultiplyModOperand *roots,
                             const MultiplyModOperand &inv_n,
                             const MultiplyModOperand &w_inv_n, uint64_t q) {
    const VecModulus m = util::avx512::vec_modulus(q);
    // The inverses of the forward block permutations, in reverse order;
    // round m consumes its twiddles from roots[N - 2m + 1].
    const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i gap2_lo = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i gap2_hi = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
    const __m512i gap4_lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i gap4_hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    const __m512i out_lo = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i out_hi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
    for (std::size_t c = 0; c < n / 16; ++c) {
        uint64_t *p = x + 16 * c;
        const __m512i a = _mm512_loadu_si512(p);
        const __m512i b = _mm512_loadu_si512(p + 8);
        __m512i u = _mm512_permutex2var_epi64(a, even, b);
        __m512i v = _mm512_permutex2var_epi64(a, odd, b);
        inverse_butterfly<Bits>(u, v, spread<Bits, 8>(roots + 1 + 8 * c), m);
        __m512i s = _mm512_permutex2var_epi64(u, gap2_lo, v);
        __m512i t = _mm512_permutex2var_epi64(u, gap2_hi, v);
        inverse_butterfly<Bits>(
            s, t, spread<Bits, 4>(roots + n / 2 + 1 + 4 * c), m);
        u = _mm512_permutex2var_epi64(s, gap4_lo, t);
        v = _mm512_permutex2var_epi64(s, gap4_hi, t);
        inverse_butterfly<Bits>(
            u, v, spread<Bits, 2>(roots + 3 * n / 4 + 1 + 2 * c), m);
        _mm512_storeu_si512(p, _mm512_permutex2var_epi64(u, out_lo, v));
        _mm512_storeu_si512(p + 8, _mm512_permutex2var_epi64(u, out_hi, v));
    }
    std::size_t gap = 8;
    for (std::size_t round = n >> 4; round > 1; round >>= 1, gap <<= 1) {
        const MultiplyModOperand *w = roots + n - 2 * round + 1;
        for (std::size_t i = 0; i < round; ++i) {
            const VecOperand t = util::avx512::broadcast<Bits>(w[i]);
            uint64_t *lo = x + 2 * i * gap;
            uint64_t *hi = lo + gap;
            for (std::size_t j = 0; j < gap; j += 8) {
                __m512i u = _mm512_loadu_si512(lo + j);
                __m512i v = _mm512_loadu_si512(hi + j);
                inverse_butterfly<Bits>(u, v, t, m);
                _mm512_storeu_si512(lo + j, u);
                _mm512_storeu_si512(hi + j, v);
            }
        }
    }
    // Last round: X' = (X + Y)·N^{-1}, Y' = (X - Y)·(W·N^{-1}), in [0, q).
    const VecOperand scale = util::avx512::broadcast<Bits>(inv_n);
    const VecOperand w_scale = util::avx512::broadcast<Bits>(w_inv_n);
    for (std::size_t j = 0; j < gap; j += 8) {
        const __m512i u = _mm512_loadu_si512(x + j);
        const __m512i v = _mm512_loadu_si512(x + j + gap);
        const __m512i sum =
            util::avx512::mul_lazy<Bits>(_mm512_add_epi64(u, v), scale, m);
        const __m512i diff = util::avx512::mul_lazy<Bits>(
            _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v), w_scale, m);
        _mm512_storeu_si512(x + j, reduce_once(sum, m.q));
        _mm512_storeu_si512(x + j + gap, reduce_once(diff, m.q));
    }
}

}  // namespace
#endif  // __x86_64__

detail::Path detail::path(const NttTables &tables) noexcept {
    const uint64_t q = tables.modulus().value();
    if (tables.n() < 16) {
        return Path::scalar;
    }
    if (q < (1ull << 50) && util::avx512::has_ifma()) {
        return Path::ifma;
    }
    if (q < (1ull << Modulus::kMaxBits) && util::avx512::has_dq()) {
        return Path::avx512;
    }
    return Path::scalar;
}

void ntt_forward(std::span<uint64_t> a, const NttTables &tables) {
#if defined(__x86_64__)
    const detail::Path path = detail::path(tables);
    if (path != detail::Path::scalar) {
        util::require(a.size() == tables.n(), "size mismatch");
        const auto forward =
            path == detail::Path::ifma ? forward_vec<52> : forward_vec<64>;
        forward(a.data(), tables.n(), tables.root_powers().data(),
                tables.modulus().value());
        return;
    }
#endif
    detail::forward_scalar(a, tables);
}

void ntt_inverse(std::span<uint64_t> a, const NttTables &tables) {
#if defined(__x86_64__)
    const detail::Path path = detail::path(tables);
    if (path != detail::Path::scalar) {
        const std::size_t n = tables.n();
        util::require(a.size() == n, "size mismatch");
        const Modulus &q = tables.modulus();
        const MultiplyModOperand &inv_n = tables.inv_degree();
        const MultiplyModOperand w_inv_n(
            util::mul_mod(tables.inv_root_powers()[n - 1].operand, inv_n, q),
            q);
        const auto inverse =
            path == detail::Path::ifma ? inverse_vec<52> : inverse_vec<64>;
        inverse(a.data(), n, tables.inv_root_powers().data(), inv_n, w_inv_n,
                q.value());
        return;
    }
#endif
    detail::inverse_scalar(a, tables);
}

void naive_negacyclic_ntt(std::span<const uint64_t> a, std::span<uint64_t> out,
                          const NttTables &tables) {
    const std::size_t n = tables.n();
    const Modulus &q = tables.modulus();
    for (std::size_t j = 0; j < n; ++j) {
        const uint64_t exponent_base =
            2 * util::reverse_bits(j, tables.log_n()) + 1;
        const uint64_t omega = util::pow_mod(tables.psi(), exponent_base, q);
        uint64_t acc = 0;
        uint64_t w = 1;
        for (std::size_t k = 0; k < n; ++k) {
            acc = util::mad_mod(a[k], w, acc, q);
            w = util::mul_mod(w, omega, q);
        }
        out[j] = acc;
    }
}

void naive_negacyclic_multiply(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::span<uint64_t> c, const Modulus &q) {
    const std::size_t n = a.size();
    for (std::size_t k = 0; k < n; ++k) {
        uint64_t acc = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = (k + n - i) % n;
            const uint64_t prod = util::mul_mod(a[i], b[j], q);
            if (i <= k) {
                acc = util::add_mod(acc, prod, q);
            } else {
                acc = util::sub_mod(acc, prod, q);  // wrapped term: negacyclic
            }
        }
        c[k] = acc;
    }
}

}  // namespace xehe::ntt
