// 8-lane AVX-512 modular arithmetic shared by the host NTT
// (ntt/ntt_ref.cpp) and the CKKS limb kernels (ckks/poly.cpp): Harvey's
// lazy product w·y mod q in [0, 2q) in two widths, and the conditional
// subtract.  Every vector function carries its own target attribute, so
// the rest of the program keeps the baseline ISA; callers run them only
// after the CPU checks below.
//
// Width 52 (AVX-512 IFMA52, q < 2^50): the quotient of w·y is the high
// half of a 52×52-bit product against w52 = floor(w·2^52/q), which is
// MultiplyModOperand::quotient >> 12 exactly, so no table is added.
// Lazy values below 4q fit the 52-bit multiplier.
//
// Width 64 (AVX-512F and DQ, q < 2^61): the same formula as the scalar
// util::mul_mod_lazy, lane for lane.  AVX-512F has no 64×64-bit high
// multiply, so mulhi64 builds one from four 32×32→64-bit products, as the
// paper does for Xe's missing int64 multiplier (Section III-A, Figs. 3
// and 4); the low products use AVX-512DQ's vpmullq.
#pragma once

#include "util/modarith.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace xehe::util::avx512 {

#if defined(__x86_64__)

/// True when the CPU runs AVX-512F and DQ: the width-64 lanes.
inline bool has_dq() noexcept {
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq");
    }();
    return has;
}

/// True when the CPU also runs AVX-512 IFMA52: the width-52 lanes.
inline bool has_ifma() noexcept {
    static const bool has = [] {
        __builtin_cpu_init();
        return has_dq() && __builtin_cpu_supports("avx512ifma");
    }();
    return has;
}

// IFMA is enabled on every function, the width-64 template instantiations
// included, so one template serves both widths (as in Intel HEXL).  The
// width-64 instantiations contain only AVX-512F/DQ instructions and run
// on CPUs without IFMA.
#define XEHE_AVX512 __attribute__((target("avx512f,avx512dq,avx512ifma")))

/// q and 2q on every lane, and 2^52 - q, which only width 52 reads: adding
/// Q·(2^52 - q) subtracts Q·q modulo 2^52.
struct VecModulus {
    __m512i q, two_q, neg_q;
};

/// A Harvey operand on every lane: w and floor(w·2^Bits / q).
struct VecOperand {
    __m512i w, wq;
};

XEHE_AVX512 inline VecModulus vec_modulus(uint64_t q) {
    return {_mm512_set1_epi64(static_cast<long long>(q)),
            _mm512_set1_epi64(static_cast<long long>(q << 1)),
            _mm512_set1_epi64(static_cast<long long>((1ull << 52) - q))};
}

// The masked forms below: GCC 12 expands srli_epi64 and mul_epu32 with an
// undefined source vector, which warns under -Werror like min_epu64 does.

/// x >> S on every lane.
template <unsigned S>
XEHE_AVX512 inline __m512i shr(__m512i x) {
    return _mm512_maskz_srli_epi64(0xFF, x, S);
}

/// The 64-bit products of the low 32-bit halves of x and y.
XEHE_AVX512 inline __m512i mul32(__m512i x, __m512i y) {
    return _mm512_maskz_mul_epu32(0xFF, x, y);
}

/// The Harvey quotient lanes for width Bits from 64-bit quotients.
template <int Bits>
XEHE_AVX512 inline __m512i quotient_lanes(__m512i quotient64) {
    if constexpr (Bits == 52) {
        return shr<12>(quotient64);
    } else {
        return quotient64;
    }
}

template <int Bits>
XEHE_AVX512 inline VecOperand broadcast(const MultiplyModOperand &w) {
    const auto operand = static_cast<long long>(w.operand);
    const auto quotient = static_cast<long long>(w.quotient);
    return {_mm512_set1_epi64(operand),
            quotient_lanes<Bits>(_mm512_set1_epi64(quotient))};
}

/// x - m where x >= m: [0, 2m) -> [0, m).  A compare and a masked subtract
/// rather than min_epu64, whose GCC 12 expansion warns under -Werror.
XEHE_AVX512 inline __m512i reduce_once(__m512i x, __m512i m) {
    return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, m), x, m);
}

/// [0, 4q) -> [0, q).
XEHE_AVX512 inline __m512i reduce_4q(__m512i x, const VecModulus &m) {
    return reduce_once(reduce_once(x, m.two_q), m.q);
}

/// floor(x·y / 2^64) on every lane, from four 32×32→64-bit products.
XEHE_AVX512 inline __m512i mulhi64(__m512i x, __m512i y) {
    const __m512i x_hi = shr<32>(x);
    const __m512i y_hi = shr<32>(y);
    const __m512i ll = mul32(x, y);
    const __m512i lh = mul32(x, y_hi);
    const __m512i hl = mul32(x_hi, y);
    const __m512i hh = mul32(x_hi, y_hi);
    // x·y = hh·2^64 + (lh + hl)·2^32 + ll.  Neither partial sum below can
    // wrap, as (2^32 - 1)^2 + 2^32 - 1 < 2^64; the high word of `cross` is
    // the carry out of the middle 32-bit column.
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFll);
    const __m512i mid = _mm512_add_epi64(lh, shr<32>(ll));
    const __m512i cross = _mm512_add_epi64(hl, _mm512_and_si512(mid, low32));
    const __m512i hi = _mm512_add_epi64(hh, shr<32>(mid));
    return _mm512_add_epi64(hi, shr<32>(cross));
}

/// w·y mod q in [0, 2q): y < 2^52 for width 52, any y for width 64.
template <int Bits>
XEHE_AVX512 inline __m512i mul_lazy(__m512i y, const VecOperand &w,
                                    const VecModulus &m) {
    if constexpr (Bits == 52) {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i quot = _mm512_madd52hi_epu64(zero, w.wq, y);
        const __m512i wy = _mm512_madd52lo_epu64(zero, w.w, y);
        const __m512i r = _mm512_madd52lo_epu64(wy, quot, m.neg_q);
        return _mm512_and_si512(r, _mm512_set1_epi64((1ll << 52) - 1));
    } else {
        const __m512i quot = mulhi64(y, w.wq);
        const __m512i wy = _mm512_mullo_epi64(w.w, y);
        return _mm512_sub_epi64(wy, _mm512_mullo_epi64(quot, m.q));
    }
}

#else

inline bool has_dq() noexcept { return false; }
inline bool has_ifma() noexcept { return false; }

#endif  // __x86_64__

}  // namespace xehe::util::avx512
