#include "ntt/ntt_ref.h"

namespace xehe::ntt {

void ntt_forward(std::span<uint64_t> a, const NttTables &tables) {
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

void ntt_inverse(std::span<uint64_t> a, const NttTables &tables) {
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
