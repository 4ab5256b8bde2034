#include "ckks/encoder.h"

#include <cmath>
#include <numbers>

namespace xehe::ckks {

ComplexFft::ComplexFft(std::size_t n) : n_(n), log_n_(util::log2_exact(n)) {
    const double angle = std::numbers::pi / static_cast<double>(n);
    roots_.resize(n);
    inv_roots_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double theta = angle * static_cast<double>(i);
        roots_[util::reverse_bits(i, log_n_)] = {std::cos(theta),
                                                 std::sin(theta)};
    }
    inv_roots_[0] = {1.0, 0.0};
    for (std::size_t i = 1; i < n; ++i) {
        const double theta = -angle * static_cast<double>(i);
        inv_roots_[util::reverse_bits(i - 1, log_n_) + 1] = {std::cos(theta),
                                                             std::sin(theta)};
    }
}

void ComplexFft::forward(std::span<std::complex<double>> a) const {
    util::require(a.size() == n_, "FFT size mismatch");
    std::size_t gap = n_ >> 1;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::complex<double> w = roots_[m + i];
            std::complex<double> *lo = a.data() + i * 2 * gap;
            std::complex<double> *hi = lo + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                const std::complex<double> u = lo[j];
                const std::complex<double> v = hi[j] * w;
                lo[j] = u + v;
                hi[j] = u - v;
            }
        }
        gap >>= 1;
    }
}

void ComplexFft::inverse(std::span<std::complex<double>> a) const {
    util::require(a.size() == n_, "FFT size mismatch");
    std::size_t gap = 1;
    for (std::size_t m = n_ >> 1; m >= 1; m >>= 1) {
        const std::size_t base = n_ - 2 * m + 1;
        for (std::size_t i = 0; i < m; ++i) {
            const std::complex<double> w = inv_roots_[base + i];
            std::complex<double> *lo = a.data() + i * 2 * gap;
            std::complex<double> *hi = lo + gap;
            for (std::size_t j = 0; j < gap; ++j) {
                const std::complex<double> u = lo[j];
                const std::complex<double> v = hi[j];
                lo[j] = u + v;
                hi[j] = (u - v) * w;
            }
        }
        gap <<= 1;
    }
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (auto &x : a) {
        x *= inv_n;
    }
}

CkksEncoder::CkksEncoder(const CkksContext &context)
    : context_(&context), fft_(context.n()) {
    // Galois ordering: slot i sits at the transform position evaluating at
    // ζ^{3^i}; generator 3 has order N/2 mod 2N, covering half the odd
    // exponents, the conjugates covering the rest.
    const std::size_t n = context.n();
    const std::size_t slots = context.slots();
    const uint64_t m = 2 * n;
    index_map_.resize(n);
    uint64_t pos = 1;
    for (std::size_t i = 0; i < slots; ++i) {
        const uint64_t index1 = (pos - 1) >> 1;
        const uint64_t index2 = (m - pos - 1) >> 1;
        index_map_[i] = util::reverse_bits(index1, context.log_n());
        index_map_[i + slots] = util::reverse_bits(index2, context.log_n());
        pos = (pos * 3) % m;
    }

    const auto &moduli = context.key_modulus();
    const std::size_t levels = context.max_level();
    garner_inv_.resize(levels);
    radix_mod_.resize(levels);
    for (std::size_t i = 0; i < levels; ++i) {
        const Modulus &q = moduli[i];
        uint64_t prefix = 1;
        for (std::size_t j = 0; j < i; ++j) {
            radix_mod_[i].push_back(
                util::barrett_reduce_64(moduli[j].value(), q));
            prefix = util::mul_mod(prefix, radix_mod_[i][j], q);
        }
        // prefix != 0: the context admits only distinct prime moduli.
        garner_inv_[i] =
            MultiplyModOperand(util::pow_mod(prefix, q.value() - 2, q), q);
    }
    // floor(Q_l / 2) = (Q_l - 1) / 2 (every q_i is odd) has residue
    // (q_i - 1) / 2 mod each q_i.
    half_digits_.resize(levels + 1);
    for (std::size_t l = 1; l <= levels; ++l) {
        std::vector<uint64_t> half(l);
        for (std::size_t i = 0; i < l; ++i) {
            half[i] = (moduli[i].value() - 1) / 2;
        }
        half_digits_[l].resize(l);
        garner_digits(half, half_digits_[l]);
    }
}

void CkksEncoder::garner_digits(std::span<const uint64_t> residues,
                                std::span<uint64_t> digits) const {
    const auto &moduli = context_->key_modulus();
    digits[0] = residues[0];
    for (std::size_t i = 1; i < residues.size(); ++i) {
        const Modulus &q = moduli[i];
        // [a_0 + a_1 q_0 + ... + a_{i-1} q_0⋯q_{i-2}]_{q_i}, Horner from
        // the top digit.
        uint64_t acc = util::barrett_reduce_64(digits[i - 1], q);
        for (std::size_t j = i - 1; j-- > 0;) {
            acc = util::mad_mod(acc, radix_mod_[i][j], digits[j], q);
        }
        digits[i] = util::mul_mod(util::sub_mod(residues[i], acc, q),
                                  garner_inv_[i], q);
    }
}

Plaintext CkksEncoder::encode(std::span<const std::complex<double>> values,
                              double scale, std::size_t rns_count) const {
    const std::size_t n = context_->n();
    const std::size_t slots = context_->slots();
    util::require(values.size() <= slots, "too many values for slot count");
    util::require(scale > 0, "scale must be positive");
    if (rns_count == 0) {
        rns_count = context_->max_level();
    }
    util::require(rns_count >= 1 && rns_count <= context_->max_level(),
                  "bad rns count");

    // Conjugate-symmetric spread into the Galois slot ordering.
    std::vector<std::complex<double>> conj_values(n, {0.0, 0.0});
    for (std::size_t i = 0; i < values.size(); ++i) {
        conj_values[index_map_[i]] = values[i];
        conj_values[index_map_[i + slots]] = std::conj(values[i]);
    }
    fft_.inverse(conj_values);

    Plaintext plain;
    plain.n = n;
    plain.rns = rns_count;
    plain.scale = scale;
    plain.ntt_form = true;
    plain.data.resize(rns_count * n);

    for (std::size_t k = 0; k < n; ++k) {
        const double coeff = conj_values[k].real() * scale;
        util::require(std::abs(coeff) < std::ldexp(1.0, 62),
                      "encoded coefficient exceeds 62 bits; reduce the scale");
        const long long rounded = std::llround(coeff);
        for (std::size_t r = 0; r < rns_count; ++r) {
            const Modulus &q = context_->key_modulus()[r];
            plain.data[r * n + k] =
                rounded >= 0
                    ? util::barrett_reduce_64(static_cast<uint64_t>(rounded), q)
                    : util::negate_mod(util::barrett_reduce_64(
                                           static_cast<uint64_t>(-rounded), q),
                                       q);
        }
    }
    poly::ntt(plain.data, context_->tables(rns_count), n);
    return plain;
}

Plaintext CkksEncoder::encode(std::span<const double> values, double scale,
                              std::size_t rns_count) const {
    std::vector<std::complex<double>> complex_values(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        complex_values[i] = {values[i], 0.0};
    }
    return encode(std::span<const std::complex<double>>(complex_values), scale,
                  rns_count);
}

Plaintext CkksEncoder::encode(double value, double scale,
                              std::size_t rns_count) const {
    std::vector<std::complex<double>> broadcast(context_->slots(), {value,
                                                                    0.0});
    return encode(std::span<const std::complex<double>>(broadcast), scale,
                  rns_count);
}

std::vector<std::complex<double>> CkksEncoder::decode(
    const Plaintext &plain) const {
    const std::size_t n = context_->n();
    const std::size_t slots = context_->slots();
    const std::size_t l = plain.rns;
    util::require(plain.n == n && l >= 1 && l <= context_->max_level() &&
                      plain.data.size() == l * n,
                  "malformed plaintext");
    util::require(plain.ntt_form, "decode expects NTT form");

    // Back to coefficient representation.
    std::vector<uint64_t> coeffs = plain.data;
    poly::intt(coeffs, context_->tables(l), n);

    // Compose each coefficient into Garner digits, center, and scale down.
    const auto &moduli = context_->key_modulus();
    const std::vector<uint64_t> &half = half_digits_[l];
    std::vector<std::complex<double>> values(n);
    // x < Q_l < 2^{61 l} fits in l words.
    std::vector<uint64_t> residues(l), digits(l), words(l);
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t r = 0; r < l; ++r) {
            residues[r] = coeffs[r * n + k];
        }
        garner_digits(residues, digits);

        // Digits order like the integers from the top digit down.
        std::size_t top = l;
        while (top > 0 && digits[top - 1] == half[top - 1]) {
            --top;
        }
        const bool negative = top == 0 || digits[top - 1] > half[top - 1];
        if (negative) {
            // Q_l - x = (Q_l - 1 - x) + 1: Q_l - 1 has digits q_i - 1, so
            // complement each digit, then add one with carry.  x >= 1, so
            // the carry stops below the top digit.
            uint64_t carry = 1;
            for (std::size_t r = 0; r < l; ++r) {
                const uint64_t q = moduli[r].value();
                const uint64_t d = q - 1 - digits[r] + carry;
                carry = d == q ? 1 : 0;
                digits[r] = d - carry * q;
            }
        }

        // Horner from the top digit: x = a_0 + q_0 (a_1 + q_1 (a_2 + ...)).
        words[0] = digits[l - 1];
        std::size_t used = 1;
        for (std::size_t r = l - 1; r-- > 0;) {
            const uint64_t q = moduli[r].value();
            util::uint128_t carry = digits[r];
            for (std::size_t w = 0; w < used; ++w) {
                carry += static_cast<util::uint128_t>(words[w]) * q;
                words[w] = static_cast<uint64_t>(carry);
                carry >>= 64;
            }
            if (carry != 0) {
                words[used++] = static_cast<uint64_t>(carry);
            }
        }
        double magnitude = 0.0;
        for (std::size_t w = used; w-- > 0;) {
            magnitude = magnitude * 18446744073709551616.0 +
                        static_cast<double>(words[w]);
        }
        values[k] = {(negative ? -magnitude : magnitude) / plain.scale, 0.0};
    }

    fft_.forward(values);
    std::vector<std::complex<double>> result(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        result[i] = values[index_map_[i]];
    }
    return result;
}

}  // namespace xehe::ckks
