// Minimal arbitrary-precision unsigned integer used to compose RNS residues
// back to a single integer mod Q = Π q_i during CKKS decoding, and to hold
// the punctured products Q / q_i of an RNS base.
//
// Only the operations the HE pipeline needs are implemented; this is a
// substrate, not a general bignum library.
#pragma once

#include <vector>

#include "util/common.h"
#include "util/modulus.h"

namespace xehe::util {

class BigUInt {
public:
    BigUInt() : words_(1, 0) {}

    explicit BigUInt(uint64_t value) : words_(1, value) {}

    static BigUInt from_words(std::vector<uint64_t> words);

    uint64_t word(size_t i) const noexcept {
        return i < words_.size() ? words_[i] : 0;
    }
    const std::vector<uint64_t> &words() const noexcept { return words_; }

    bool is_zero() const noexcept;

    /// Number of significant bits (0 for zero).
    int significant_bit_count() const noexcept;

    void add_assign(const BigUInt &other);
    /// Requires *this >= other.
    void sub_assign(const BigUInt &other);

    /// Multiplies by a single machine word.
    void mul_word_assign(uint64_t value);

    /// this * other (schoolbook).
    BigUInt mul(const BigUInt &other) const;

    /// Shift right by one bit (used for Q/2 threshold).
    BigUInt shr1() const;

    /// Three-way comparison: -1, 0, +1.
    int compare(const BigUInt &other) const noexcept;

    bool operator<(const BigUInt &o) const noexcept { return compare(o) < 0; }
    bool operator>=(const BigUInt &o) const noexcept { return compare(o) >= 0; }
    bool operator==(const BigUInt &o) const noexcept { return compare(o) == 0; }

    /// Residue mod a word-size modulus (Horner over words).
    uint64_t mod_word(const Modulus &q) const noexcept;

    /// Lossy conversion to double (top bits + exponent); exact for values
    /// that fit a double mantissa.
    double to_double() const noexcept;

    void trim();

private:
    // Little-endian words; invariant: at least one word.
    std::vector<uint64_t> words_;
};

}  // namespace xehe::util
