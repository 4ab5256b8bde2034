// Basic shared utilities: integer types, bit manipulation, checked helpers.
//
// Everything in xehe is built on 64-bit unsigned arithmetic with word-level
// access to 128-bit intermediate products, mirroring the paper's int64
// data path on Intel GPUs.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cassert>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace xehe::util {

using std::size_t;
using std::uint32_t;
using std::uint64_t;

/// Returns true if `value` is a (positive) power of two.
constexpr bool is_power_of_two(uint64_t value) noexcept {
    return value != 0 && (value & (value - 1)) == 0;
}

/// Exact log2 for powers of two.
constexpr int log2_exact(uint64_t value) noexcept {
    return std::countr_zero(value);
}

/// Number of significant bits (0 for 0).
constexpr int significant_bits(uint64_t value) noexcept {
    return 64 - std::countl_zero(value);
}

/// Ceiling division for nonnegative integers.
constexpr uint64_t div_round_up(uint64_t a, uint64_t b) noexcept {
    return (a + b - 1) / b;
}

/// Reverses the low `bit_count` bits of `operand`.
constexpr uint64_t reverse_bits(uint64_t operand, int bit_count) noexcept {
    if (bit_count == 0) {
        return 0;
    }
    uint64_t result = 0;
    for (int i = 0; i < bit_count; ++i) {
        result = (result << 1) | (operand & 1);
        operand >>= 1;
    }
    return result;
}

/// Throws std::invalid_argument with `message` if `condition` is false.
inline void require(bool condition, const std::string &message) {
    if (!condition) {
        throw std::invalid_argument(message);
    }
}

}  // namespace xehe::util
