// Prime generation for RNS-CKKS: deterministic Miller-Rabin for 64-bit
// inputs, NTT-friendly prime search (p ≡ 1 mod 2N), and primitive-root
// computation for the negacyclic NTT.
#pragma once

#include <vector>

#include "util/modulus.h"

namespace xehe::util {

/// Deterministic Miller-Rabin primality test, exact for all 64-bit inputs.
bool is_prime(uint64_t value);

/// Generates `count` distinct primes of exactly `bit_size` bits with
/// p ≡ 1 (mod 2 * ntt_size), searching downward from 2^bit_size.
/// Throws if not enough primes exist in range.
std::vector<Modulus> generate_ntt_primes(int bit_size, size_t ntt_size,
                                         size_t count);

/// Finds a generator-derived primitive `group_size`-th root of unity mod q.
/// group_size must be a power of two dividing q-1.  Returns false if none.
bool try_primitive_root(uint64_t group_size, const Modulus &q, uint64_t *root);

/// Finds the smallest primitive `group_size`-th root of unity mod q.
bool try_minimal_primitive_root(uint64_t group_size, const Modulus &q,
                                uint64_t *root);

}  // namespace xehe::util
