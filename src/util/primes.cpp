#include "util/primes.h"

#include <algorithm>

#include "util/modarith.h"

namespace xehe::util {

namespace {

// Plain 128-bit modular helpers: unlike Modulus, these accept the full
// 64-bit range, which is_prime must support.
uint64_t mulmod_u64(uint64_t a, uint64_t b, uint64_t q) {
    return static_cast<uint64_t>(static_cast<uint128_t>(a) * b % q);
}

uint64_t powmod_u64(uint64_t base, uint64_t e, uint64_t q) {
    uint64_t result = 1;
    base %= q;
    while (e != 0) {
        if (e & 1) {
            result = mulmod_u64(result, base, q);
        }
        base = mulmod_u64(base, base, q);
        e >>= 1;
    }
    return result;
}

// Witness loop of Miller-Rabin for modulus q = d * 2^r + 1.
bool witness_composite(uint64_t a, uint64_t d, int r, uint64_t q) {
    uint64_t x = powmod_u64(a, d, q);
    if (x == 1 || x == q - 1) {
        return false;
    }
    for (int i = 1; i < r; ++i) {
        x = mulmod_u64(x, x, q);
        if (x == q - 1) {
            return false;
        }
    }
    return true;
}

}  // namespace

bool is_prime(uint64_t value) {
    if (value < 2) {
        return false;
    }
    for (uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                       23ull, 29ull, 31ull, 37ull}) {
        if (value == p) {
            return true;
        }
        if (value % p == 0) {
            return false;
        }
    }
    // value - 1 = d * 2^r
    uint64_t d = value - 1;
    int r = 0;
    while ((d & 1) == 0) {
        d >>= 1;
        ++r;
    }
    // These bases are a deterministic certificate for all 64-bit integers.
    for (uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                       23ull, 29ull, 31ull, 37ull}) {
        if (witness_composite(a, d, r, value)) {
            return false;
        }
    }
    return true;
}

std::vector<Modulus> generate_ntt_primes(int bit_size, size_t ntt_size,
                                         size_t count) {
    require(bit_size >= 10 && bit_size <= Modulus::kMaxBits,
            "bit_size out of range");
    require(is_power_of_two(ntt_size), "ntt_size must be a power of two");
    const uint64_t factor = 2 * static_cast<uint64_t>(ntt_size);
    std::vector<Modulus> result;
    // Largest candidate of `bit_size` bits congruent to 1 mod 2N.
    uint64_t candidate = ((uint64_t{1} << bit_size) - 1) / factor * factor + 1;
    const uint64_t lower = uint64_t{1} << (bit_size - 1);
    while (result.size() < count && candidate > lower) {
        if (is_prime(candidate)) {
            result.emplace_back(candidate);
        }
        candidate -= factor;
    }
    require(result.size() == count, "not enough NTT primes of requested size");
    return result;
}

bool try_primitive_root(uint64_t group_size, const Modulus &q, uint64_t *root) {
    require(is_power_of_two(group_size), "group_size must be a power of two");
    const uint64_t order = q.value() - 1;
    if (order % group_size != 0) {
        return false;
    }
    const uint64_t quotient = order / group_size;
    // Random-ish deterministic search for an element of order group_size.
    uint64_t seed = 0x9E3779B97F4A7C15ull;
    for (int attempt = 0; attempt < 256; ++attempt) {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        const uint64_t candidate = pow_mod(barrett_reduce_64(seed, q) | 1,
                                           quotient, q);
        // candidate has order dividing group_size; check it is exactly
        // group_size by ensuring candidate^(group_size/2) == -1.
        if (group_size == 1) {
            *root = 1;
            return true;
        }
        if (pow_mod(candidate, group_size / 2, q) == q.value() - 1) {
            *root = candidate;
            return true;
        }
    }
    return false;
}

bool try_minimal_primitive_root(uint64_t group_size, const Modulus &q,
                                uint64_t *root) {
    uint64_t r = 0;
    if (!try_primitive_root(group_size, q, &r)) {
        return false;
    }
    // All primitive roots are r^k with k odd (gcd(k, group_size) = 1);
    // walk the odd powers and keep the minimum.
    const uint64_t generator_sq = mul_mod(r, r, q);
    uint64_t candidate = r;
    uint64_t best = r;
    for (uint64_t i = 0; i < group_size / 2; ++i) {
        best = std::min(best, candidate);
        candidate = mul_mod(candidate, generator_sq, q);
    }
    *root = best;
    return true;
}

}  // namespace xehe::util
