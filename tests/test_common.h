// Shared test-support library: random-polynomial and random-vector
// generators, the modulus fixture list, batched-NTT fixtures with their
// reference transforms, and a CKKS encode/encrypt round-trip bench.
// Header-only; one header for all suites, which costs the pure-unit suites
// the CKKS includes but keeps the support surface in a single place.
#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ntt/ntt_ref.h"

namespace xehe::test {

using complexd = std::complex<double>;

/// The default CKKS scale used across the suites (2^40).
inline constexpr double kScale = 1099511627776.0;

// ---------------------------------------------------------------------------
// Modular-arithmetic fixtures
// ---------------------------------------------------------------------------

/// Modulus values spanning the corner cases: tiny primes, word-boundary
/// sizes, and NTT primes near the 50/60-bit operating points.
inline std::vector<uint64_t> test_moduli() {
    return {2, 3, 17, 257, 0xFFFFull, (1ull << 30) - 35, 0x7FFFFFFFFCA01ull,
            (1ull << 50) - 27, 1152921504606830593ull /* 2^60-ish NTT prime */};
}

/// One NTT prime for a transform size N: the (rank+1)-th largest
/// `bits`-bit prime q ≡ 1 (mod 2N) (rank 0 is the largest).
struct PrimeChoice {
    int bits;
    std::size_t rank;

    util::Modulus prime(std::size_t n) const {
        return util::generate_ntt_primes(bits, n, rank + 1)[rank];
    }
};

inline void PrintTo(const PrimeChoice &c, std::ostream *os) {
    *os << c.bits << "-bit rank " << c.rank;
}

// ---------------------------------------------------------------------------
// Random generators (deterministic per seed)
// ---------------------------------------------------------------------------

/// Uniform residues mod q.
inline std::vector<uint64_t> random_poly(std::size_t n, const util::Modulus &q,
                                         uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> a(n);
    for (auto &x : a) {
        x = rng() % q.value();
    }
    return a;
}

/// Complex values with both parts uniform in [-magnitude, magnitude].
inline std::vector<complexd> random_complex(std::size_t count, uint64_t seed,
                                            double magnitude = 1.0) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-magnitude, magnitude);
    std::vector<complexd> v(count);
    for (auto &x : v) {
        x = {dist(rng), dist(rng)};
    }
    return v;
}

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

inline double max_abs_diff(const std::vector<complexd> &a,
                           const std::vector<complexd> &b) {
    // Guard against vacuous passes: a truncated result must not compare
    // "close" over the empty suffix it is missing.
    EXPECT_EQ(a.size(), b.size());
    double m = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return m;
}

/// Expects `got` to approximate `expect` elementwise within `tolerance`.
inline void expect_close(const std::vector<complexd> &got,
                         const std::vector<complexd> &expect, double tolerance,
                         const char *what) {
    ASSERT_GE(got.size(), expect.size());
    double max_err = 0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        max_err = std::max(max_err, std::abs(got[i] - expect[i]));
    }
    EXPECT_LT(max_err, tolerance) << what;
}

/// FNV-1a over the bytes of a value; doubles fold by bit pattern, so any
/// change in the last ulp of a simulated figure changes the digest.  The
/// cost-pinning tests hash every figure a refactor must keep.
struct Digest {
    uint64_t h = 0xcbf29ce484222325ull;

    void bytes(const void *p, std::size_t len) {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; ++i) {
            h = (h ^ c[i]) * 0x100000001b3ull;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void num(std::size_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void words(std::span<const uint64_t> w) {
        bytes(w.data(), w.size_bytes());
    }
};

// ---------------------------------------------------------------------------
// NTT fixtures: batched polynomials and their reference transforms
// ---------------------------------------------------------------------------

/// `polys` concatenated RNS polynomials in the [poly][rns][N] layout the
/// batched GPU NTT dispatcher consumes.
struct Batch {
    std::vector<uint64_t> data;
    std::size_t polys = 0;
    std::vector<ntt::NttTables> tables;
};

inline Batch make_batch(std::size_t n, std::size_t polys, std::size_t rns,
                        uint64_t seed, int bits = 50) {
    Batch b;
    b.polys = polys;
    const auto moduli = util::generate_ntt_primes(bits, n, rns);
    b.tables = ntt::make_ntt_tables(n, moduli);
    b.data.resize(polys * rns * n);
    std::mt19937_64 rng(seed);
    for (std::size_t t = 0; t < polys * rns; ++t) {
        const uint64_t q = moduli[t % rns].value();
        for (std::size_t i = 0; i < n; ++i) {
            b.data[t * n + i] = rng() % q;
        }
    }
    return b;
}

/// Reference forward NTT of every (poly, rns) slice.
inline std::vector<uint64_t> reference_forward(const Batch &b) {
    std::vector<uint64_t> expect = b.data;
    const std::size_t n = b.tables[0].n();
    const std::size_t rns = b.tables.size();
    for (std::size_t t = 0; t < b.polys * rns; ++t) {
        std::span<uint64_t> slice(expect.data() + t * n, n);
        ntt::ntt_forward(slice, b.tables[t % rns]);
    }
    return expect;
}

/// Reference inverse NTT of every (poly, rns) slice.
inline std::vector<uint64_t> reference_inverse(const Batch &b) {
    std::vector<uint64_t> expect = b.data;
    const std::size_t n = b.tables[0].n();
    const std::size_t rns = b.tables.size();
    for (std::size_t t = 0; t < b.polys * rns; ++t) {
        std::span<uint64_t> slice(expect.data() + t * n, n);
        ntt::ntt_inverse(slice, b.tables[t % rns]);
    }
    return expect;
}

/// O(N^2) negacyclic DFT oracle, returning a fresh vector.
inline std::vector<uint64_t> naive_forward(std::span<const uint64_t> a,
                                           const ntt::NttTables &tables) {
    std::vector<uint64_t> out(a.size());
    ntt::naive_negacyclic_ntt(a, out, tables);
    return out;
}

// ---------------------------------------------------------------------------
// CKKS bench: the full host-side scheme with round-trip helpers
// ---------------------------------------------------------------------------

/// Context + encoder + keys + encryptor/decryptor + evaluator, wired up for
/// one parameter set.  The `enc`/`dec` helpers perform the encode->encrypt
/// and decrypt->decode round trips every scheme-level test needs.
struct CkksBench {
    ckks::CkksContext context;
    ckks::CkksEncoder encoder;
    ckks::KeyGenerator keygen;
    ckks::Encryptor encryptor;
    ckks::Decryptor decryptor;
    ckks::Evaluator evaluator;

    explicit CkksBench(std::size_t n = 4096, std::size_t levels = 4)
        : context(ckks::EncryptionParameters::create(n, levels)),
          encoder(context),
          keygen(context),
          encryptor(context, keygen.create_public_key()),
          decryptor(context, keygen.secret_key()),
          evaluator(context) {}

    /// Random slot values, one per slot by default.
    std::vector<complexd> values(uint64_t seed, double magnitude = 1.0) const {
        return random_complex(encoder.slots(), seed, magnitude);
    }

    /// Encode -> encrypt.
    ckks::Ciphertext enc(const std::vector<complexd> &v,
                         double scale = kScale) {
        return encryptor.encrypt(
            encoder.encode(std::span<const complexd>(v), scale));
    }

    /// Decrypt -> decode.
    std::vector<complexd> dec(const ckks::Ciphertext &ct) {
        return encoder.decode(decryptor.decrypt(ct));
    }
};

}  // namespace xehe::test
