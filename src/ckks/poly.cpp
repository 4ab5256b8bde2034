#include "ckks/poly.h"

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
        const Modulus &q = moduli[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            out[i] = util::mul_mod(a[i], b[i], q);
        }
    }
}

void mad(std::span<const uint64_t> a, std::span<const uint64_t> b,
         std::span<uint64_t> out, std::span<const Modulus> moduli,
         std::size_t n) {
    check(a, moduli.size(), n);
    for (std::size_t r = 0; r < moduli.size(); ++r) {
        const Modulus &q = moduli[r];
        for (std::size_t i = r * n; i < (r + 1) * n; ++i) {
            out[i] = util::mad_mod(a[i], b[i], out[i], q);
        }
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
