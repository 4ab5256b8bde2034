// he::Session — the managed frontend over a Backend: owns the keys and
// the encode/encrypt/decrypt boundary, and performs SEAL-style automatic
// scale and level management so callers compose ops freely:
//
//   he::Session s(backend);
//   auto c = s.add(s.multiply(a, b), c0);   // legal at any operand levels
//
// - setup: the scale is the value of the last data prime, so the first
//   rescale lands exactly back on it; the waterline is 16x the scale;
//   keys cover relinearization, rotation by 1 and conjugation, generated
//   under a fixed seed, so two sessions (on any backends) encrypt
//   identical ciphertexts.
// - auto-relinearize: size-3 products are reduced back to size 2
//   immediately (and size-3 operands are relinearized before ops that
//   need size 2).
// - auto-rescale: a product whose scale crosses the waterline is rescaled
//   until it is back under it; when the rescaled scale lands within
//   snap_window() of the session scale — twice the widest gap between a
//   data prime and the scale, 2^-33 to 2^-26 for the stock chains — it
//   snaps there exactly (free — metadata on a fresh ciphertext), so
//   chains stay at one scale.  A product of an operand off the session
//   scale lands outside the window and keeps its exact scale, so it
//   still decrypts to its true value.
// - alignment: add, sub and multiply run as one-node Programs through
//   run(), so the compiler's planner aligns their operands like any
//   circuit's: the higher-level operand is mod-switched down, and add/sub
//   close a scale gap within kSnapTolerance by adopting the partner's
//   scale (a wider gap throws ProgramRejected).  multiply aligns levels
//   only: it is exact across unequal scales.
//
// The same Session logic drives both backends, so every managed op chain
// is bit-identical on HostBackend and GpuBackend
// (tests/test_he_backend.cpp).
#pragma once

#include "ckks/encoder.h"
#include "he/compiler.h"

namespace xehe::he {

class Session {
public:
    explicit Session(Backend &backend);

    const ckks::CkksContext &context() const noexcept {
        return backend_->context();
    }
    Backend &backend() noexcept { return *backend_; }
    double scale() const noexcept { return scale_; }
    double waterline() const noexcept { return waterline_; }
    /// Relative distance from scale() within which a rescaled product
    /// snaps onto it.
    double snap_window() const noexcept { return snap_window_; }

    const ckks::RelinKeys &relin_keys() const noexcept { return relin_; }
    const ckks::GaloisKeys &galois_keys() const noexcept { return galois_; }

    // --- client boundary ----------------------------------------------
    Cipher encrypt(std::span<const double> values);
    Cipher encrypt(double value);
    /// Decrypt + decode; real parts of the first `count` slots (0 = all).
    std::vector<double> decrypt(const Cipher &c, std::size_t count = 0);

    // --- managed operations -------------------------------------------
    Cipher add(const Cipher &a, const Cipher &b);
    Cipher sub(const Cipher &a, const Cipher &b);
    Cipher negate(const Cipher &a);
    Cipher multiply(const Cipher &a, const Cipher &b);
    Cipher square(const Cipher &a);
    Cipher add(const Cipher &a, double value);
    Cipher sub(const Cipher &a, double value);
    Cipher multiply(const Cipher &a, double value);
    Cipher rotate(const Cipher &a, int step);
    Cipher conjugate(const Cipher &a);
    // Unmanaged work (relinearize, rescale, mod_switch, set_scale) goes
    // through backend() directly.

    /// Interprets a Program over this session's backend and keys, compiled
    /// for the inputs' own levels and scales (facts_of() per input), so
    /// inputs may sit at different levels and scales.  On first sight of a
    /// (program, input facts) pair the program is checked by the analyzer
    /// — he::ProgramRejected for circuits that provably cannot execute —
    /// and compiled; the compiled form is cached, so repeats skip both.
    std::vector<Cipher> run(const Program &program,
                            std::span<const Cipher> inputs);

private:
    /// Relinearizes size-3 operands when an op needs size 2.
    Cipher as_size2(Cipher a);
    /// Auto-relinearize + waterline rescale of a fresh product.
    Cipher finish_product(Cipher prod);
    /// run() of a one-node program over (a, b).
    Cipher run_pair(const Program &program, const Cipher &a, const Cipher &b);

    Backend *backend_;
    CompileCache compile_cache_;  ///< run()'s analyzed, compiled programs
    double scale_;
    double waterline_;
    double snap_window_;
    ckks::CkksEncoder encoder_;
    ckks::KeyGenerator keygen_;
    ckks::PublicKey public_key_;
    ckks::Encryptor encryptor_;
    ckks::Decryptor decryptor_;
    ckks::RelinKeys relin_;
    ckks::GaloisKeys galois_;
};

}  // namespace xehe::he
