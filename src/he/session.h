// he::Session — the managed frontend over a Backend: owns the keys and
// the encode/encrypt/decrypt boundary, and performs SEAL-style automatic
// scale and level management so callers compose ops freely:
//
//   he::Session s(backend);
//   auto c = s.add(s.multiply(a, b), c0);   // legal at any operand levels
//
// - auto-relinearize: size-3 products are reduced back to size 2
//   immediately (and size-3 operands are relinearized before ops that
//   need size 2).
// - auto-rescale: a product whose scale crosses the waterline is rescaled
//   until it is back under it; when the rescaled scale lands within
//   `snap_tolerance` of the session scale it snaps there exactly (free —
//   metadata on a fresh ciphertext), so chains stay at one scale.
// - alignment: add/sub mod-switch the higher-level operand down and
//   reconcile scales — a small relative gap snaps, a large (>= 256x) gap
//   applies a plain multiply-by-one correction (error <= 0.5/factor from
//   coefficient rounding; mid-range gaps throw).  multiply aligns levels
//   only: it is exact across unequal scales.
//
// The same Session logic drives both backends, so every managed op chain
// is bit-identical on HostBackend and GpuBackend
// (tests/test_he_backend.cpp).
#pragma once

#include "ckks/encoder.h"
#include "he/program.h"

namespace xehe::he {

struct SessionOptions {
    /// Encryption scale Δ.  0 derives it from the context: the value of
    /// the last data prime, which makes the first rescale land exactly
    /// back on Δ (and subsequent ones within the snap tolerance).
    double scale = 0.0;
    /// Rescale products at or above this scale.  0 = 16 * scale.
    double waterline = 0.0;
    /// Relative distance within which scales snap (metadata override)
    /// instead of applying a multiply-by-one correction.
    double snap_tolerance = 0.25;
    bool auto_relinearize = true;
    bool auto_rescale = true;
    /// Rotation steps to create Galois keys for.
    std::vector<int> rotations = {1};
    /// Also create the complex-conjugation key.
    bool conjugation = true;
    /// Seed for key generation and encryption randomness; two sessions
    /// with equal seeds (on any backends) encrypt identical ciphertexts.
    uint64_t seed = 0x5EA55107;
    /// Run programs through he::ProgramCompiler before interpreting
    /// (CSE/DCE, global rescale planning, fusion pre-lowering), with a
    /// per-session cache of compiled programs.  Off = raw node-by-node
    /// interpretation of the program exactly as written.
    bool compile_programs = true;
    /// Statically verify programs with he::ProgramAnalyzer before
    /// running: run() throws he::ProgramRejected (an invalid_argument)
    /// for circuits that provably cannot execute on the given inputs —
    /// level underflow, size violations, rotations this session has no
    /// galois key for — instead of faulting mid-execution.  The check
    /// respects compile_programs (a planner-repairable misalignment is
    /// not an error when the compiler will run).
    bool analyze_programs = true;
};

class Session {
public:
    explicit Session(Backend &backend, SessionOptions options = {});

    const ckks::CkksContext &context() const noexcept {
        return backend_->context();
    }
    Backend &backend() noexcept { return *backend_; }
    double scale() const noexcept { return scale_; }
    double waterline() const noexcept { return waterline_; }
    const SessionOptions &options() const noexcept { return options_; }

    const ckks::RelinKeys &relin_keys() const noexcept { return relin_; }
    const ckks::GaloisKeys &galois_keys() const noexcept { return galois_; }
    const ckks::PublicKey &public_key() const noexcept { return public_key_; }

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

    // --- raw escapes (no automatic management) ------------------------
    Cipher relinearize(const Cipher &a);
    Cipher rescale(const Cipher &a);
    Cipher mod_switch(const Cipher &a);
    Cipher set_scale(const Cipher &a, double scale);

    /// Both operands after the session's level/scale alignment — what a
    /// binary op would actually combine (exposed for tests).
    std::pair<Cipher, Cipher> aligned(const Cipher &a, const Cipher &b);

    /// Interprets a Program over this session's backend and keys.  With
    /// SessionOptions::compile_programs the program is optimized first
    /// (cached per structural fingerprint and input level and scale, so
    /// repeated runs compile once) and planned for the inputs' level and
    /// scale.  Inputs at differing levels or scales cannot share one plan:
    /// the program then runs as written, and the analyzer rejects it
    /// strictly if it would fault.
    std::vector<Cipher> run(const Program &program,
                            std::span<const Cipher> inputs);

private:
    /// Relinearizes size-3 operands when an op needs size 2.
    Cipher as_size2(Cipher a);
    /// Auto-relinearize + waterline rescale of a fresh product.
    Cipher finish_product(Cipher prod);
    void align_levels(Cipher &a, Cipher &b);
    void align(Cipher &a, Cipher &b);
    ckks::Plaintext encode_const(double value, double at_scale,
                                 std::size_t level) const;

    Backend *backend_;
    SessionOptions options_;
    /// Compiled-program cache keyed on the program and the input level and
    /// scale it was planned for: fingerprint precheck, then structural
    /// equality (fingerprints can collide; a wrong program must never
    /// run).  Bounded: the cache clears when it outgrows its cap.
    struct CompiledEntry {
        uint64_t fingerprint;
        std::size_t level;
        double scale;
        Program source;
        std::shared_ptr<const Program> compiled;
    };
    std::vector<CompiledEntry> compiled_cache_;
    double scale_ = 0.0;
    double waterline_ = 0.0;
    ckks::CkksEncoder encoder_;
    ckks::KeyGenerator keygen_;
    ckks::PublicKey public_key_;
    ckks::Encryptor encryptor_;
    ckks::Decryptor decryptor_;
    ckks::RelinKeys relin_;
    ckks::GaloisKeys galois_;
};

}  // namespace xehe::he
