// CPU reference evaluator for RNS-CKKS: Add, Multiply, Square, Relinearize,
// Rescale, ModSwitch and Rotate (Section II-A), with SEAL-style RNS key
// switching through a single special prime.  This is the correctness oracle
// the GPU evaluator (src/xehe) is validated against.
//
// Given a thread pool, the key switch, rescale and multiply run their
// independent limb loops as pool tasks (HEXL-style limb-level
// parallelism); without one the same loops run in order on the caller.
// Every task writes its own limbs with the same arithmetic, so both give
// bit-identical results.
#pragma once

#include "ckks/encryptor.h"

namespace xehe::xgpu {
class ThreadPool;
}

namespace xehe::ckks {

class Evaluator {
public:
    /// `pool` (optional, not owned) runs the key-switch, rescale and
    /// multiply limb loops as tasks; null runs them serially on the
    /// caller.  An
    /// evaluator on a pool inherits its rule: one caller at a time.
    explicit Evaluator(const CkksContext &context,
                       xgpu::ThreadPool *pool = nullptr);

    // --- linear ops ---------------------------------------------------
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext negate(const Ciphertext &a) const;
    Ciphertext add_plain(const Ciphertext &a, const Plaintext &p) const;
    Ciphertext multiply_plain(const Ciphertext &a, const Plaintext &p) const;

    // --- multiplicative ops --------------------------------------------
    /// Tensor product of two size-2 ciphertexts; result has size 3 and
    /// scale a.scale * b.scale.
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext square(const Ciphertext &a) const;

    /// Reduces a size-3 ciphertext back to size 2 with the relin key.
    Ciphertext relinearize(const Ciphertext &a, const RelinKeys &keys) const;

    /// Divides by the last active prime with rounding; drops one level and
    /// divides the scale by that prime.
    Ciphertext rescale(const Ciphertext &a) const;

    /// Drops the last active prime without scaling.
    Ciphertext mod_switch(const Ciphertext &a) const;

    /// Cyclic slot rotation by `step` via the Galois automorphism plus key
    /// switching.
    Ciphertext rotate(const Ciphertext &a, int step,
                      const GaloisKeys &keys) const;

    /// Complex conjugation of the slots.
    Ciphertext conjugate(const Ciphertext &a, const GaloisKeys &keys) const;

    const GaloisTool &galois_tool() const noexcept { return galois_; }

    /// Key switching workhorse: given `target` (an NTT-form RNS polynomial
    /// at dest.rns active primes that currently decrypts under the switch
    /// key's source secret), adds (ks0, ks1) into dest.poly(0)/poly(1).
    void switch_key_inplace(Ciphertext &dest, std::span<const uint64_t> target,
                            const KSwitchKey &key) const;

private:
    void check_compatible(const Ciphertext &a, const Ciphertext &b) const;
    /// Applies the Galois automorphism `elt` to a size-2 ciphertext and
    /// switches it back to the original key (rotate and conjugate).
    Ciphertext apply_galois(const Ciphertext &a, uint64_t elt,
                            const GaloisKeys &keys) const;

    const CkksContext *context_;
    xgpu::ThreadPool *pool_;
    GaloisTool galois_;
};

}  // namespace xehe::ckks
