// The GPU-accelerated CKKS evaluator — the paper's core contribution.
//
// Every primitive is expressed as a graph of simulated-GPU kernels
// submitted to an in-order queue without host synchronization (Fig. 2):
// dyadic ciphertext arithmetic as elementwise kernels (optionally using the
// fused mad_mod of Section III-A1), NTT/iNTT through the configured
// GpuNtt variant, and SEAL-style RNS key switching for relinearization and
// rotation.  Rescale and the key-switch mod-down run through one rounded
// division, divide_round, as on the host.  The five routines benchmarked
// in Section IV-C (MulLin, MulLinRS, SqrLinRS, MulLinRSModSwAdd, Rotate)
// are compositions of these primitives; routine_program (xehe/routines.h)
// is their one definition.
//
// With GpuOptions::fuse_dyadic (default on) the non-NTT segments route
// through the xgpu FusionBuilder: the tensor-product partials become one
// launch, the per-limb reduce and finish stages of the rounded division
// submit as one kernel per RNS limb group, and the primitives' scratch
// allocations merge — fewer launch overheads, less intermediate traffic,
// fewer MemoryCache requests, identical ciphertexts (tests/test_fusion.cpp
// proves bit-exactness differentially).
//
// Results are bit-exact against the CPU ckks::Evaluator (validated in
// tests/test_gpu_evaluator.cpp).
#pragma once

#include <memory>

#include "xehe/gpu_ciphertext.h"
#include "xgpu/fusion.h"

namespace xehe::core {

using ckks::GaloisKeys;
using ckks::KSwitchKey;
using ckks::RelinKeys;

class GpuEvaluator {
public:
    explicit GpuEvaluator(GpuContext &gpu);

    /// The bound execution context.  Non-mutating primitives are const
    /// member functions (they submit kernels through the context, never
    /// touch evaluator state), so holders like he::GpuBackend can keep a
    /// `const GpuEvaluator &`.
    GpuContext &gpu() const noexcept { return *gpu_; }

    // --- primitives -----------------------------------------------------
    GpuCiphertext add(const GpuCiphertext &a, const GpuCiphertext &b) const;
    void add_inplace(GpuCiphertext &a, const GpuCiphertext &b) const;
    GpuCiphertext sub(const GpuCiphertext &a, const GpuCiphertext &b) const;
    GpuCiphertext negate(const GpuCiphertext &a) const;
    /// c0 += encoded plaintext (same level and scale).
    GpuCiphertext add_plain(const GpuCiphertext &a,
                            const ckks::Plaintext &p) const;
    /// Dyadic product with an encoded plaintext; scale multiplies.
    GpuCiphertext multiply_plain(const GpuCiphertext &a,
                                 const ckks::Plaintext &p) const;
    GpuCiphertext multiply(const GpuCiphertext &a,
                           const GpuCiphertext &b) const;
    GpuCiphertext square(const GpuCiphertext &a) const;
    /// acc (size 3) += a * b — the matmul inner loop, one fused kernel pass
    /// when mad_mod fusion is enabled.
    void multiply_acc(const GpuCiphertext &a, const GpuCiphertext &b,
                      GpuCiphertext &acc) const;
    GpuCiphertext relinearize(const GpuCiphertext &a,
                              const RelinKeys &keys) const;
    GpuCiphertext rescale(const GpuCiphertext &a) const;
    GpuCiphertext mod_switch(const GpuCiphertext &a) const;
    /// a + (c mod-switched one level down, adopting a's scale) — the tail
    /// of MulLinRSModSwAdd.  With fuse_dyadic the gather and addition are
    /// one launch and the mod-switched intermediate never materializes.
    GpuCiphertext mod_switch_add(const GpuCiphertext &a,
                                 const GpuCiphertext &c) const;
    GpuCiphertext rotate(const GpuCiphertext &a, int step,
                         const GaloisKeys &keys) const;
    /// Complex conjugation of the slots (the conjugation Galois key must be
    /// present in `keys`).
    GpuCiphertext conjugate(const GpuCiphertext &a,
                            const GaloisKeys &keys) const;
    /// Device copy of `a` carrying different scale metadata (one copy
    /// kernel, no arithmetic) — the he:: frontend's explicit scale
    /// override on a shared handle.
    GpuCiphertext set_scale(const GpuCiphertext &a, double scale) const;

    /// Charges the simulated host->device transfer of `bytes` of key
    /// material on this evaluator's queue.  The serving layer calls this
    /// when a key-cache miss re-expands a session's evaluation keys: the
    /// kernels themselves read host-resident key structures, so the
    /// re-upload latency of cold keys must be charged explicitly to show
    /// up on the lane's timeline.
    void charge_key_upload(std::size_t bytes) const;

    // --- pre-planned dyadic groups --------------------------------------
    /// Opens a dyadic fusion group: until end_dyadic_group(), the
    /// single-launch dyadic primitives (add/sub/negate/plain ops/square/
    /// set_scale) record their kernels into one FusionBuilder instead of
    /// submitting them, and the group submits as one launch (or one per
    /// stage with fuse_dyadic off — bit-identical either way).  Only
    /// legal for mutually independent ops: the compiler's fusion
    /// pre-lowering guarantees no group member reads another's output.
    /// Groups do not nest, and multi-launch primitives (multiply,
    /// key switching, rescale) must not run inside one.
    void begin_dyadic_group() const;
    /// Submits and closes the open group.
    void end_dyadic_group() const;

private:
    /// Shared Galois-automorphism path of rotate / conjugate.
    GpuCiphertext apply_galois(const GpuCiphertext &a, uint64_t elt,
                               const GaloisKeys &keys) const;

    /// Adds the key-switched expansion of `target` into dest.poly(0/1).
    void switch_key_inplace(GpuCiphertext &dest,
                            std::span<const uint64_t> target,
                            const KSwitchKey &key) const;

    /// One RNS polynomial to divide by a modulus with rounding: `drop` is
    /// its NTT-form limb under the dropped modulus (transformed in place),
    /// `src` its remaining limbs, and `dst` receives the quotient.
    struct RoundedDivision {
        std::span<uint64_t> drop;
        std::span<const uint64_t> src;
        std::span<uint64_t> dst;
    };

    /// What tells the callers of divide_round apart: the profiler names of
    /// its three element-wise stages, and whether the finish stage writes
    /// the quotient (Rescale) or adds it into `dst` (key-switch mod-down,
    /// one more AddMod and stream per element).
    struct DivisionKernels {
        const char *add_half;
        const char *reduce;
        const char *finish;
        bool accumulate;
    };

    /// Divides each part by key modulus `drop_idx` with rounding onto its
    /// first `count` limbs — the device twin of the host evaluator's
    /// divide_round, shared by Rescale and the key-switch mod-down.  Per
    /// part: the inverse NTT of `drop`, the add-half kernel, the per-limb
    /// reduce stages into `temps`, the forward NTTs of the temps and the
    /// per-limb finish stages.  Fused, each stage group is one launch and
    /// the forward NTTs one batched call over `temps` (count limbs);
    /// unfused, `temps` is one limb reused per limb.
    void divide_round(std::span<const RoundedDivision> parts,
                      std::size_t drop_idx, std::size_t count,
                      std::span<uint64_t> temps,
                      const DivisionKernels &kernels) const;

    /// Submits an elementwise kernel over `elements` indices with
    /// `ops_per_element` int64 ops (already ISA-mode specific) and
    /// `streams` polynomial-sized memory streams.
    void submit_dyadic(const char *name, std::size_t elements,
                       double ops_per_element, double streams,
                       std::function<void(std::size_t)> body) const;

    /// Fresh fusion recorder over the context's queue, honoring
    /// GpuOptions::fuse_dyadic.
    xgpu::FusionBuilder dyadic_group() const {
        return xgpu::FusionBuilder(gpu_->queue(), gpu_->options().fuse_dyadic,
                                   gpu_->options().wg_size);
    }

    double op_cost(xgpu::CoreOp op) const {
        return xgpu::core_op_cost(op, gpu_->options().isa);
    }
    const util::Modulus &modulus_at(std::size_t flat, std::size_t n) const {
        return ctx_->key_modulus()[flat / n];
    }
    std::span<const ntt::NttTables> table_span(std::size_t index) const {
        return {&ctx_->table(index), 1};
    }

    GpuContext *gpu_;
    const ckks::CkksContext *ctx_;
    ckks::GaloisTool galois_;
    /// Open pre-planned dyadic group; submit_dyadic records into it
    /// instead of submitting.  Mutable like the queue side effects of the
    /// const primitives: recording state, not evaluator configuration.
    mutable std::unique_ptr<xgpu::FusionBuilder> open_group_;
};

}  // namespace xehe::core
