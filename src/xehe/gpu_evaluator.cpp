#include "xehe/gpu_evaluator.h"

#include <algorithm>

namespace xehe::core {

using util::Modulus;
using xgpu::CoreOp;

GpuEvaluator::GpuEvaluator(GpuContext &gpu)
    : gpu_(&gpu), ctx_(&gpu.host()), galois_(gpu.host().n()) {}

void GpuEvaluator::submit_dyadic(const char *name, std::size_t elements,
                                 double ops_per_element, double streams,
                                 std::function<void(std::size_t)> body) const {
    if (open_group_) {
        // A pre-planned dyadic group is recording: stage the kernel (its
        // own index domain — group members are mutually independent, so
        // horizontal fusion is always legal) and submit at group end.
        open_group_->stage(name, elements, ops_per_element, streams,
                           std::move(body));
        return;
    }
    xgpu::KernelStats stats;
    stats.name = name;
    stats.alu_ops = ops_per_element * static_cast<double>(elements);
    // ops are computed for the active ISA mode already; don't rescale.
    stats.asm_sensitive = 0.0;
    stats.gmem_bytes = streams * 8.0 * static_cast<double>(elements);
    xgpu::ElementwiseKernel kernel(name, elements, std::move(body), stats,
                                   gpu_->options().wg_size);
    gpu_->queue().submit(kernel);
}

GpuCiphertext GpuEvaluator::add(const GpuCiphertext &a,
                                const GpuCiphertext &b) const {
    util::require(a.rns == b.rns && a.size == b.size, "add: shape mismatch");
    util::require(ckks::scales_match(a.scale, b.scale),
                  "add: scale mismatch");
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, a.scale);
    const std::size_t n = a.n;
    const auto sa = a.all(), sb = b.all();
    auto so = out.all();
    const std::size_t per_poly = a.rns * n;
    submit_dyadic("he_add", a.size * per_poly, op_cost(CoreOp::AddMod), 3.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i % per_poly, n);
                      so[i] = util::add_mod(sa[i], sb[i], q);
                  });
    gpu_->maybe_sync();
    return out;
}

void GpuEvaluator::add_inplace(GpuCiphertext &a,
                               const GpuCiphertext &b) const {
    util::require(a.rns == b.rns && a.size == b.size, "add: shape mismatch");
    const std::size_t n = a.n;
    const std::size_t per_poly = a.rns * n;
    auto sa = a.all();
    const auto sb = b.all();
    submit_dyadic("he_add", a.size * per_poly, op_cost(CoreOp::AddMod), 3.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i % per_poly, n);
                      sa[i] = util::add_mod(sa[i], sb[i], q);
                  });
    gpu_->maybe_sync();
}

GpuCiphertext GpuEvaluator::sub(const GpuCiphertext &a,
                                const GpuCiphertext &b) const {
    util::require(a.rns == b.rns && a.size == b.size, "sub: shape mismatch");
    util::require(ckks::scales_match(a.scale, b.scale),
                  "sub: scale mismatch");
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, a.scale);
    const std::size_t n = a.n;
    const std::size_t per_poly = a.rns * n;
    const auto sa = a.all(), sb = b.all();
    auto so = out.all();
    submit_dyadic("he_sub", a.size * per_poly, op_cost(CoreOp::SubMod), 3.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i % per_poly, n);
                      so[i] = util::sub_mod(sa[i], sb[i], q);
                  });
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::negate(const GpuCiphertext &a) const {
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, a.scale);
    const std::size_t n = a.n;
    const std::size_t per_poly = a.rns * n;
    const auto sa = a.all();
    auto so = out.all();
    submit_dyadic("he_negate", a.size * per_poly, 2.0, 2.0,
                  [=, this](std::size_t i) {
                      so[i] = util::negate_mod(sa[i], modulus_at(i % per_poly,
                                                                 n));
                  });
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::add_plain(const GpuCiphertext &a,
                                      const ckks::Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n, "add_plain: level mismatch");
    util::require(ckks::scales_match(a.scale, p.scale),
                  "add_plain: scale mismatch");
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, a.scale);
    const std::size_t n = a.n;
    const std::size_t per_poly = a.rns * n;
    const auto sa = a.all();
    const std::span<const uint64_t> sp(p.data);
    auto so = out.all();
    submit_dyadic("he_add_plain", a.size * per_poly, op_cost(CoreOp::AddMod),
                  3.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i % per_poly, n);
                      // The plaintext is added only into c0.
                      so[i] = i < per_poly ? util::add_mod(sa[i], sp[i], q)
                                           : sa[i];
                  });
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::multiply_plain(const GpuCiphertext &a,
                                           const ckks::Plaintext &p) const {
    util::require(a.rns == p.rns && a.n == p.n,
                  "multiply_plain: level mismatch");
    GpuCiphertext out =
        allocate_ciphertext(*gpu_, a.size, a.rns, a.scale * p.scale);
    const std::size_t n = a.n;
    const std::size_t per_poly = a.rns * n;
    const auto sa = a.all();
    const std::span<const uint64_t> sp(p.data);
    auto so = out.all();
    submit_dyadic("he_mul_plain", a.size * per_poly, op_cost(CoreOp::MulMod),
                  3.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i % per_poly, n);
                      so[i] = util::mul_mod(sa[i], sp[i % per_poly], q);
                  });
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::multiply(const GpuCiphertext &a,
                                     const GpuCiphertext &b) const {
    util::require(a.size == 2 && b.size == 2 && a.rns == b.rns,
                  "multiply expects size-2 operands at the same level");
    GpuCiphertext out =
        allocate_ciphertext(*gpu_, 3, a.rns, a.scale * b.scale);
    const std::size_t n = a.n;
    const std::size_t count = a.rns * n;
    const auto a0 = a.poly(0), a1 = a.poly(1);
    const auto b0 = b.poly(0), b1 = b.poly(1);
    auto d0 = out.poly(0), d1 = out.poly(1), d2 = out.poly(2);

    // The three tensor-product partials form one dyadic chain over shared
    // inputs: fused, they are a single launch re-reading a0/a1/b0/b1 from
    // registers (11 polynomial streams merge down to 7).
    xgpu::FusionBuilder group = dyadic_group();
    group.stage("he_mul_d0", count, op_cost(CoreOp::MulMod), 3.0,
                [=, this](std::size_t i) {
                    d0[i] = util::mul_mod(a0[i], b0[i], modulus_at(i, n));
                });
    if (gpu_->options().fuse_mad_mod) {
        group.then("he_mul_d1_fused",
                   op_cost(CoreOp::MulMod) + op_cost(CoreOp::MadMod), 5.0,
                   [=, this](std::size_t i) {
                       const Modulus &q = modulus_at(i, n);
                       const uint64_t t = util::mul_mod(a0[i], b1[i], q);
                       d1[i] = util::mad_mod(a1[i], b0[i], t, q);
                   },
                   /*shared_streams=*/2.0);
    } else {
        group.then("he_mul_d1",
                   2 * op_cost(CoreOp::MulMod) + op_cost(CoreOp::AddMod), 5.0,
                   [=, this](std::size_t i) {
                       const Modulus &q = modulus_at(i, n);
                       const uint64_t t = util::mul_mod(a0[i], b1[i], q);
                       d1[i] = util::add_mod(util::mul_mod(a1[i], b0[i], q),
                                             t, q);
                   },
                   /*shared_streams=*/2.0);
    }
    group.then("he_mul_d2", op_cost(CoreOp::MulMod), 3.0,
               [=, this](std::size_t i) {
                   d2[i] = util::mul_mod(a1[i], b1[i], modulus_at(i, n));
               },
               /*shared_streams=*/2.0);
    group.submit();
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::square(const GpuCiphertext &a) const {
    util::require(a.size == 2, "square expects a size-2 ciphertext");
    GpuCiphertext out = allocate_ciphertext(*gpu_, 3, a.rns, a.scale * a.scale);
    const std::size_t n = a.n;
    const std::size_t count = a.rns * n;
    const auto a0 = a.poly(0), a1 = a.poly(1);
    auto d0 = out.poly(0), d1 = out.poly(1), d2 = out.poly(2);
    submit_dyadic("he_square", count, 3 * op_cost(CoreOp::MulMod) +
                      op_cost(CoreOp::AddMod), 5.0,
                  [=, this](std::size_t i) {
                      const Modulus &q = modulus_at(i, n);
                      d0[i] = util::mul_mod(a0[i], a0[i], q);
                      const uint64_t cross = util::mul_mod(a0[i], a1[i], q);
                      d1[i] = util::add_mod(cross, cross, q);
                      d2[i] = util::mul_mod(a1[i], a1[i], q);
                  });
    gpu_->maybe_sync();
    return out;
}

void GpuEvaluator::multiply_acc(const GpuCiphertext &a, const GpuCiphertext &b,
                                GpuCiphertext &acc) const {
    util::require(a.size == 2 && b.size == 2 && acc.size == 3,
                  "multiply_acc expects size-2 inputs and a size-3 "
                  "accumulator");
    util::require(a.rns == b.rns && a.rns == acc.rns, "level mismatch");
    const std::size_t n = a.n;
    const std::size_t count = a.rns * n;
    const auto a0 = a.poly(0), a1 = a.poly(1);
    const auto b0 = b.poly(0), b1 = b.poly(1);
    auto d0 = acc.poly(0), d1 = acc.poly(1), d2 = acc.poly(2);
    acc.scale = a.scale * b.scale;

    if (gpu_->options().fuse_mad_mod) {
        // One fused pass: every output uses mad_mod (one reduction per
        // multiply-add pair, Section III-A1).
        submit_dyadic("he_mul_acc_fused", count, 4 * op_cost(CoreOp::MadMod),
                      9.0,
                      [=, this](std::size_t i) {
                          const Modulus &q = modulus_at(i, n);
                          d0[i] = util::mad_mod(a0[i], b0[i], d0[i], q);
                          const uint64_t t = util::mad_mod(a0[i], b1[i], d1[i],
                                                           q);
                          d1[i] = util::mad_mod(a1[i], b0[i], t, q);
                          d2[i] = util::mad_mod(a1[i], b1[i], d2[i], q);
                      });
    } else {
        submit_dyadic("he_mul_acc", count,
                      4 * op_cost(CoreOp::MulModAddMod), 9.0,
                      [=, this](std::size_t i) {
                          const Modulus &q = modulus_at(i, n);
                          d0[i] = util::add_mod(util::mul_mod(a0[i], b0[i], q),
                                                d0[i], q);
                          uint64_t t = util::add_mod(
                              util::mul_mod(a0[i], b1[i], q), d1[i], q);
                          d1[i] = util::add_mod(util::mul_mod(a1[i], b0[i], q),
                                                t, q);
                          d2[i] = util::add_mod(util::mul_mod(a1[i], b1[i], q),
                                                d2[i], q);
                      });
    }
    gpu_->maybe_sync();
}

void GpuEvaluator::switch_key_inplace(GpuCiphertext &dest,
                                      std::span<const uint64_t> target,
                                      const KSwitchKey &key) const {
    const std::size_t n = ctx_->n();
    const std::size_t l = dest.rns;
    util::require(target.size() == l * n, "switch-key target size mismatch");
    ckks::require_kswitch_key(*ctx_, key, l);
    const bool fuse = gpu_->options().fuse_dyadic;

    // 1. Digits need the coefficient representation.
    auto target_coeff = gpu_->allocate(l * n);
    {
        auto dst = target_coeff.span();
        submit_dyadic("ks_copy", l * n, 0.0, 2.0,
                      [=](std::size_t i) { dst[i] = target[i]; });
    }
    gpu_->gpu_ntt().inverse(target_coeff.span(), 1, ctx_->tables(l));

    // 2. Inner products over the extended base {q_0..q_{l-1}, p}.
    //
    // Fused, the digit builds for every extended-base prime submit as ONE
    // kernel (one launch for the whole limb group), their buffers and the
    // mod-down temp block merge into a single scratch allocation, and the
    // per-prime NTT/inner-product structure is untouched — the profiler's
    // kernel-name multiset is invariant.  Unfused, the single digits
    // buffer is rebuilt per prime, so each build is consumed by its inner
    // product before the next overwrites it.
    auto acc0 = gpu_->allocate((l + 1) * n);
    auto acc1 = gpu_->allocate((l + 1) * n);
    auto scratch = fuse ? gpu_->allocate((l + 1) * l * n + l * n)
                        : gpu_->allocate(l * n);
    auto t_buf = fuse ? xgpu::DeviceBuffer{} : gpu_->allocate(n);
    const auto digits_at = [&](std::size_t j) {
        return fuse ? scratch.span().subspan(j * l * n, l * n)
                    : scratch.span();
    };
    const auto inner_product = [&](std::size_t j) {
        const std::size_t mod_idx = ckks::kswitch_modulus_index(*ctx_, l, j);
        const Modulus &mj = ctx_->key_modulus()[mod_idx];
        gpu_->gpu_ntt().forward(digits_at(j), l, table_span(mod_idx));
        const auto dig = digits_at(j);
        auto a0 = acc0.span().subspan(j * n, n);
        auto a1 = acc1.span().subspan(j * n, n);
        const KSwitchKey *kptr = &key;
        const double mad2 = 2.0 * op_cost(CoreOp::MadMod);
        submit_dyadic("ks_inner_product", n, mad2 * static_cast<double>(l),
                      2.0 * static_cast<double>(l) + 4.0,
                      [=](std::size_t k) {
                          uint64_t s0 = a0[k], s1 = a1[k];
                          for (std::size_t i = 0; i < l; ++i) {
                              const uint64_t d = dig[i * n + k];
                              const auto k0 =
                                  kptr->keys[i].component(0, mod_idx);
                              const auto k1 =
                                  kptr->keys[i].component(1, mod_idx);
                              s0 = util::mad_mod(d, k0[k], s0, mj);
                              s1 = util::mad_mod(d, k1[k], s1, mj);
                          }
                          a0[k] = s0;
                          a1[k] = s1;
                      });
    };
    xgpu::FusionBuilder digit_group = dyadic_group();
    for (std::size_t j = 0; j <= l; ++j) {
        const std::size_t mod_idx = ckks::kswitch_modulus_index(*ctx_, l, j);
        const Modulus &mj = ctx_->key_modulus()[mod_idx];
        const auto src = target_coeff.span();
        auto dst = digits_at(j);
        digit_group.stage("ks_reduce_digits", l * n, 4.0, 2.0,
                          [=](std::size_t i) {
                              const std::size_t comp = i / n;
                              dst[i] = comp == mod_idx
                                           ? src[i]
                                           : util::barrett_reduce_64(src[i],
                                                                     mj);
                          });
        if (!fuse) {
            digit_group.submit();
            inner_product(j);
        }
    }
    if (fuse) {
        digit_group.submit();
        for (std::size_t j = 0; j <= l; ++j) {
            inner_product(j);
        }
    }

    // 3. Mod-down by the special prime with rounding, accumulated into
    // dest.
    const RoundedDivision parts[] = {
        {acc0.span().subspan(l * n, n), acc0.span().first(l * n),
         dest.poly(0)},
        {acc1.span().subspan(l * n, n), acc1.span().first(l * n),
         dest.poly(1)},
    };
    divide_round(parts, ctx_->key_rns() - 1, l,
                 fuse ? scratch.span().subspan((l + 1) * l * n, l * n)
                      : t_buf.span(),
                 {"ks_add_half", "ks_reduce_special", "ks_mod_down",
                  /*accumulate=*/true});
}

void GpuEvaluator::divide_round(std::span<const RoundedDivision> parts,
                                std::size_t drop_idx, std::size_t count,
                                std::span<uint64_t> temps,
                                const DivisionKernels &kernels) const {
    const std::size_t n = ctx_->n();
    const Modulus &q_drop = ctx_->key_modulus()[drop_idx];
    const uint64_t half = ctx_->half(drop_idx);
    const bool fuse = gpu_->options().fuse_dyadic;
    const bool accumulate = kernels.accumulate;
    const double finish_ops =
        op_cost(CoreOp::SubMod) + op_cost(CoreOp::MulMod) +
        (accumulate ? op_cost(CoreOp::AddMod) : 0.0);
    const double finish_streams = accumulate ? 4.0 : 3.0;
    for (const RoundedDivision &part : parts) {
        const auto drop = part.drop;
        gpu_->gpu_ntt().inverse(drop, 1, table_span(drop_idx));
        submit_dyadic(kernels.add_half, n, op_cost(CoreOp::AddMod), 2.0,
                      [=](std::size_t k) {
                          drop[k] = util::add_mod(drop[k], half, q_drop);
                      });
        xgpu::FusionBuilder reduce_group = dyadic_group();
        xgpu::FusionBuilder finish_group = dyadic_group();
        for (std::size_t j = 0; j < count; ++j) {
            const Modulus &qj = ctx_->key_modulus()[j];
            const uint64_t half_mod = ctx_->half_mod(drop_idx, j);
            const auto inv = ctx_->inv_mod(drop_idx, j);
            const auto t = fuse ? temps.subspan(j * n, n) : temps;
            const auto src = part.src.subspan(j * n, n);
            const auto dst = part.dst.subspan(j * n, n);
            reduce_group.stage(kernels.reduce, n,
                               4.0 + op_cost(CoreOp::SubMod), 2.0,
                               [=](std::size_t k) {
                                   t[k] = util::sub_mod(
                                       util::barrett_reduce_64(drop[k], qj),
                                       half_mod, qj);
                               });
            finish_group.stage(kernels.finish, n, finish_ops, finish_streams,
                               [=](std::size_t k) {
                                   const uint64_t v = util::mul_mod(
                                       util::sub_mod(src[k], t[k], qj), inv,
                                       qj);
                                   dst[k] = accumulate
                                                ? util::add_mod(dst[k], v, qj)
                                                : v;
                               });
            if (!fuse) {
                reduce_group.submit();
                gpu_->gpu_ntt().forward(t, 1, table_span(j));
                finish_group.submit();
            }
        }
        if (fuse) {
            reduce_group.submit();
            // The per-limb temps are contiguous and independent: one
            // batched forward NTT over the whole limb group (bit-exact —
            // each slice transforms under its own table).
            gpu_->gpu_ntt().forward(temps, 1, ctx_->tables(count));
            finish_group.submit();
        }
    }
}

GpuCiphertext GpuEvaluator::relinearize(const GpuCiphertext &a,
                                        const RelinKeys &keys) const {
    util::require(a.size == 3, "relinearize expects a size-3 ciphertext");
    GpuCiphertext out = allocate_ciphertext(*gpu_, 2, a.rns, a.scale);
    const auto src = a.all();
    auto dst = out.all();
    const std::size_t copy_count = 2 * a.rns * a.n;
    submit_dyadic("relin_copy", copy_count, 0.0, 2.0,
                  [=](std::size_t i) { dst[i] = src[i]; });
    switch_key_inplace(out, a.poly(2), keys.key);
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::rescale(const GpuCiphertext &a) const {
    util::require(a.rns >= 2, "cannot rescale at the last level");
    const std::size_t n = a.n;
    const std::size_t last = a.rns - 1;

    GpuCiphertext out = allocate_ciphertext(
        *gpu_, a.size, a.rns - 1,
        a.scale / static_cast<double>(ctx_->key_modulus()[last].value()));

    // The dropped limb is copied into scratch (divide_round transforms it
    // in place).  Fused, the last-limb scratch merges with the temp block
    // into a single allocation.
    const bool fuse = gpu_->options().fuse_dyadic;
    auto scratch = gpu_->allocate(fuse ? (last + 1) * n : n);
    auto t_buf = fuse ? xgpu::DeviceBuffer{} : gpu_->allocate(n);
    const auto lc = scratch.span().first(n);
    const auto temps = fuse ? scratch.span().subspan(n, last * n)
                            : t_buf.span();
    for (std::size_t poly_i = 0; poly_i < a.size; ++poly_i) {
        const auto src_last = a.component(poly_i, last);
        submit_dyadic("rs_copy_last", n, 0.0, 2.0,
                      [=](std::size_t k) { lc[k] = src_last[k]; });
        const RoundedDivision part{lc, a.poly(poly_i).first(last * n),
                                   out.poly(poly_i)};
        divide_round({&part, 1}, last, last, temps,
                     {"rs_add_half", "rs_reduce", "rs_divide",
                      /*accumulate=*/false});
    }
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::mod_switch(const GpuCiphertext &a) const {
    util::require(a.rns >= 2, "cannot switch below one prime");
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns - 1, a.scale);
    const std::size_t n = a.n;
    const std::size_t new_rns = a.rns - 1;
    const std::size_t count = a.size * new_rns * n;
    const auto src_rns = a.rns;
    const auto src = a.all();
    auto dst = out.all();
    submit_dyadic("mod_switch_copy", count, 0.0, 2.0, [=](std::size_t i) {
        const std::size_t poly_i = i / (new_rns * n);
        const std::size_t rest = i % (new_rns * n);
        dst[i] = src[poly_i * src_rns * n + rest];
    });
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::rotate(const GpuCiphertext &a, int step,
                                   const GaloisKeys &keys) const {
    return apply_galois(a, galois_.elt_from_step(step), keys);
}

GpuCiphertext GpuEvaluator::conjugate(const GpuCiphertext &a,
                                      const GaloisKeys &keys) const {
    return apply_galois(a, galois_.conjugation_elt(), keys);
}

GpuCiphertext GpuEvaluator::set_scale(const GpuCiphertext &a,
                                      double scale) const {
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, scale);
    const auto src = a.all();
    auto dst = out.all();
    submit_dyadic("set_scale_copy", src.size(), 0.0, 2.0,
                  [=](std::size_t i) { dst[i] = src[i]; });
    gpu_->maybe_sync();
    return out;
}

void GpuEvaluator::charge_key_upload(std::size_t bytes) const {
    gpu_->queue().transfer(bytes);
}

void GpuEvaluator::begin_dyadic_group() const {
    util::require(open_group_ == nullptr,
                  "dyadic groups do not nest");
    open_group_ = std::make_unique<xgpu::FusionBuilder>(
        gpu_->queue(), gpu_->options().fuse_dyadic, gpu_->options().wg_size);
}

void GpuEvaluator::end_dyadic_group() const {
    util::require(open_group_ != nullptr, "no open dyadic group");
    // Take the builder off the evaluator first so the submission itself
    // runs in normal (non-recording) mode.
    const std::unique_ptr<xgpu::FusionBuilder> group = std::move(open_group_);
    if (group->stage_count() > 0) {
        group->submit();
        gpu_->maybe_sync();
    }
}

GpuCiphertext GpuEvaluator::apply_galois(const GpuCiphertext &a, uint64_t elt,
                                         const GaloisKeys &keys) const {
    util::require(a.size == 2, "rotate expects a size-2 ciphertext");
    const std::size_t n = a.n;
    GpuCiphertext out = allocate_ciphertext(*gpu_, 2, a.rns, a.scale);
    auto rotated_c1 = gpu_->allocate(a.rns * n);

    // Galois permutation of both polynomials (a gather, poorly coalesced):
    // one stage per limb carries its cost, and fused they submit as one
    // launch.  The permutation itself is applied table-driven.
    xgpu::FusionBuilder permute_group = dyadic_group();
    for (std::size_t r = 0; r < a.rns; ++r) {
        permute_group.stage("galois_permute", n, 6.0, 4.0,
                            [](std::size_t) {}, 0.25);
        if (gpu_->queue().functional()) {
            galois_.apply_ntt(a.component(0, r), elt, out.component(0, r));
            galois_.apply_ntt(a.component(1, r), elt,
                              rotated_c1.span().subspan(r * n, n));
        }
    }
    permute_group.submit();
    if (elt != 1) {
        switch_key_inplace(out, rotated_c1.span(), keys.key(elt));
    } else {
        const auto src = a.poly(1);
        auto dst = out.poly(1);
        submit_dyadic("rotate_identity_copy", a.rns * n, 0.0, 2.0,
                      [=](std::size_t i) { dst[i] = src[i]; });
    }
    gpu_->maybe_sync();
    return out;
}

GpuCiphertext GpuEvaluator::mod_switch_add(const GpuCiphertext &a,
                                           const GpuCiphertext &c) const {
    util::require(c.rns == a.rns + 1 && c.size == a.size,
                  "mod-switch-add: level mismatch");
    if (!gpu_->options().fuse_dyadic) {
        GpuCiphertext c_down = mod_switch(c);
        // Align scales for the addition (CKKS approximate-scale
        // bookkeeping).
        c_down.scale = a.scale;
        return add(a, c_down);
    }
    // Fused tail: the mod-switched addend is gathered and added in one
    // launch — the c_down intermediate ciphertext is never materialized
    // (one fewer MemoryCache request, its write+read round trip saved).
    GpuCiphertext out = allocate_ciphertext(*gpu_, a.size, a.rns, a.scale);
    const std::size_t n = a.n;
    const std::size_t new_rns = a.rns;
    const std::size_t src_rns = c.rns;
    const std::size_t per_poly = new_rns * n;
    const std::size_t count = a.size * per_poly;
    const auto sa = a.all();
    const auto sc = c.all();
    auto so = out.all();
    xgpu::FusionBuilder group = dyadic_group();
    group.stage("mod_switch_copy", count, 0.0, 2.0, [](std::size_t) {
             // Folded into the chained addition below, which gathers the
             // addend limb directly instead of reading it back from a
             // materialized c_down.
         })
        .then("he_add", op_cost(CoreOp::AddMod), 3.0,
              [=, this](std::size_t i) {
                  const std::size_t poly_i = i / per_poly;
                  const std::size_t rest = i % per_poly;
                  const Modulus &q = modulus_at(rest, n);
                  so[i] = util::add_mod(sa[i], sc[poly_i * src_rns * n + rest],
                                        q);
              },
              /*shared_streams=*/2.0);
    group.submit();
    gpu_->maybe_sync();
    return out;
}

}  // namespace xehe::core
