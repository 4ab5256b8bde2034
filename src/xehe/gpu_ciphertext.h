// GPU-resident ciphertexts: device buffers plus CKKS metadata, with
// upload/download helpers that charge host<->device transfer time.
// Download is the only blocking point of the asynchronous pipeline
// (Fig. 2: "only block and wait when Decrypt").
#pragma once

#include "xehe/gpu_context.h"

namespace xehe::core {

struct GpuCiphertext {
    xgpu::DeviceBuffer data;  ///< size * rns * n words, [poly][rns][N]
    std::size_t n = 0;
    std::size_t size = 0;
    std::size_t rns = 0;
    double scale = 1.0;
    bool ntt_form = true;

    std::span<uint64_t> all() noexcept { return data.span(); }
    std::span<const uint64_t> all() const noexcept { return data.span(); }
    std::span<uint64_t> poly(std::size_t p) noexcept {
        return data.span().subspan(p * rns * n, rns * n);
    }
    std::span<const uint64_t> poly(std::size_t p) const noexcept {
        return data.span().subspan(p * rns * n, rns * n);
    }
    std::span<uint64_t> component(std::size_t p, std::size_t r) noexcept {
        return data.span().subspan((p * rns + r) * n, n);
    }
    std::span<const uint64_t> component(std::size_t p,
                                        std::size_t r) const noexcept {
        return data.span().subspan((p * rns + r) * n, n);
    }
};

/// Allocates a GPU ciphertext through the context's memory cache.
GpuCiphertext allocate_ciphertext(GpuContext &gpu, std::size_t size,
                                  std::size_t rns, double scale);

/// Uploads a host ciphertext (charges the transfer).  On a cost-only
/// queue the buffer is size-only and the host copy is skipped.
GpuCiphertext upload(GpuContext &gpu, const ckks::Ciphertext &ct);

/// Downloads to the host; blocks the pipeline (host synchronization).  On
/// a cost-only queue the result is all zeros of the right shape, with the
/// same transfer charged.
ckks::Ciphertext download(GpuContext &gpu, const GpuCiphertext &ct);

}  // namespace xehe::core
