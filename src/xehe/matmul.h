// Encrypted element-wise polynomial matrix multiplication — the paper's
// application benchmark (Section IV-E, Fig. 19).
//
// C (m x n) accumulates A (m x k) times B (k x n), where every matrix
// element is a CKKS ciphertext encrypting an 8K-element polynomial; each
// element-product is a dyadic polynomial multiplication on the GPU and each
// accumulation a modular addition.  The pipeline allocates, encodes,
// encrypts and uploads the inputs, runs the multiply-accumulate graph
// asynchronously, and downloads/decrypts the result — the elapsed
// (simulated) time covers the whole process, as in the paper.
#pragma once

#include "xehe/gpu_evaluator.h"

namespace xehe::core {

struct MatmulConfig {
    std::size_t m = 10, n = 9, k = 8;
    std::size_t poly_degree = 8192;
    std::size_t levels = 2;
    double scale = kWorkloadScale;
    GpuOptions gpu;
    xgpu::DeviceSpec device;
    /// When false, ciphertexts are fabricated without encryption and
    /// kernels are cost-only (parameter sweeps).
    bool functional = true;
    /// Number of result elements to decrypt and verify (functional mode).
    std::size_t verify_samples = 3;
    /// Queue fan-out over a GpuEvaluatorPool: 0 = one lane per device
    /// tile; >= 1 = explicit lane count (clamped to the device's tile
    /// count).  The inputs are uploaded once and broadcast through a
    /// cross-queue event, and output tiles are round-robined across lanes
    /// — each tile's accumulation chain stays in-order on its lane.  Each
    /// lane is one tile, so `gpu.tiles` is not consulted.
    int queues = 1;
    uint64_t seed = 1234;
};

struct MatmulReport {
    double sim_total_ms = 0.0;     ///< end-to-end simulated time (makespan)
    double sim_busy_ms = 0.0;      ///< summed per-queue busy time
    double sim_alloc_ms = 0.0;     ///< simulated allocation time charged
    double sim_kernel_ms = 0.0;    ///< simulated kernel time
    std::size_t products = 0;      ///< element multiplications performed
    std::size_t queues = 1;        ///< lanes the run was scheduled onto
    xgpu::MemoryCache::Stats alloc;
    double max_error = 0.0;        ///< decrypted-vs-plain error (functional)
};

/// Throws he::BackendUnavailable when "gpu" is switched off.
MatmulReport run_encrypted_matmul(const MatmulConfig &config);

}  // namespace xehe::core
