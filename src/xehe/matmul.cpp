#include "xehe/matmul.h"

#include <random>

#include "ckks/encoder.h"
#include "util/rng.h"
#include "xehe/evaluator_pool.h"

namespace xehe::core {

namespace {

std::vector<double> random_slots(std::size_t count, util::Mt19937_64 &rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> v(count);
    for (auto &x : v) {
        x = dist(rng);
    }
    return v;
}

/// Host-side scheme objects: keys, encoder and the input generator.
struct MatmulHost {
    ckks::CkksEncoder encoder;
    ckks::KeyGenerator keygen;
    ckks::Encryptor encryptor;
    ckks::Decryptor decryptor;
    util::Mt19937_64 rng;

    MatmulHost(const ckks::CkksContext &host, const MatmulConfig &config)
        : encoder(host), keygen(host, config.seed),
          encryptor(host, keygen.create_public_key(), config.seed + 1),
          decryptor(host, keygen.secret_key()), rng(config.seed + 2) {}
};

/// Encodes/encrypts/uploads one input matrix onto `gpu` (functional), or
/// fabricates the ciphertexts and charges the transfers (cost-only).
std::vector<GpuCiphertext> make_matrix(
    GpuContext &gpu, MatmulHost &hs, const MatmulConfig &config,
    std::size_t rows, std::size_t cols,
    std::vector<std::vector<double>> *slot_values) {
    const auto &host = gpu.host();
    std::vector<GpuCiphertext> matrix;
    matrix.reserve(rows * cols);
    for (std::size_t e = 0; e < rows * cols; ++e) {
        if (config.functional) {
            auto values = random_slots(host.slots(), hs.rng);
            const auto plain = hs.encoder.encode(
                std::span<const double>(values), config.scale);
            matrix.push_back(upload(gpu, hs.encryptor.encrypt(plain)));
            if (slot_values != nullptr) {
                slot_values->push_back(std::move(values));
            }
        } else {
            matrix.push_back(allocate_ciphertext(gpu, 2, host.max_level(),
                                                 config.scale));
            gpu.queue().transfer(matrix.back().all().size() *
                                 sizeof(uint64_t));
        }
    }
    return matrix;
}

/// Downloads `config.verify_samples` result elements through the lane
/// that computed each one, decrypts, and returns the maximum
/// decrypted-vs-plaintext error.
double verify_result_samples(MatmulHost &hs, const MatmulConfig &config,
                             GpuEvaluatorPool &pool,
                             const std::vector<GpuCiphertext> &c,
                             const std::vector<std::vector<double>> &a_slots,
                             const std::vector<std::vector<double>> &b_slots) {
    double max_error = 0.0;
    const std::size_t samples = std::min(config.verify_samples, c.size());
    for (std::size_t s = 0; s < samples; ++s) {
        const std::size_t idx =
            s * (c.size() / std::max<std::size_t>(samples, 1));
        const std::size_t i = idx / config.n;
        const std::size_t j = idx % config.n;
        GpuContext &gpu = pool.context(idx % pool.lane_count());
        const auto host_ct = download(gpu, c[idx]);
        const auto decoded = hs.encoder.decode(hs.decryptor.decrypt(host_ct));
        for (std::size_t slot = 0; slot < gpu.host().slots(); ++slot) {
            double expect = 0.0;
            for (std::size_t t = 0; t < config.k; ++t) {
                expect += a_slots[i * config.k + t][slot] *
                          b_slots[t * config.n + j][slot];
            }
            max_error =
                std::max(max_error, std::abs(decoded[slot].real() - expect));
        }
    }
    return max_error;
}

}  // namespace

// Inputs are uploaded once on lane 0 and broadcast to the other lanes
// through a cross-queue event; output tiles are round-robined across
// lanes, each tile's multiply-accumulate chain staying in-order on its
// lane while different tiles overlap.
MatmulReport run_encrypted_matmul(const MatmulConfig &config) {
    const ckks::CkksContext host(ckks::EncryptionParameters::create(
        config.poly_degree, config.levels));
    GpuEvaluatorPool pool(host, config.device, config.gpu, config.queues);
    pool.set_functional(config.functional);
    const std::size_t lanes = pool.lane_count();

    MatmulHost hs(host, config);

    MatmulReport report;
    report.products = config.m * config.n * config.k;
    report.queues = lanes;
    pool.scheduler().reset_clocks();
    for (std::size_t q = 0; q < lanes; ++q) {
        pool.context(q).queue().profiler().reset();
        pool.context(q).queue().cache().reset_stats();
    }

    // --- inputs on lane 0 -----------------------------------------------
    GpuContext &gpu0 = pool.context(0);
    std::vector<std::vector<double>> a_slots, b_slots;
    auto a = make_matrix(gpu0, hs, config, config.m, config.k,
                         config.functional ? &a_slots : nullptr);
    auto b = make_matrix(gpu0, hs, config, config.k, config.n,
                         config.functional ? &b_slots : nullptr);

    // Broadcast: no lane may read A/B before the upload completes.
    const xgpu::Event uploaded = gpu0.queue().record_event();
    for (std::size_t q = 1; q < lanes; ++q) {
        pool.scheduler().queue(q).wait_for(uploaded);
    }

    // --- C += A * B, tiles round-robined across lanes -------------------
    // Result elements are streamed back to the host as soon as they are
    // complete; in cost-only mode the transfer is charged and the buffer
    // recycled immediately, so both the per-product temporaries and the
    // accumulators flow through the memory cache (Fig. 11).
    std::vector<GpuCiphertext> c;
    if (config.functional) {
        c.reserve(config.m * config.n);
    }
    for (std::size_t i = 0; i < config.m; ++i) {
        for (std::size_t j = 0; j < config.n; ++j) {
            const std::size_t lane = (i * config.n + j) % lanes;
            GpuContext &gpu = pool.context(lane);
            GpuEvaluator &evaluator = pool.evaluator(lane);
            GpuCiphertext acc = allocate_ciphertext(
                gpu, 3, host.max_level(), config.scale * config.scale);
            for (std::size_t t = 0; t < config.k; ++t) {
                const GpuCiphertext &ae = a[i * config.k + t];
                const GpuCiphertext &be = b[t * config.n + j];
                // Each element product allocates a runtime output buffer
                // and frees it after accumulation — the allocation churn
                // the memory cache recycles.  mad_mod fusion acts inside
                // multiply's d1 kernel.
                GpuCiphertext prod = evaluator.multiply(ae, be);
                evaluator.add_inplace(acc, prod);
            }
            if (config.functional) {
                c.push_back(std::move(acc));
            } else {
                gpu.queue().transfer(acc.all().size() * sizeof(uint64_t));
            }
        }
    }

    if (config.functional) {
        report.max_error =
            verify_result_samples(hs, config, pool, c, a_slots, b_slots);
    }

    for (std::size_t q = 0; q < lanes; ++q) {
        pool.context(q).queue().charge_alloc_time();
        const auto stats = pool.context(q).queue().cache().stats();
        report.alloc.requests += stats.requests;
        report.alloc.device_allocs += stats.device_allocs;
        report.alloc.cache_hits += stats.cache_hits;
        report.alloc.frees += stats.frees;
        report.alloc.sim_alloc_ns += stats.sim_alloc_ns;
    }
    report.sim_busy_ms = pool.busy_ns() * 1e-6;
    if (!config.functional) {
        // Cost-only: one event join + host block.  Functional runs already
        // blocked per sample download.
        pool.wait_all();
    }
    report.sim_total_ms = pool.makespan_ns() * 1e-6;
    report.sim_kernel_ms = pool.aggregate_profiler().total_ns() * 1e-6;
    report.sim_alloc_ms = report.alloc.sim_alloc_ns * 1e-6;
    return report;
}

}  // namespace xehe::core
