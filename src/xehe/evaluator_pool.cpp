#include "xehe/evaluator_pool.h"

#include <random>

#include "ckks/encoder.h"
#include "he/backend.h"

namespace xehe::core {

GpuEvaluatorPool::GpuEvaluatorPool(const ckks::CkksContext &host,
                                   xgpu::DeviceSpec spec, GpuOptions options,
                                   int queue_count, xgpu::ThreadPool *pool)
    : scheduler_((he::require_backend("gpu"), std::move(spec)),
                 xgpu::ExecConfig{1, options.isa, true}, queue_count,
                 pool ? pool : &xgpu::ThreadPool::global()) {
    lanes_.reserve(scheduler_.queue_count());
    for (std::size_t i = 0; i < scheduler_.queue_count(); ++i) {
        // The pool owns the queues, so it — not the bound contexts —
        // decides the per-queue cache policy.
        scheduler_.queue(i).cache().set_enabled(options.use_memory_cache);
        Lane lane;
        lane.context = std::make_unique<GpuContext>(host, scheduler_.queue(i),
                                                    options);
        lane.evaluator = std::make_unique<GpuEvaluator>(*lane.context);
        lanes_.push_back(std::move(lane));
    }
}

namespace {

constexpr double kScale = 1099511627776.0;  // 2^40

/// Session-private inputs, resident on the session's lane.
struct SessionInputs {
    GpuCiphertext a, b, c;
};

GpuCiphertext make_session_input(GpuContext &gpu, bool functional,
                                 ckks::CkksEncoder &encoder,
                                 ckks::Encryptor &encryptor,
                                 std::mt19937_64 &rng) {
    const auto &host = gpu.host();
    if (!functional) {
        auto ct = allocate_ciphertext(gpu, 2, host.max_level(), kScale);
        gpu.queue().transfer(ct.all().size() * sizeof(uint64_t));
        return ct;
    }
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> values(host.slots());
    for (auto &v : values) {
        v = dist(rng);
    }
    const auto plain =
        encoder.encode(std::span<const double>(values), kScale);
    return upload(gpu, encryptor.encrypt(plain));
}

}  // namespace

BatchReport run_batch_serving(const ckks::CkksContext &host,
                              xgpu::DeviceSpec device, GpuOptions options,
                              const BatchWorkload &workload,
                              int queue_count) {
    GpuEvaluatorPool pool(host, std::move(device), options, queue_count);
    pool.set_functional(workload.functional);

    // Keys are shared across sessions (one tenant scheme, many streams);
    // inputs are private per session.
    ckks::KeyGenerator keygen(host, workload.seed);
    const ckks::RelinKeys relin = keygen.create_relin_keys();
    const int steps[] = {1};
    const ckks::GaloisKeys galois = keygen.create_galois_keys(steps);
    ckks::CkksEncoder encoder(host);
    ckks::Encryptor encryptor(host, keygen.create_public_key(),
                              workload.seed + 1);

    // Measure serving only: key/table setup stays outside the window.
    pool.scheduler().reset_clocks();

    std::mt19937_64 rng(workload.seed + 2);
    std::vector<SessionInputs> inputs;
    inputs.reserve(workload.sessions);
    for (std::size_t s = 0; s < workload.sessions; ++s) {
        GpuContext &gpu = pool.session_context(s);
        SessionInputs in;
        in.a = make_session_input(gpu, workload.functional, encoder,
                                  encryptor, rng);
        in.b = make_session_input(gpu, workload.functional, encoder,
                                  encryptor, rng);
        in.c = make_session_input(gpu, workload.functional, encoder,
                                  encryptor, rng);
        inputs.push_back(std::move(in));
    }

    BatchReport report;
    report.sessions = workload.sessions;
    report.queues = pool.lane_count();

    for (std::size_t s = 0; s < workload.sessions; ++s) {
        GpuEvaluator &evaluator = pool.session_evaluator(s);
        GpuContext &gpu = pool.session_context(s);
        const SessionInputs &in = inputs[s];
        for (std::size_t round = 0; round < workload.rounds; ++round) {
            for (Routine r : kAllRoutines) {
                run_routine(evaluator, r, in.a, in.b, in.c, relin, galois);
                ++report.ops;
            }
            if (workload.matmul_tiles > 0) {
                // One output tile of the encrypted matmul (Section IV-E):
                // a chain of fused multiply-accumulates into one
                // accumulator, strictly ordered on the session's lane.
                GpuCiphertext acc = allocate_ciphertext(
                    gpu, 3, host.max_level(), kScale * kScale);
                for (std::size_t t = 0; t < workload.matmul_tiles; ++t) {
                    evaluator.multiply_acc(in.a, in.b, acc);
                    ++report.ops;
                }
            }
        }
    }

    // Busy time is the pre-join sum of queue clocks; the join aligns every
    // queue to the makespan, so it must be sampled first.
    report.busy_ms = pool.busy_ns() * 1e-6;
    pool.wait_all();
    report.makespan_ms = pool.makespan_ns() * 1e-6;
    const xgpu::Profiler profiler = pool.aggregate_profiler();
    report.kernel_ms = profiler.total_ns() * 1e-6;
    report.ntt_ms = profiler.ntt_ns() * 1e-6;
    return report;
}

}  // namespace xehe::core
