// Request-level serving frontend over the batched evaluator pool: the
// encode -> encrypt -> serialize -> dispatch -> respond pipeline that turns
// the multi-queue scheduler into a client/server system.
//
// Clients submit wire-serialized Requests (monolithic envelopes or bounded
// chunk-frame streams); the server validates them, decodes and analyzes
// client programs once at admission, forms dynamic batches (dispatch when
// the batch fills or the admission window expires), and runs each request
// on its session's lane — one session's chain stays in-order while
// distinct sessions overlap across tiles (Section III-D per request).
// Every request takes one execution path written against he::Backend; a
// GPU pool lane and a simulated host lane differ only in what their Lane
// supplies.  Per-session evaluation keys live behind a serve::KeyManager
// (byte-budgeted LRU over a cold store of c0 words and seeds), so
// sessions may far outnumber resident keys.  Responses carry
// enqueue/dispatch/complete timestamps off the simulated clock,
// aggregated into LatencyStats.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "he/program.h"
#include "he/registry.h"
#include "serve/metrics.h"
#include "xehe/evaluator_pool.h"

namespace xehe::serve {

/// Typed rejection of an invalid serving configuration, raised at server
/// construction — a misconfigured server never comes up half-working.
class ConfigError : public std::invalid_argument {
public:
    explicit ConfigError(const std::string &what)
        : std::invalid_argument(what) {}
};

struct ServerConfig {
    /// Dispatch a batch as soon as this many requests are admitted (must
    /// be >= 1)...
    std::size_t max_batch = 8;
    /// ...or when the admission window expires with a partial batch
    /// (simulated ns).  Must be positive and finite.
    double batch_window_ns = 100000.0;
    /// Pool lanes: 0 = one per tile of the device, otherwise >= 1.
    int queue_count = 0;
    /// Execute kernels and return real results; false = cost-only (the
    /// N = 32K sweep operating point), responses carry no result bytes.
    bool functional = true;
    /// Compile client circuits on admission (he::ProgramCompiler:
    /// CSE/DCE, rescale planning, fusion pre-lowering) with a
    /// per-session compiled-program cache, so a session re-submitting
    /// the same circuit pays the compile once.  Off = interpret client
    /// programs exactly as shipped.
    bool compile_programs = true;
    /// Resident expanded-key budget for the per-session KeyManager
    /// (bytes, must be positive).  Ignored when a shared KeyManager is
    /// injected (the sharded server's configuration wins).
    std::size_t key_budget_bytes = std::size_t{64} << 20;
    /// Cost-model request routing: a BackendHint::Auto request whose
    /// estimated cost (canonical node count; matmul tiles; program size
    /// proxy) is <= this threshold runs on the host backend even when
    /// the GPU pool is up — small jobs skip the device queues.  0
    /// (default) disables cost routing.  Explicit per-request hints
    /// always win.
    std::size_t host_route_max_cost = 0;

    /// Throws ConfigError on any invalid field; called by every server
    /// constructor so an unvalidated config cannot reach the data path.
    void validate() const;
};

class InferenceServer {
public:
    /// `key_manager` (optional) shares one key cache across servers — the
    /// sharded front end passes per-shard managers it owns; standalone
    /// servers build their own from `config.key_budget_bytes`.  `pool`
    /// (optional) pins simulated kernel execution — and the seed
    /// expansion of a self-built key cache — to a private host thread
    /// pool so independent servers may run on concurrent threads
    /// (ThreadPool::parallel_for is not reentrant across callers).
    InferenceServer(const ckks::CkksContext &host, xgpu::DeviceSpec spec,
                    core::GpuOptions options, ServerConfig config = {},
                    std::shared_ptr<KeyManager> key_manager = nullptr,
                    xgpu::ThreadPool *pool = nullptr);

    /// Shared tenant evaluation keys for sessions without their own.
    void set_keys(ckks::RelinKeys relin, ckks::GaloisKeys galois);

    /// Registers per-session keys with the KeyManager; they are held
    /// cold (c0 plus seeds) and expanded on demand under the byte budget.
    /// A malformed keyset throws std::invalid_argument here, not later.
    void register_session_keys(uint64_t session_id,
                               const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois);

    /// Lanes requests are distributed over: the GPU pool's lanes, or the
    /// same number of simulated host lanes when the server fell back.
    std::size_t lane_count() const noexcept { return host_lane_ns_.size(); }
    /// True when the server came up with a GPU evaluator pool; false when
    /// it degraded to host-only at construction.
    bool gpu_pool_active() const noexcept { return pool_ != nullptr; }
    const ServerConfig &config() const noexcept { return config_; }
    const KeyManager &key_manager() const noexcept { return *key_manager_; }

    /// Admission.  A request that fails validation (wire or
    /// serve::validate) is answered with a typed ParseError; a program
    /// the analyzer rejects, with InvalidProgram.  Neither reaches a lane.
    void submit(std::span<const uint8_t> request_bytes);
    void submit(Request request);

    /// Admission from one chunk frame of a streamed request (see
    /// ChunkAssembler): a bad frame aborts its stream with a ParseError;
    /// the request enqueues when its last chunk completes the stream.
    void submit_chunk(std::span<const uint8_t> frame);

    /// Streams with at least one accepted chunk that have not completed.
    std::size_t open_streams() const noexcept {
        return streams_.open_streams();
    }
    /// Requests admitted and not yet drained by run().
    std::size_t pending_requests() const noexcept { return pending_.size(); }

    /// Drains the admission queue through the lanes in dynamic batches and
    /// returns one Response per submitted request, in dispatch order
    /// (parse failures first).
    std::vector<Response> run();

    LatencyStats stats() const;
    /// The completed-request latencies behind stats().
    const LatencyWindow &latency_window() const noexcept { return latency_; }

    /// Compiled-program cache occupancy and hit count (for tests and
    /// capacity monitoring).
    std::size_t program_cache_size() const noexcept {
        return program_cache_.size();
    }
    std::size_t program_cache_hits() const noexcept {
        return program_cache_hits_;
    }

private:
    class Lane;
    class GpuLane;
    class HostLane;

    /// An admitted request, with its client circuit (Op::Program) as
    /// decoded and analyzed at admission.
    struct Admitted {
        Request request;
        std::shared_ptr<const he::Program> program;
    };

    /// route() inside the request's trace identity, recording the
    /// serve.request span that lane, key, compile and kernel spans join.
    Response dispatch(const Admitted &entry, double dispatch_time);
    /// Picks the backend (hint, cost routing, GPU pool, host fallback).
    Response route(const Admitted &entry, double dispatch_time);
    /// The one execution path, on whichever backend `lane` wraps: lane
    /// timing, the typed Status of any error, and the serve.lane span.
    Response execute(const Admitted &entry, Lane &lane, double dispatch_time);
    /// Keys, program, operands and evaluation; returns the serialized
    /// result (empty on cost-only servers).
    std::vector<uint8_t> evaluate(const Admitted &entry, Lane &lane);
    /// Cheap routing cost proxy for BackendHint::Auto requests.
    std::size_t route_cost(const Request &request) const;
    /// The compiled form of an admitted client program, cached per
    /// session, program bytes and assumed input level.
    std::shared_ptr<const he::Program> compiled_program(
        const Admitted &entry, std::size_t input_level);
    /// Decodes and analyzes (he::ProgramAnalyzer) an Op::Program request
    /// at the level it will execute at; false when it was rejected.
    bool admit_program(Admitted &entry);
    /// Answers a request with a typed failure before it reaches a lane.
    void reject(uint64_t session_id, Status code, std::string error);

    const ckks::CkksContext *host_;
    ServerConfig config_;
    /// Null when the "gpu" backend was unavailable at construction: the
    /// server comes up host-only instead of failing, and every request
    /// that wanted the GPU is served on host and counted as a fallback.
    std::unique_ptr<core::GpuEvaluatorPool> pool_;
    /// The registry-constructed host backend every host-routed or
    /// fallen-back request executes on.
    he::BackendBundle host_bundle_;
    /// Per-lane simulated clocks for host execution (sized to
    /// lane_count(); all-zero and unused while requests run on the GPU).
    std::vector<double> host_lane_ns_;
    std::shared_ptr<KeyManager> key_manager_;
    ckks::RelinKeys relin_;  ///< shared tenant keys (empty: none)
    ckks::GaloisKeys galois_;

    /// Compiled client circuits (see compiled_program), bounded with
    /// clear-on-overflow so a tenant cycling circuits cannot grow it.
    std::unordered_map<std::string,
                       std::shared_ptr<const he::Program>> program_cache_;
    std::size_t program_cache_hits_ = 0;

    ChunkAssembler streams_;

    std::vector<Admitted> pending_;
    std::vector<Response> parse_failures_;
    double admission_clock_ns_ = 0.0;

    LatencyStats counts_;  ///< lifetime counters; stats() adds the rest
    LatencyWindow latency_;

    // Lazily allocated Perfetto tracks: one for serve.request/serve.batch
    // spans, one per simulated host lane (GPU lanes use their queue's).
    uint32_t obs_serve_track_ = 0;
    std::vector<uint32_t> obs_host_lane_tracks_;
    uint32_t obs_serve_track();
};

}  // namespace xehe::serve
