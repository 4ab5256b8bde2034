// Request-level serving frontend over the batched evaluator pool: the
// encode -> encrypt -> serialize -> dispatch -> respond pipeline that turns
// the multi-queue scheduler into a client/server system.
//
// Clients submit wire-serialized Requests (monolithic envelopes or bounded
// chunk-frame streams); the server validates each and lowers it at
// admission to one he::Program (a client circuit decoded, a
// fixed-function op via serve::canonical_program) that the analyzer
// accepts against the exact size, level and scale of its operands (the
// fabricated operands of a cost-only request, else each ciphertext's
// wire header).  A client circuit runs compiled for those same facts,
// through the he::CompileCache he::Session::run uses: one compile rule
// for both frontends.  The server forms dynamic batches (dispatch when
// the batch fills or the admission window expires), and runs each
// request on its session's lane — one session's chain stays in-order
// while distinct sessions overlap across tiles (Section III-D per
// request).  Every request runs through the program interpreter over
// he::Backend; a GPU pool lane and a simulated host lane differ only in
// what their Lane supplies.  Per-session evaluation keys
// live behind a serve::KeyManager (byte-budgeted LRU over a cold store of
// c0 words and seeds), so sessions may far outnumber resident keys.
// Responses carry enqueue/dispatch/complete timestamps off the simulated
// clock, aggregated into LatencyStats.
#pragma once

#include <memory>
#include <string>

#include "he/compiler.h"
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
    /// Compile client circuits before they run (he::ProgramCompiler:
    /// CSE/DCE, rescale planning, fusion pre-lowering) for the exact
    /// size, level and scale of their operands, through the
    /// he::CompileCache he::Session::run also uses, so a repeat of the
    /// same circuit on operands with the same facts pays the compile
    /// once.  Off = interpret client programs exactly as shipped.
    bool compile_programs = true;
    /// Resident expanded-key budget for the per-session KeyManager
    /// (bytes, must be positive).  Ignored when a shared KeyManager is
    /// injected (the sharded server's configuration wins).
    std::size_t key_budget_bytes = std::size_t{64} << 20;

    /// Throws ConfigError on any invalid field; called by every server
    /// constructor so an unvalidated config cannot reach the data path.
    void validate() const;
};

class InferenceServer {
public:
    /// `key_manager` (optional) shares one key cache across servers — the
    /// sharded front end passes per-shard managers it owns; standalone
    /// servers build their own from `config.key_budget_bytes`.  `pool`
    /// (optional) pins simulated kernel execution, the host backend's
    /// limb tasks and the seed expansion of a self-built key cache to a
    /// private host thread pool so independent servers may run on
    /// concurrent threads (ThreadPool::parallel_for is not reentrant
    /// across callers); without one they share ThreadPool::global().
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

    /// Admission.  A request that fails validation (wire, serve::validate,
    /// program decode or the program's input count) is answered with a
    /// typed ParseError; one whose program the analyzer rejects or that
    /// carries more work than the largest MatmulTile, with InvalidProgram.
    /// Neither reaches a lane.
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

    /// Counters and latencies; publishes this server's xgpu.* gauges.
    LatencyStats stats() const;
    /// Publishes the xgpu.* gauges over the GPU lanes of `servers` as one
    /// fleet: the longest makespan, and the summed busy time, kernel time
    /// and memory-cache bytes.  No-op when none has a GPU pool.
    static void publish_device_gauges(
        std::span<const InferenceServer *const> servers);
    /// The completed-request latencies behind stats().
    const LatencyWindow &latency_window() const noexcept { return latency_; }

    /// Compiled-program cache occupancy and hit count (for tests and
    /// capacity monitoring).
    std::size_t program_cache_size() const noexcept {
        return compile_cache_.size();
    }
    std::size_t program_cache_hits() const noexcept {
        return compile_cache_.hits();
    }

private:
    class Lane;
    class GpuLane;
    class HostLane;

    /// An admitted request with the program it lowered to (the decoded
    /// client circuit or the op's canonical program) and the exact facts
    /// of its operands, one per program input.
    struct Admitted {
        Request request;
        std::shared_ptr<const he::Program> program;
        std::vector<he::InputFacts> facts;
    };

    /// route() inside the request's trace identity, recording the
    /// serve.request span that lane, key, compile and kernel spans join.
    Response dispatch(const Admitted &entry, double dispatch_time);
    /// Picks the backend (hint, GPU pool, host fallback).
    Response route(const Admitted &entry, double dispatch_time);
    /// The one execution path, on whichever backend `lane` wraps: lane
    /// timing, the typed Status of any error, and the serve.lane span.
    Response execute(const Admitted &entry, Lane &lane, double dispatch_time);
    /// Keys, program, operands and evaluation; returns the serialized
    /// result (empty on cost-only servers).
    std::vector<uint8_t> evaluate(const Admitted &entry, Lane &lane);
    /// Lowers the request to its program, reads its operands' facts and
    /// analyzes the program against them; false when it was rejected.
    bool admit(Admitted &entry);
    /// Answers a request with a typed failure before it reaches a lane.
    void reject(uint64_t session_id, Status code, std::string error);

    const ckks::CkksContext *host_;
    ServerConfig config_;
    /// Null when "gpu" was switched off at construction: the server comes
    /// up host-only instead of failing, and every request that wanted the
    /// GPU is served on host and counted as a fallback.
    std::unique_ptr<core::GpuEvaluatorPool> pool_;
    /// The host backend every host-routed or fallen-back request executes
    /// on (behind a pointer: backends cannot move, servers can).
    std::unique_ptr<he::HostBackend> host_backend_;
    /// Per-lane simulated clocks for host execution (sized to
    /// lane_count(); all-zero and unused while requests run on the GPU).
    std::vector<double> host_lane_ns_;
    std::shared_ptr<KeyManager> key_manager_;
    ckks::RelinKeys relin_;  ///< shared tenant keys (empty: none)
    ckks::GaloisKeys galois_;

    he::CompileCache compile_cache_;  ///< compiled client circuits

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
