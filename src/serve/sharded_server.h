// Multi-device sharded serving front end: sessions are placed onto
// per-shard InferenceServers (one simulated device + evaluator pool +
// admission queue each) by consistent hashing, admission is flow-controlled
// with per-shard credit windows, and run() drains every shard on its own
// host thread — the Cai900205 IPS/SRIO shape (fixed descriptor rings,
// per-channel stat repos, explicit flow control) applied to encrypted
// inference.
//
// Placement: each shard owns `vnodes_per_shard` points on a hash ring and
// a session maps to the first point at or after its hash — deterministic,
// uniform, and stable: resizing from k to k+1 shards moves only ~1/(k+1)
// of the sessions, so a warm key cache mostly survives a topology change.
//
// Backpressure: every shard has a credit window (credits_per_shard).
// Admitting a request consumes one credit; draining the shard (run())
// restores the window.  When a shard is out of credits its requests are
// rejected immediately with the typed Status::Overloaded — the queue can
// never grow silently, and clients see overload as overload rather than
// as latency.
#pragma once

#include "serve/server.h"
#include "util/mutex.h"

namespace xehe::serve {

struct ShardedConfig {
    /// Shards (simulated devices); must be >= 1.
    std::size_t shard_count = 2;
    /// Admission credits per shard per drain cycle; must be >= 1.
    std::size_t credits_per_shard = 64;
    /// Ring points per shard; must be >= 1.  More points = smoother
    /// placement, marginally slower routing.
    std::size_t vnodes_per_shard = 32;
    /// Resident expanded-key budget per shard (bytes, must be positive).
    /// Each shard owns a private KeyManager — sessions never move between
    /// shards within a topology, so key state shards with the sessions.
    std::size_t key_budget_bytes = std::size_t{32} << 20;
    /// Host worker threads per shard's private ThreadPool (simulated
    /// kernels of different shards execute on different host threads).
    unsigned pool_workers_per_shard = 2;
    /// Per-shard serving configuration.  `shard.key_budget_bytes` is
    /// ignored: the sharded budget above wins.
    ServerConfig shard;

    /// Throws ConfigError on any invalid field (including the nested
    /// per-shard config).
    void validate() const;
};

class ShardedServer {
public:
    ShardedServer(const ckks::CkksContext &host, xgpu::DeviceSpec spec,
                  core::GpuOptions options, ShardedConfig config = {});

    std::size_t shard_count() const noexcept { return shards_.size(); }
    const ShardedConfig &config() const noexcept { return config_; }

    /// Consistent-hash placement of a session.
    std::size_t shard_of(uint64_t session_id) const;

    /// Remaining admission credits of one shard.
    std::size_t credits(std::size_t shard) const {
        util::MutexLock lock(mutex_);
        return credits_[shard];
    }

    /// Per-shard key-cache view (tests and capacity monitoring).
    const KeyManager &key_manager(std::size_t shard) const {
        return shards_[shard]->key_manager();
    }

    /// Shared tenant keys for sessions without their own (registered on
    /// every shard).
    void set_keys(const ckks::RelinKeys &relin,
                  const ckks::GaloisKeys &galois);

    /// Per-session keys, registered with the owning shard's KeyManager.
    void register_session_keys(uint64_t session_id,
                               const ckks::RelinKeys &relin,
                               const ckks::GaloisKeys &galois);

    /// Admission.  Returns false when the session's shard had no credits
    /// left: the request was rejected with Status::Overloaded (the
    /// response surfaces from the next run()) and must be retried later.
    bool submit(Request request);
    bool submit(std::span<const uint8_t> request_bytes);

    /// Chunked admission: frames assemble at the front door (chunk
    /// streams do not carry a session id until the header parses), then
    /// the completed request routes — and pays its credit — at its shard.
    bool submit_chunk(std::span<const uint8_t> frame);

    /// Drains every shard's admission queue concurrently (one host thread
    /// per shard) and returns all responses: overload rejections first,
    /// then per-shard results in shard order.  Restores every credit
    /// window.
    std::vector<Response> run();

    /// Merged view across shards: request/failure/overload counts and key
    /// counters are summed, latency percentiles are recomputed over every
    /// shard's completed requests, and the makespan spans first enqueue
    /// to last completion over all shards.  Publishes the fleet's xgpu.*
    /// gauges (InferenceServer::publish_device_gauges).
    LatencyStats stats() const;

private:
    bool admit(Request request) REQUIRES(mutex_);
    /// Records a front-door rejection (always returns false).  A member
    /// rather than a lambda so the thread-safety analysis can see the
    /// lock precondition.
    bool reject(Status code, std::string error, uint64_t session_id = 0)
        REQUIRES(mutex_);

    ShardedConfig config_;
    std::vector<std::pair<uint64_t, std::size_t>> ring_;  ///< (hash, shard)
    std::vector<std::unique_ptr<xgpu::ThreadPool>> pools_;
    std::vector<std::unique_ptr<InferenceServer>> shards_;

    /// Serializes admission (credits, rejections, chunk reassembly)
    /// against concurrent submitters; run()'s per-shard drain threads
    /// never touch guarded state.  Held across the routed shard's submit()
    /// so per-shard admission (including the program-analysis gate) stays
    /// single-threaded.
    mutable util::Mutex mutex_;
    std::vector<std::size_t> credits_ GUARDED_BY(mutex_);
    std::vector<Response> rejections_ GUARDED_BY(mutex_);
    /// Front-door chunk reassembly: a stream's session (and so its
    /// shard) is known only once its request completes.
    ChunkAssembler streams_ GUARDED_BY(mutex_);
    LatencyStats rejected_ GUARDED_BY(mutex_);  ///< front-door rejections
};

}  // namespace xehe::serve
