#include "serve/sharded_server.h"

#include <algorithm>
#include <iterator>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace xehe::serve {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash for ring points
/// and session placement (session ids are often small sequential
/// integers, so placement must not depend on their low bits).
uint64_t splitmix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

void ShardedConfig::validate() const {
    if (shard_count == 0) {
        throw ConfigError("serve: shard_count must be >= 1");
    }
    if (credits_per_shard == 0) {
        throw ConfigError("serve: credits_per_shard must be >= 1");
    }
    if (vnodes_per_shard == 0) {
        throw ConfigError("serve: vnodes_per_shard must be >= 1");
    }
    if (key_budget_bytes == 0) {
        throw ConfigError("serve: key_budget_bytes must be positive");
    }
    if (pool_workers_per_shard == 0) {
        throw ConfigError("serve: pool_workers_per_shard must be >= 1");
    }
    shard.validate();
}

ShardedServer::ShardedServer(const ckks::CkksContext &host,
                             xgpu::DeviceSpec spec, core::GpuOptions options,
                             ShardedConfig config)
    : config_(config) {
    config_.validate();

    ring_.reserve(config_.shard_count * config_.vnodes_per_shard);
    for (std::size_t s = 0; s < config_.shard_count; ++s) {
        const uint64_t shard_seed = splitmix64(s + 1);
        for (std::size_t v = 0; v < config_.vnodes_per_shard; ++v) {
            ring_.emplace_back(splitmix64(shard_seed + v), s);
        }
    }
    std::sort(ring_.begin(), ring_.end());

    pools_.reserve(config_.shard_count);
    shards_.reserve(config_.shard_count);
    for (std::size_t s = 0; s < config_.shard_count; ++s) {
        // Each shard gets its own simulated device, host thread pool
        // (parallel_for is single-caller, so concurrent shards must not
        // share one) and key cache (sessions never move between shards,
        // so key state shards with them — and LRU order stays
        // deterministic regardless of shard thread interleaving).  The
        // key cache re-expands on the shard's pool, which only the
        // shard's own thread drives.
        pools_.push_back(std::make_unique<xgpu::ThreadPool>(
            config_.pool_workers_per_shard));
        shards_.push_back(std::make_unique<InferenceServer>(
            host, spec, options, config_.shard,
            std::make_shared<KeyManager>(host, config_.key_budget_bytes,
                                         pools_.back().get()),
            pools_.back().get()));
    }
    credits_.assign(config_.shard_count, config_.credits_per_shard);
}

std::size_t ShardedServer::shard_of(uint64_t session_id) const {
    const uint64_t h = splitmix64(session_id);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const std::pair<uint64_t, std::size_t> &point, uint64_t key) {
            return point.first < key;
        });
    if (it == ring_.end()) {
        it = ring_.begin();  // wrap: the ring is circular
    }
    return it->second;
}

void ShardedServer::set_keys(const ckks::RelinKeys &relin,
                             const ckks::GaloisKeys &galois) {
    for (auto &shard : shards_) {
        shard->set_keys(relin, galois);
    }
}

void ShardedServer::register_session_keys(uint64_t session_id,
                                          const ckks::RelinKeys &relin,
                                          const ckks::GaloisKeys &galois) {
    shards_[shard_of(session_id)]->register_session_keys(session_id, relin,
                                                         galois);
}

bool ShardedServer::admit(Request request) {
    const std::size_t shard = shard_of(request.session_id);
    if (credits_[shard] == 0) {
        return reject(Status::Overloaded,
                      "serve: shard out of admission credits",
                      request.session_id);
    }
    --credits_[shard];
    shards_[shard]->submit(std::move(request));
    return true;
}

bool ShardedServer::submit(Request request) {
    util::MutexLock lock(mutex_);
    return admit(std::move(request));
}

bool ShardedServer::submit(std::span<const uint8_t> request_bytes) {
    Request request;
    try {
        obs::Span span("wire.parse", obs::Category::Wire);
        if (span.active()) {
            span.set_detail(std::to_string(request_bytes.size()) + " bytes");
        }
        request = load_request(request_bytes);
    } catch (const wire::WireError &e) {
        util::MutexLock lock(mutex_);
        return reject(Status::ParseError, e.what());
    }
    util::MutexLock lock(mutex_);
    return admit(std::move(request));
}

bool ShardedServer::reject(Status code, std::string error,
                           uint64_t session_id) {
    rejections_.push_back(
        record_failure(rejected_, session_id, code, std::move(error)));
    return false;
}

bool ShardedServer::submit_chunk(std::span<const uint8_t> frame) {
    util::MutexLock lock(mutex_);
    obs::Span span("wire.chunk", obs::Category::Wire);
    if (span.active()) {
        span.set_detail(std::to_string(frame.size()) + " bytes");
    }
    ChunkAssembler::Fed fed = streams_.feed(frame);
    if (fed.evicted) {
        reject(Status::Overloaded, "serve: evicted stale chunk stream");
    }
    if (!fed.error.empty()) {
        return reject(Status::ParseError, std::move(fed.error));
    }
    return !fed.request || admit(std::move(*fed.request));
}

std::vector<Response> ShardedServer::run() {
    std::vector<Response> responses;
    {
        util::MutexLock lock(mutex_);
        responses = std::move(rejections_);
        rejections_.clear();
    }

    // One host thread per shard; each drains its own admission queue on
    // its own simulated device through its own thread pool.  The shards
    // share only the immutable CkksContext, so the drain is race-free —
    // the TSan CI lane runs exactly this path.
    std::vector<std::vector<Response>> per_shard(shards_.size());
    {
        std::vector<std::thread> threads;
        threads.reserve(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            threads.emplace_back([this, s, &per_shard] {
                // Shard identity first, then the drain span: the span
                // pops its own context before recording, so it picks up
                // the shard id from the scope beneath it.
                obs::ContextScope shard_scope(0, 0, 0,
                                              static_cast<int32_t>(s));
                obs::Span drain("serve.drain", obs::Category::Serve);
                if (drain.active()) {
                    drain.set_detail("shard=" + std::to_string(s));
                }
                per_shard[s] = shards_[s]->run();
            });
        }
        for (auto &t : threads) {
            t.join();
        }
    }

    for (auto &shard_responses : per_shard) {
        std::move(shard_responses.begin(), shard_responses.end(),
                  std::back_inserter(responses));
    }
    util::MutexLock lock(mutex_);
    credits_.assign(shards_.size(), config_.credits_per_shard);
    return responses;
}

LatencyStats ShardedServer::stats() const {
    util::MutexLock lock(mutex_);
    LatencyStats merged = rejected_;
    // Shards drain concurrently, so the serving window spans the earliest
    // enqueue to the latest completion over every shard.
    LatencyWindow window;
    std::vector<const InferenceServer *> fleet;
    for (const auto &shard : shards_) {
        const LatencyStats s = shard->stats();
        merged.failed += s.failed;
        merged.overloaded += s.overloaded;
        merged.invalid_programs += s.invalid_programs;
        merged.batches += s.batches;
        merged.fallbacks += s.fallbacks;
        merged.host_requests += s.host_requests;
        merged.keys += s.keys;
        window.merge(shard->latency_window());
        fleet.push_back(shard.get());
    }
    // Each shard's stats() published its own figures; the fleet's win.
    InferenceServer::publish_device_gauges(fleet);
    window.summarize(merged);
    return merged;
}

}  // namespace xehe::serve
