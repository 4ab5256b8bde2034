// Serving metrics shared by InferenceServer and ShardedServer: the
// LatencyStats aggregate, the latencies it is summarized from, and cached
// registry handles, so both servers count into the same series one way.
#pragma once

#include "obs/metrics.h"
#include "serve/key_manager.h"
#include "serve/protocol.h"

namespace xehe::serve {

/// Latency/throughput aggregate over every request served so far.
struct LatencyStats {
    std::size_t requests = 0;   ///< completed successfully
    std::size_t failed = 0;     ///< includes overloaded rejections
    std::size_t overloaded = 0; ///< typed backpressure rejections
    /// Programs rejected by static verification (he::ProgramAnalyzer) —
    /// at admission or at compile time — before any lane dispatch, so
    /// no device time was charged.  Included in `failed`.
    std::size_t invalid_programs = 0;
    std::size_t batches = 0;
    /// Requests that wanted the GPU (Auto or Gpu hint) but ran on the
    /// host backend because no GPU backend was available — graceful
    /// degradation, not failure.
    std::size_t fallbacks = 0;
    /// Requests executed on the host backend for any reason (explicit
    /// hint or fallback).
    std::size_t host_requests = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
    /// Serving window: first enqueue to last completion (simulated).
    double makespan_ms = 0.0;
    double throughput_rps = 0.0;  ///< requests / makespan
    /// Key-cache counters (see serve::KeyStats): how the resident-key
    /// budget behaved under this load.
    KeyStats keys;
};

/// Completed-request latencies and the serving window they span: what
/// LatencyStats' percentiles, mean, makespan and throughput come from.
struct LatencyWindow {
    std::vector<double> latencies_ns;
    double first_enqueue_ns = -1.0;  ///< < 0 until a request completes
    double last_complete_ns = 0.0;

    void add(const Response &resp);
    void merge(const LatencyWindow &other);
    /// Sets `stats.requests` and every latency/throughput field.
    void summarize(LatencyStats &stats) const;
};

/// Registry handles cached once — the admission, dispatch and rejection
/// paths must not pay a registry name lookup per request.
struct ServeMetrics {
    obs::Counter &requests;
    obs::Counter &failed;
    obs::Counter &overloaded;
    obs::Counter &invalid_programs;
    obs::Counter &batches;
    obs::Counter &fallbacks;
    obs::Counter &host_requests;
    obs::Counter &program_cache_hits;
    obs::Counter &programs_compiled;
    obs::Histogram &latency_ns;

    static ServeMetrics &instance();
};

/// Counts one failure of class `code` into `stats` and the registry.
void count_failure(LatencyStats &stats, Status code);
/// count_failure(), returning the failure's typed Response.
Response record_failure(LatencyStats &stats, uint64_t session_id,
                        Status code, std::string error);

}  // namespace xehe::serve
