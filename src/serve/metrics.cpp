#include "serve/metrics.h"

#include <algorithm>

namespace xehe::serve {

void LatencyWindow::add(const Response &resp) {
    latencies_ns.push_back(resp.latency_ns());
    last_complete_ns = std::max(last_complete_ns, resp.complete_ns);
    if (first_enqueue_ns < 0.0 || resp.enqueue_ns < first_enqueue_ns) {
        first_enqueue_ns = resp.enqueue_ns;
    }
}

void LatencyWindow::merge(const LatencyWindow &other) {
    latencies_ns.insert(latencies_ns.end(), other.latencies_ns.begin(),
                        other.latencies_ns.end());
    last_complete_ns = std::max(last_complete_ns, other.last_complete_ns);
    if (first_enqueue_ns < 0.0 ||
        (other.first_enqueue_ns >= 0.0 &&
         other.first_enqueue_ns < first_enqueue_ns)) {
        first_enqueue_ns = other.first_enqueue_ns;
    }
}

void LatencyWindow::summarize(LatencyStats &stats) const {
    stats.requests = latencies_ns.size();
    if (latencies_ns.empty()) {
        return;
    }
    std::vector<double> sorted = latencies_ns;
    std::sort(sorted.begin(), sorted.end());
    // Exact nearest-rank percentiles (obs::percentile is the shared
    // implementation); the registry histogram is the bounded export-side
    // view of the same distribution.
    stats.p50_ms = obs::percentile(sorted, 0.50) * 1e-6;
    stats.p95_ms = obs::percentile(sorted, 0.95) * 1e-6;
    stats.p99_ms = obs::percentile(sorted, 0.99) * 1e-6;
    stats.max_ms = sorted.back() * 1e-6;
    double sum = 0.0;
    for (const double v : sorted) {
        sum += v;
    }
    stats.mean_ms = sum / static_cast<double>(sorted.size()) * 1e-6;
    const double window_ns =
        last_complete_ns - std::max(first_enqueue_ns, 0.0);
    stats.makespan_ms = window_ns * 1e-6;
    stats.throughput_rps = window_ns > 0.0
                               ? static_cast<double>(stats.requests) /
                                     (window_ns * 1e-9)
                               : 0.0;
}

ServeMetrics &ServeMetrics::instance() {
    auto &reg = obs::Registry::global();
    static ServeMetrics m{
        reg.counter("serve.requests"),
        reg.counter("serve.failed"),
        reg.counter("serve.overloaded"),
        reg.counter("serve.invalid_programs"),
        reg.counter("serve.batches"),
        reg.counter("serve.fallbacks"),
        reg.counter("serve.host_requests"),
        reg.counter("serve.program_cache_hits"),
        reg.counter("compile.programs"),
        reg.histogram("serve.latency_ns"),
    };
    return m;
}

void count_failure(LatencyStats &stats, Status code) {
    ServeMetrics &m = ServeMetrics::instance();
    ++stats.failed;
    m.failed.add();
    if (code == Status::Overloaded) {
        ++stats.overloaded;
        m.overloaded.add();
    } else if (code == Status::InvalidProgram) {
        ++stats.invalid_programs;
        m.invalid_programs.add();
    }
}

Response record_failure(LatencyStats &stats, uint64_t session_id,
                        Status code, std::string error) {
    count_failure(stats, code);
    Response resp;
    resp.session_id = session_id;
    resp.code = code;
    resp.error = std::move(error);
    return resp;
}

}  // namespace xehe::serve
