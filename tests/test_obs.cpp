// The observability subsystem: exact nearest-rank percentiles, the
// log-linear histogram's bucket geometry, registry export (JSON parsed
// back with the bundled reader, Prometheus text), the trace recorder's
// ring/context semantics, Chrome trace-event export validation — and the
// end-to-end acceptance check: one served request produces a connected
// span tree from the serving front door down to individual kernel
// launches, proven by walking parent links in the exported JSON.
#include "test_common.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "he/program.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/key_manager.h"
#include "serve/server.h"
#include "serve/sharded_server.h"
#include "xgpu/device.h"

namespace xehe::test {
namespace {

using serve::InferenceServer;
using serve::Op;
using serve::Request;
using serve::ServerConfig;

/// Tests that need live tracing skip themselves in an -DXEHE_OBS=OFF
/// build (the CI overhead-gate configuration), where tracing_enabled()
/// is constant false; the metrics/export/percentile suites still run.
#if defined(XEHE_OBS_DISABLED)
#define OBS_REQUIRE_TRACING() \
    GTEST_SKIP() << "tracing compiled out (XEHE_OBS=OFF)"
#else
#define OBS_REQUIRE_TRACING() static_cast<void>(0)
#endif

/// Every test that enables the global recorder funnels through this RAII
/// guard so a failing assertion cannot leak an enabled recorder (with
/// stale spans) into the suites that run after it.
struct RecorderGuard {
    explicit RecorderGuard(std::size_t capacity = 1 << 12) {
        obs::TraceRecorder::instance().enable(capacity);
    }
    ~RecorderGuard() {
        obs::TraceRecorder::instance().disable();
        obs::TraceRecorder::instance().clear();
    }
};

obs::SpanRecord make_span(uint64_t id, uint64_t parent, double start,
                          double end, obs::Clock clock = obs::Clock::Sim,
                          const char *name = "span") {
    obs::SpanRecord rec;
    rec.id = id;
    rec.parent = parent;
    rec.start_ns = start;
    rec.end_ns = end;
    rec.clock = clock;
    rec.name = name;
    return rec;
}

std::string trace_json(const std::vector<obs::SpanRecord> &spans) {
    std::ostringstream out;
    obs::write_chrome_trace(out, spans);
    return out.str();
}

// ---------------------------------------------------------------------------
// Exact nearest-rank percentiles (the serving stats implementation)
// ---------------------------------------------------------------------------

TEST(ObsPercentile, EdgeCases) {
    EXPECT_DOUBLE_EQ(obs::percentile({}, 0.5), 0.0) << "empty sample";

    const double one[] = {42.0};
    EXPECT_DOUBLE_EQ(obs::percentile(one, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(obs::percentile(one, 0.5), 42.0);
    EXPECT_DOUBLE_EQ(obs::percentile(one, 0.99), 42.0);
    EXPECT_DOUBLE_EQ(obs::percentile(one, 1.0), 42.0);

    const double two[] = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(obs::percentile(two, 0.50), 1.0)
        << "nearest-rank: ceil(0.5 * 2) = rank 1";
    EXPECT_DOUBLE_EQ(obs::percentile(two, 0.51), 2.0);
    EXPECT_DOUBLE_EQ(obs::percentile(two, 0.95), 2.0);

    const double equal[] = {7.0, 7.0, 7.0, 7.0, 7.0};
    for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
        EXPECT_DOUBLE_EQ(obs::percentile(equal, q), 7.0);
    }

    // Out-of-range q clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(obs::percentile(two, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::percentile(two, 2.0), 2.0);
}

TEST(ObsPercentile, NearestRankOnHundredSamples) {
    std::vector<double> sorted(100);
    for (std::size_t i = 0; i < 100; ++i) {
        sorted[i] = static_cast<double>(i + 1);  // 1..100, sorted
    }
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 0.50), 50.0);
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 0.95), 95.0);
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 0.99), 99.0)
        << "p99 of 100 samples is the 99th order statistic, not the max";
    EXPECT_DOUBLE_EQ(obs::percentile(sorted, 1.0), 100.0);
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreLeftOpenRightClosed) {
    obs::HistogramOptions opt;
    opt.min_value = 1.0;
    opt.octaves = 4;
    opt.sub_buckets = 2;
    obs::Histogram h(opt);

    // Layout: bucket 0 = underflow (v <= 1), then 4 * 2 finite buckets,
    // then overflow.
    ASSERT_EQ(h.bucket_count(), 1 + 4 * 2 + 1);

    // Underflow: everything at or below min_value.
    EXPECT_EQ(h.bucket_index(0.0), 0u);
    EXPECT_EQ(h.bucket_index(0.5), 0u);
    EXPECT_EQ(h.bucket_index(1.0), 0u) << "min_value itself is underflow";

    // Bucket i covers (upper_bound(i-1), upper_bound(i)]: a value exactly
    // on a boundary belongs to the bucket it closes, the next value up
    // opens the following bucket.
    for (std::size_t i = 1; i + 1 < h.bucket_count(); ++i) {
        const double hi = h.upper_bound(i);
        EXPECT_EQ(h.bucket_index(hi), i) << "upper bound of bucket " << i;
        EXPECT_EQ(h.bucket_index(std::nextafter(
                      hi, std::numeric_limits<double>::infinity())),
                  i + 1)
            << "just above the bound of bucket " << i;
        EXPECT_GT(h.upper_bound(i), h.upper_bound(i - 1))
            << "bounds must be strictly increasing";
    }

    // Sub-bucket geometry: with 2 sub-buckets the bounds double every two
    // buckets (1 -> sqrt(2) -> 2 -> 2*sqrt(2) -> 4 ...).
    EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
    EXPECT_DOUBLE_EQ(h.upper_bound(2), 2.0);
    EXPECT_DOUBLE_EQ(h.upper_bound(4), 4.0);
    EXPECT_DOUBLE_EQ(h.upper_bound(6), 8.0);
    EXPECT_DOUBLE_EQ(h.upper_bound(8), 16.0);

    // Overflow: at or beyond min_value * 2^octaves.
    const std::size_t last = h.bucket_count() - 1;
    EXPECT_EQ(h.bucket_index(17.0), last);
    EXPECT_EQ(h.bucket_index(1e12), last);
    EXPECT_TRUE(std::isinf(h.upper_bound(last)));
}

TEST(ObsHistogram, ObserveCountSumAndQuantiles) {
    obs::HistogramOptions opt;
    opt.min_value = 1.0;
    opt.octaves = 10;
    opt.sub_buckets = 8;
    obs::Histogram h(opt);

    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0) << "empty histogram";

    for (int i = 0; i < 99; ++i) {
        h.observe(10.0);
    }
    h.observe(800.0);

    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.sum(), 99 * 10.0 + 800.0);

    // Quantiles come back as the containing bucket's upper bound: an
    // overestimate of at most one bucket ratio (2^(1/8) ~ 9%).
    const double p50 = h.percentile(0.50);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p50, 10.0 * std::pow(2.0, 1.0 / 8.0));
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p99, 10.0);
    EXPECT_LE(p99, 10.0 * std::pow(2.0, 1.0 / 8.0));
    const double p100 = h.percentile(1.0);
    EXPECT_GE(p100, 800.0);
    EXPECT_LE(p100, 800.0 * std::pow(2.0, 1.0 / 8.0));

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Registry and its exports
// ---------------------------------------------------------------------------

TEST(ObsRegistry, HandlesAreStableAndResetSafe) {
    obs::Registry reg;
    obs::Counter &c = reg.counter("requests");
    obs::Gauge &g = reg.gauge("resident_bytes");
    obs::Histogram &h = reg.histogram("latency_ns");

    c.add();
    c.add(4);
    g.set(123.5);
    h.observe(50.0);

    // Same name resolves to the same object — the cached-handle pattern
    // the serving hot paths rely on.
    EXPECT_EQ(&reg.counter("requests"), &c);
    EXPECT_EQ(&reg.gauge("resident_bytes"), &g);
    EXPECT_EQ(&reg.histogram("latency_ns"), &h);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_DOUBLE_EQ(g.value(), 123.5);

    // A counter and a gauge may not collide on one name in kind-agnostic
    // snapshots; distinct kinds under one name stay distinct objects.
    obs::Counter &c2 = reg.counter("resident_bytes");
    EXPECT_NE(static_cast<void *>(&c2), static_cast<void *>(&g));

    reg.reset();
    EXPECT_EQ(c.value(), 0u) << "reset zeroes through the old reference";
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    c.add(7);
    EXPECT_EQ(reg.counter("requests").value(), 7u);
}

TEST(ObsRegistry, JsonExportParsesBackWithBundledReader) {
    obs::Registry reg;
    reg.counter("serve.requests").add(42);
    reg.gauge("keys.resident_bytes").set(1.5e6);
    obs::Histogram &h = reg.histogram("serve.latency_ns");
    h.observe(100.0);
    h.observe(200.0);

    std::ostringstream out;
    reg.write_json(out);
    const obs::JsonValue doc = obs::parse_json(out.str());

    ASSERT_TRUE(doc.is_object());
    const obs::JsonValue *marker = doc.find("obs_registry");
    ASSERT_NE(marker, nullptr);
    EXPECT_DOUBLE_EQ(marker->as_number(), 1.0);

    const obs::JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->is_array());
    ASSERT_EQ(metrics->as_array().size(), 3u);

    bool saw_counter = false, saw_gauge = false, saw_hist = false;
    for (const obs::JsonValue &m : metrics->as_array()) {
        const std::string &name = m.find("name")->as_string();
        const std::string &type = m.find("type")->as_string();
        if (name == "serve.requests") {
            saw_counter = true;
            EXPECT_EQ(type, "counter");
            EXPECT_DOUBLE_EQ(m.find("value")->as_number(), 42.0);
        } else if (name == "keys.resident_bytes") {
            saw_gauge = true;
            EXPECT_EQ(type, "gauge");
            EXPECT_DOUBLE_EQ(m.find("value")->as_number(), 1.5e6);
        } else if (name == "serve.latency_ns") {
            saw_hist = true;
            EXPECT_EQ(type, "histogram");
            EXPECT_DOUBLE_EQ(m.find("count")->as_number(), 2.0);
            EXPECT_DOUBLE_EQ(m.find("sum")->as_number(), 300.0);
            ASSERT_NE(m.find("p99"), nullptr);
            ASSERT_TRUE(m.find("buckets")->is_array());
            EXPECT_EQ(m.find("buckets")->as_array().size(), 2u)
                << "only non-empty buckets are exported";
        }
    }
    EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(ObsRegistry, PrometheusExportIsWellFormed) {
    obs::Registry reg;
    reg.counter("serve.requests").add(3);
    obs::Histogram &h = reg.histogram("serve.latency_ns");
    h.observe(10.0);

    std::ostringstream out;
    reg.write_prometheus(out);
    const std::string text = out.str();

    // Dots sanitize to underscores under the xehe_ prefix.
    EXPECT_NE(text.find("xehe_serve_requests 3"), std::string::npos) << text;
    EXPECT_NE(text.find("# TYPE xehe_serve_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE xehe_serve_latency_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("xehe_serve_latency_ns_count 1"), std::string::npos);
    EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos)
        << "cumulative buckets must close with +Inf:\n" << text;
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledRecorderIsInert) {
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    rec.disable();
    rec.clear();
    EXPECT_FALSE(obs::tracing_enabled());

    {
        obs::Span span("noop", obs::Category::Other);
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(obs::record_sim_span("noop", obs::Category::Other, 0.0, 1.0), 0u);
    rec.record(make_span(1, 0, 0.0, 1.0));
    EXPECT_EQ(rec.size(), 0u);
}

TEST(ObsTrace, RecordsSpansOldestFirst) {
    OBS_REQUIRE_TRACING();
    RecorderGuard guard(16);
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();

    const uint64_t a = obs::record_sim_span("a", obs::Category::Kernel,
                                            0.0, 10.0);
    const uint64_t b = obs::record_sim_span("b", obs::Category::Kernel,
                                            10.0, 20.0);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_LT(a, b) << "ids are monotone";

    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "a");
    EXPECT_EQ(spans[1].name, "b");
    EXPECT_EQ(spans[0].clock, obs::Clock::Sim);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsTrace, RingWrapClosesParentLinks) {
    OBS_REQUIRE_TRACING();
    RecorderGuard guard(4);
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();

    // A chain: each span's parent is the previous one.  With capacity 4,
    // spans 1..6 leave only 3..6 in the ring, and span 3's parent (2)
    // wrapped out — snapshot() must rewrite it to a root, not dangle.
    uint64_t prev = 0;
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        obs::SpanRecord s = make_span(rec.next_id(), prev, i * 10.0,
                                      i * 10.0 + 5.0);
        prev = s.id;
        ids.push_back(s.id);
        rec.record(std::move(s));
    }

    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 2u);
    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans.front().id, ids[2]);
    EXPECT_EQ(spans.front().parent, 0u)
        << "parent wrapped out of the ring: must be rewritten to root";
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].parent, spans[i - 1].id)
            << "surviving links stay intact";
    }
}

TEST(ObsTrace, ContextScopeFillsIdentityAndInherits) {
    OBS_REQUIRE_TRACING();
    RecorderGuard guard;
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();

    // Real recorded anchors so the parent links survive snapshot()'s
    // orphan closure (a fabricated parent id would be rewritten to 0).
    const uint64_t outer_id = obs::record_sim_span(
        "anchor.outer", obs::Category::Other, 0.0, 100.0);
    const uint64_t inner_id = obs::record_sim_span(
        "anchor.inner", obs::Category::Other, 0.0, 100.0);

    {
        obs::ContextScope outer(outer_id, /*request=*/42, /*session=*/7,
                                /*shard=*/3);
        obs::record_sim_span("inherits.all", obs::Category::Other, 0.0, 1.0);
        {
            // A nested scope overriding only the parent span inherits the
            // rest of the identity.
            obs::ContextScope inner(inner_id);
            obs::record_sim_span("overrides.span", obs::Category::Other,
                                 1.0, 2.0);
        }
        obs::record_sim_span("restored", obs::Category::Other, 2.0, 3.0);
    }
    obs::record_sim_span("rootless", obs::Category::Other, 3.0, 4.0);

    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 6u);
    EXPECT_EQ(spans[2].parent, outer_id);
    EXPECT_EQ(spans[2].request, 42u);
    EXPECT_EQ(spans[2].session, 7u);
    EXPECT_EQ(spans[2].shard, 3);
    EXPECT_EQ(spans[3].parent, inner_id);
    EXPECT_EQ(spans[3].request, 42u) << "inner scope inherits the request";
    EXPECT_EQ(spans[3].session, 7u);
    EXPECT_EQ(spans[3].shard, 3);
    EXPECT_EQ(spans[4].parent, outer_id)
        << "popping restores the outer scope";
    EXPECT_EQ(spans[5].parent, 0u);
    EXPECT_EQ(spans[5].request, 0u);
    EXPECT_EQ(spans[5].shard, -1);
}

TEST(ObsTrace, RaiiSpansNestByConstruction) {
    OBS_REQUIRE_TRACING();
    RecorderGuard guard;
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();

    uint64_t outer_id = 0, inner_id = 0;
    {
        obs::Span outer("outer", obs::Category::Compile);
        ASSERT_TRUE(outer.active());
        outer_id = outer.id();
        {
            obs::Span inner("inner", obs::Category::Compile);
            inner_id = inner.id();
        }
        outer.set_detail("two passes");
    }

    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Inner completes (and records) first.
    EXPECT_EQ(spans[0].id, inner_id);
    EXPECT_EQ(spans[0].parent, outer_id);
    EXPECT_EQ(spans[1].id, outer_id);
    EXPECT_EQ(spans[1].parent, 0u) << "no self-parenting at scope exit";
    EXPECT_EQ(spans[1].detail, "two passes");
    EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[0].end_ns)
        << "outer window contains inner";
}

TEST(ObsTrace, KeyReexpandSpanSaysHowManyBuffersWereRecycled) {
    // A slow key miss explains itself: the keys.reexpand detail counts the
    // key ciphertexts refilled in the evicted keyset's buffers out of the
    // keyset's total; the rest were allocated.
    OBS_REQUIRE_TRACING();
    CkksBench host(1024, 3);
    const ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    const ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    const std::size_t total =
        relin.key.keys.size() + galois.keys.begin()->second.keys.size();
    // Room for one keyset: each session's miss evicts the other's.
    serve::KeyManager manager(host.context,
                              serve::expanded_key_bytes(relin, galois));
    manager.register_session(1, relin, galois);
    manager.register_session(2, relin, galois);
    RecorderGuard guard;

    manager.acquire(1);                      // cold start: all allocated
    manager.acquire(2);                      // 1 unheld: all refilled
    const auto held = manager.acquire(1);    // 2 unheld: all refilled
    const auto fresh = manager.acquire(2);   // 1 held: all allocated
    std::vector<std::string> details;
    for (const auto &span : obs::TraceRecorder::instance().snapshot()) {
        if (span.name == "keys.reexpand") {
            details.push_back(span.detail);
        }
    }
    const std::string all = std::to_string(total) + "/" + std::to_string(total);
    const std::string none = "recycled 0/" + std::to_string(total);
    EXPECT_EQ(details, (std::vector<std::string>{none, "recycled " + all,
                                                 "recycled " + all, none}));
}

// ---------------------------------------------------------------------------
// Chrome trace export + structural validation
// ---------------------------------------------------------------------------

TEST(ObsTraceExport, AcceptsAWellFormedTree) {
    std::vector<obs::SpanRecord> spans;
    spans.push_back(make_span(1, 0, 0.0, 100.0, obs::Clock::Sim, "request"));
    spans.push_back(make_span(2, 1, 10.0, 90.0, obs::Clock::Sim, "lane"));
    spans.push_back(make_span(3, 2, 20.0, 40.0, obs::Clock::Sim, "kernel"));
    // Host-clock child of a sim-clock parent: the link is fine, the
    // containment rule only binds within one clock domain.
    spans.push_back(make_span(4, 2, 5000.0, 6000.0, obs::Clock::Host,
                              "compile"));

    const std::string json = trace_json(spans);
    EXPECT_EQ(obs::check_chrome_trace(json), "") << json;

    // And the emitted document is real JSON with both clock processes.
    const obs::JsonValue doc = obs::parse_json(json);
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<double> pids;
    for (const obs::JsonValue &ev : events->as_array()) {
        pids.insert(ev.find("pid")->as_number());
    }
    EXPECT_EQ(pids.size(), 2u) << "sim and host clocks on separate pids";
}

TEST(ObsTraceExport, RejectsStructuralDefects) {
    // Orphan parent link.
    {
        std::vector<obs::SpanRecord> spans;
        spans.push_back(make_span(1, 999, 0.0, 1.0));
        const std::string err = obs::check_chrome_trace(trace_json(spans));
        EXPECT_NE(err, "") << "orphan parent must be rejected";
    }
    // Negative duration (hand-crafted: the writer clamps dur to 0, so a
    // negative value can only come from a foreign tool or corruption).
    {
        const char *bad =
            "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"k\", "
            "\"pid\": 1, \"tid\": 0, \"ts\": 10.0, \"dur\": -5.0, "
            "\"args\": {\"span\": 1, \"parent\": 0}}]}";
        EXPECT_NE(obs::check_chrome_trace(bad), "");
    }
    // Duplicate span ids.
    {
        std::vector<obs::SpanRecord> spans;
        spans.push_back(make_span(1, 0, 0.0, 1.0));
        spans.push_back(make_span(1, 0, 2.0, 3.0));
        EXPECT_NE(obs::check_chrome_trace(trace_json(spans)), "");
    }
    // Child escaping its same-clock parent's window.
    {
        std::vector<obs::SpanRecord> spans;
        spans.push_back(make_span(1, 0, 0.0, 10.0));
        spans.push_back(make_span(2, 1, 5.0, 20000.0));
        EXPECT_NE(obs::check_chrome_trace(trace_json(spans)), "");
    }
    // Not a trace document at all.
    EXPECT_NE(obs::check_chrome_trace("{\"traceEvents\": 3}"), "");
    EXPECT_NE(obs::check_chrome_trace("nonsense"), "");
}

// ---------------------------------------------------------------------------
// Acceptance: one served request -> a connected multi-layer span tree
// ---------------------------------------------------------------------------

/// Chrome-trace event plus the parsed span identity args.
struct ParsedSpan {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint64_t session = 0;
    std::string name;
    std::string category;
};

std::map<uint64_t, ParsedSpan> parse_spans(const std::string &json) {
    std::map<uint64_t, ParsedSpan> out;
    const obs::JsonValue doc = obs::parse_json(json);
    for (const obs::JsonValue &ev : doc.find("traceEvents")->as_array()) {
        const obs::JsonValue *ph = ev.find("ph");
        if (ph == nullptr || ph->as_string() != "X") {
            continue;  // metadata events
        }
        ParsedSpan span;
        const obs::JsonValue *args = ev.find("args");
        span.id = static_cast<uint64_t>(args->find("span")->as_number());
        span.parent =
            static_cast<uint64_t>(args->find("parent")->as_number());
        span.request =
            static_cast<uint64_t>(args->find("request")->as_number());
        span.session =
            static_cast<uint64_t>(args->find("session")->as_number());
        span.name = ev.find("name")->as_string();
        span.category = ev.find("cat")->as_string();
        out.emplace(span.id, span);
    }
    return out;
}

TEST(ObsAcceptance, ServedRequestProducesConnectedSpanTree) {
    OBS_REQUIRE_TRACING();
    CkksBench host(1024, 3);
    const ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1, -1};
    const ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);

    InferenceServer server(host.context, xgpu::device1(), core::GpuOptions{},
                           ServerConfig{});
    server.set_keys(relin, galois);
    // Session-registered keys force the request through the KeyManager's
    // acquire/expand path, so the tree gains a keys layer.
    const uint64_t session = 7;
    server.register_session_keys(session, relin, galois);

    RecorderGuard guard(1 << 14);

    // An Op::Program request exercises the compiler too: the tree must
    // span serve -> compile -> schedule -> kernel (+ keys), proving the
    // context plumbing crosses every layer boundary.
    he::ProgramBuilder builder(2);
    builder.output(builder.relinearize(
        builder.multiply(builder.input(0), builder.input(1))));
    Request req;
    req.session_id = session;
    req.op = Op::Program;
    req.program = wire::serialize(builder.build());
    req.inputs.push_back(wire::serialize(host.enc(host.values(1))));
    req.inputs.push_back(wire::serialize(host.enc(host.values(2))));
    server.submit(wire::serialize(req));  // bytes: the wire layer traces too

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].error;

    // Export must pass its own structural validator, then parse cleanly.
    const std::string json = obs::chrome_trace_to_string();
    ASSERT_EQ(obs::check_chrome_trace(json), "");
    const auto spans = parse_spans(json);
    ASSERT_FALSE(spans.empty());

    // Locate the request root.
    const ParsedSpan *request_span = nullptr;
    for (const auto &[id, span] : spans) {
        if (span.name == "serve.request") {
            ASSERT_EQ(request_span, nullptr) << "exactly one request";
            request_span = &span;
        }
    }
    ASSERT_NE(request_span, nullptr);
    EXPECT_EQ(request_span->parent, 0u) << "the request is a root span";
    EXPECT_EQ(request_span->session, session);
    ASSERT_NE(request_span->request, 0u);

    // Walk every span up its parent links; collect the categories and the
    // maximum depth of the tree rooted at the request span.
    const auto chain_to_request = [&](const ParsedSpan &leaf) {
        std::vector<const ParsedSpan *> chain{&leaf};
        const ParsedSpan *cur = &leaf;
        while (cur->parent != 0) {
            const auto it = spans.find(cur->parent);
            if (it == spans.end()) {
                break;
            }
            cur = &it->second;
            chain.push_back(cur);
        }
        return cur->id == request_span->id ? chain
                                           : std::vector<const ParsedSpan *>{};
    };

    std::set<std::string> tree_categories;
    std::size_t max_chain = 0;
    std::size_t kernel_spans = 0;
    for (const auto &[id, span] : spans) {
        const auto chain = chain_to_request(span);
        if (chain.empty()) {
            continue;
        }
        max_chain = std::max(max_chain, chain.size());
        tree_categories.insert(span.category);
        EXPECT_EQ(span.request, request_span->request)
            << span.name << " lost the request ordinal";
        EXPECT_EQ(span.session, session)
            << span.name << " lost the session id";
        if (span.category == "kernel") {
            ++kernel_spans;
            // The acceptance chain: kernel -> scheduler lane -> request.
            ASSERT_GE(chain.size(), 3u);
            EXPECT_EQ(chain[1]->name, "serve.lane");
            EXPECT_EQ(chain[1]->category, "schedule");
            EXPECT_EQ(chain.back()->name, "serve.request");
        }
    }

    EXPECT_GT(kernel_spans, 0u) << "kernel launches must appear in the tree";
    EXPECT_GE(max_chain, 4u)
        << "the deepest chain (e.g. compile pass -> compile.program -> "
           "... -> serve.request) must span at least 4 layers";
    for (const char *cat : {"serve", "schedule", "kernel", "compile", "keys"}) {
        EXPECT_TRUE(tree_categories.count(cat))
            << "layer missing from the request tree: " << cat;
    }

    // The wire layer traced the front door (outside the request tree: the
    // request span does not exist until the bytes parse).
    bool saw_wire = false;
    for (const auto &[id, span] : spans) {
        saw_wire = saw_wire || span.category == "wire";
    }
    EXPECT_TRUE(saw_wire);
}

TEST(ObsAcceptance, OneAdmissionAnalysisPerRequest) {
    // Every request is lowered and analyzed once, at admission: fixed ops,
    // client circuits and a circuit the analyzer rejects each leave one
    // serve.analyze span after submit(), and dispatch adds none.
    OBS_REQUIRE_TRACING();
    CkksBench host(1024, 3);
    const ckks::RelinKeys relin = host.keygen.create_relin_keys();
    const int steps[] = {1};
    const ckks::GaloisKeys galois = host.keygen.create_galois_keys(steps);
    InferenceServer server(host.context, xgpu::device1(), core::GpuOptions{},
                           ServerConfig{});
    server.set_keys(relin, galois);
    RecorderGuard guard(1 << 14);
    const auto analyze_spans = [] {
        std::size_t count = 0;
        for (const auto &span : obs::TraceRecorder::instance().snapshot()) {
            count += span.name == "serve.analyze";
        }
        return count;
    };

    const auto ct = wire::serialize(host.enc(host.values(1)));
    std::size_t submitted = 0;
    for (const Op op : {Op::MulLinRS, Op::Rotate, Op::MatmulTile}) {
        Request req;
        req.session_id = submitted++;
        req.op = op;
        req.matmul_tiles = 2;
        req.inputs.assign(serve::op_arity(op), ct);
        server.submit(wire::serialize(req));
    }
    he::ProgramBuilder good(2);
    good.output(good.relinearize(good.multiply(good.input(0),
                                               good.input(1))));
    // One rescale more than the chain has primes: the analyzer rejects it
    // at admission.
    he::ProgramBuilder bad(2);
    auto deep = bad.input(0);
    for (std::size_t i = 0; i <= host.context.max_level(); ++i) {
        deep = bad.rescale(deep);
    }
    bad.output(bad.add(deep, deep));
    for (const he::Program &program : {good.build(), bad.build()}) {
        Request req;
        req.session_id = submitted++;
        req.op = Op::Program;
        req.program = wire::serialize(program);
        req.inputs.assign(program.num_inputs, ct);
        server.submit(wire::serialize(req));
    }
    EXPECT_EQ(analyze_spans(), submitted);

    const auto responses = server.run();
    ASSERT_EQ(responses.size(), submitted);
    std::size_t rejected = 0;
    for (const auto &resp : responses) {
        rejected += resp.code == serve::Status::InvalidProgram;
    }
    EXPECT_EQ(rejected, 1u);
    EXPECT_EQ(analyze_spans(), submitted) << "dispatch re-analyzed";
    EXPECT_EQ(obs::TraceRecorder::instance().dropped(), 0u);
}

TEST(ObsAcceptance, ShardedFrontDoorTracesWireParse) {
    // The sharded front door parses envelopes itself: each byte
    // submission, well-formed or not, leaves one wire.parse span, as on
    // the unsharded server.
    OBS_REQUIRE_TRACING();
    CkksBench host(1024, 3);
    serve::ShardedConfig cfg;
    cfg.shard.functional = false;
    serve::ShardedServer server(host.context, xgpu::device1(),
                                core::GpuOptions{}, cfg);
    RecorderGuard guard;

    const auto ct = wire::serialize(host.enc(host.values(1)));
    std::vector<std::vector<uint8_t>> envelopes;
    for (uint64_t session = 0; session < 4; ++session) {
        Request req;
        req.session_id = session;
        req.op = Op::MulLinRS;
        req.inputs.assign(2, ct);
        envelopes.push_back(wire::serialize(req));
    }
    envelopes.push_back(envelopes[0]);
    envelopes.back().resize(envelopes.back().size() / 2);  // truncated
    for (const auto &bytes : envelopes) {
        server.submit(bytes);
    }
    std::size_t parse_spans = 0;
    for (const auto &span : obs::TraceRecorder::instance().snapshot()) {
        parse_spans += span.name == "wire.parse";
    }
    EXPECT_EQ(parse_spans, envelopes.size());
}

}  // namespace
}  // namespace xehe::test
