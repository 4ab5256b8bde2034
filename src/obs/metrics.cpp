#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "obs/json.h"

namespace xehe::obs {

double percentile(std::span<const double> sorted, double q) noexcept {
    if (sorted.empty()) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const std::size_t n = sorted.size();
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    const std::size_t index = std::min(n - 1, rank > 0 ? rank - 1 : 0);
    return sorted[index];
}

Histogram::Histogram(HistogramOptions options) : options_(options) {
    if (!(options_.min_value > 0.0)) {
        options_.min_value = 1.0;
    }
    options_.octaves = std::max<std::size_t>(1, options_.octaves);
    options_.sub_buckets = std::max<std::size_t>(1, options_.sub_buckets);
    inv_min_ = 1.0 / options_.min_value;
    // underflow + octaves*sub finite buckets + overflow
    counts_ = std::vector<std::atomic<uint64_t>>(
        1 + options_.octaves * options_.sub_buckets + 1);
}

std::size_t Histogram::bucket_index(double value) const noexcept {
    if (!(value > options_.min_value)) {
        return 0;  // underflow bucket (also catches NaN / negatives)
    }
    const double ratio = value * inv_min_;
    int exp = 0;
    const double mantissa = std::frexp(ratio, &exp);  // ratio = m * 2^exp
    // frexp gives m in [0.5, 1); octave k = exp-1 so 2^k <= ratio < 2^(k+1).
    std::size_t octave = exp > 0 ? static_cast<std::size_t>(exp - 1) : 0;
    if (octave >= options_.octaves) {
        // (lo, hi]: the range's top boundary itself still closes the last
        // finite bucket; only values beyond it overflow.
        return value <= upper_bound(counts_.size() - 2) ? counts_.size() - 2
                                                        : counts_.size() - 1;
    }
    // Position within the octave: (m - 0.5) / 0.5 in [0, 1).
    auto sub = static_cast<std::size_t>(
        (mantissa - 0.5) * 2.0 * static_cast<double>(options_.sub_buckets));
    sub = std::min(sub, options_.sub_buckets - 1);
    std::size_t index = 1 + octave * options_.sub_buckets + sub;
    // Buckets are (lo, hi]: a value sitting exactly on a boundary belongs
    // to the bucket it closes, not the one it opens.
    if (index > 1 && value <= upper_bound(index - 1)) {
        --index;
    }
    return index;
}

double Histogram::upper_bound(std::size_t i) const noexcept {
    if (i == 0) {
        return options_.min_value;
    }
    if (i >= counts_.size() - 1) {
        return std::numeric_limits<double>::infinity();
    }
    const std::size_t octave = (i - 1) / options_.sub_buckets;
    const std::size_t sub = (i - 1) % options_.sub_buckets;
    const double lower = options_.min_value * std::ldexp(1.0, static_cast<int>(octave));
    const double width = lower / static_cast<double>(options_.sub_buckets);
    return lower + static_cast<double>(sub + 1) * width;
}

void Histogram::observe(double value) noexcept {
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
    }
}

double Histogram::percentile(double q) const noexcept {
    const uint64_t total = count();
    if (total == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    const uint64_t target = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += bucket_value(i);
        if (seen >= target) {
            // The overflow bucket has no finite bound; report the largest
            // finite boundary instead.
            return i == counts_.size() - 1 ? upper_bound(counts_.size() - 2)
                                           : upper_bound(i);
        }
    }
    return upper_bound(counts_.size() - 2);
}

void Histogram::reset() noexcept {
    for (auto &c : counts_) {
        c.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
}

struct Registry::Entry {
    std::string name;
    MetricSnapshot::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry &Registry::global() {
    static Registry registry;
    return registry;
}

Counter &Registry::counter(const std::string &name) {
    util::MutexLock lock(mutex_);
    for (const auto &e : entries_) {
        if (e->name == name && e->kind == MetricSnapshot::Kind::Counter) {
            return *e->counter;
        }
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->kind = MetricSnapshot::Kind::Counter;
    entry->counter = std::make_unique<Counter>();
    Counter &out = *entry->counter;
    entries_.push_back(std::move(entry));
    return out;
}

Gauge &Registry::gauge(const std::string &name) {
    util::MutexLock lock(mutex_);
    for (const auto &e : entries_) {
        if (e->name == name && e->kind == MetricSnapshot::Kind::Gauge) {
            return *e->gauge;
        }
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->kind = MetricSnapshot::Kind::Gauge;
    entry->gauge = std::make_unique<Gauge>();
    Gauge &out = *entry->gauge;
    entries_.push_back(std::move(entry));
    return out;
}

Histogram &Registry::histogram(const std::string &name,
                               HistogramOptions options) {
    util::MutexLock lock(mutex_);
    for (const auto &e : entries_) {
        if (e->name == name && e->kind == MetricSnapshot::Kind::Histogram) {
            return *e->histogram;
        }
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->kind = MetricSnapshot::Kind::Histogram;
    entry->histogram = std::make_unique<Histogram>(options);
    Histogram &out = *entry->histogram;
    entries_.push_back(std::move(entry));
    return out;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
    std::vector<MetricSnapshot> out;
    util::MutexLock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        MetricSnapshot m;
        m.name = e->name;
        m.kind = e->kind;
        switch (e->kind) {
            case MetricSnapshot::Kind::Counter:
                m.value = static_cast<double>(e->counter->value());
                break;
            case MetricSnapshot::Kind::Gauge:
                m.value = e->gauge->value();
                break;
            case MetricSnapshot::Kind::Histogram: {
                const Histogram &h = *e->histogram;
                m.count = h.count();
                m.sum = h.sum();
                m.p50 = h.percentile(0.50);
                m.p95 = h.percentile(0.95);
                m.p99 = h.percentile(0.99);
                for (std::size_t i = 0; i < h.bucket_count(); ++i) {
                    const uint64_t c = h.bucket_value(i);
                    if (c != 0) {
                        m.buckets.emplace_back(h.upper_bound(i), c);
                    }
                }
                break;
            }
        }
        out.push_back(std::move(m));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return out;
}

namespace {

void write_json_number(std::ostream &out, double v) {
    if (!std::isfinite(v)) {
        // JSON has no infinity; exports encode it as a string marker.
        out << "\"+inf\"";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        out << static_cast<long long>(v);
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out << buf;
    }
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prometheus_name(const std::string &name) {
    std::string out = "xehe_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

}  // namespace

void Registry::write_json(std::ostream &out) const {
    const std::vector<MetricSnapshot> metrics = snapshot();
    out << "{\n  \"obs_registry\": 1,\n  \"metrics\": [";
    bool first = true;
    for (const MetricSnapshot &m : metrics) {
        out << (first ? "\n" : ",\n") << "    {\"name\": ";
        first = false;
        write_json_string(out, m.name);
        switch (m.kind) {
            case MetricSnapshot::Kind::Counter:
                out << ", \"type\": \"counter\", \"value\": ";
                write_json_number(out, m.value);
                break;
            case MetricSnapshot::Kind::Gauge:
                out << ", \"type\": \"gauge\", \"value\": ";
                write_json_number(out, m.value);
                break;
            case MetricSnapshot::Kind::Histogram:
                out << ", \"type\": \"histogram\", \"count\": " << m.count
                    << ", \"sum\": ";
                write_json_number(out, m.sum);
                out << ", \"p50\": ";
                write_json_number(out, m.p50);
                out << ", \"p95\": ";
                write_json_number(out, m.p95);
                out << ", \"p99\": ";
                write_json_number(out, m.p99);
                out << ", \"buckets\": [";
                for (std::size_t i = 0; i < m.buckets.size(); ++i) {
                    out << (i == 0 ? "" : ", ") << "[";
                    write_json_number(out, m.buckets[i].first);
                    out << ", " << m.buckets[i].second << "]";
                }
                out << "]";
                break;
        }
        out << "}";
    }
    out << "\n  ]\n}\n";
}

void Registry::write_prometheus(std::ostream &out) const {
    const std::vector<MetricSnapshot> metrics = snapshot();
    for (const MetricSnapshot &m : metrics) {
        const std::string name = prometheus_name(m.name);
        switch (m.kind) {
            case MetricSnapshot::Kind::Counter:
                out << "# TYPE " << name << " counter\n";
                out << name << " ";
                write_json_number(out, m.value);
                out << "\n";
                break;
            case MetricSnapshot::Kind::Gauge:
                out << "# TYPE " << name << " gauge\n";
                out << name << " ";
                write_json_number(out, m.value);
                out << "\n";
                break;
            case MetricSnapshot::Kind::Histogram: {
                out << "# TYPE " << name << " histogram\n";
                uint64_t cumulative = 0;
                for (const auto &[le, c] : m.buckets) {
                    if (!std::isfinite(le)) {
                        continue;  // the closing +Inf bucket covers it
                    }
                    cumulative += c;
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "%.17g", le);
                    out << name << "_bucket{le=\"" << buf << "\"} "
                        << cumulative << "\n";
                }
                out << name << "_bucket{le=\"+Inf\"} " << m.count << "\n";
                out << name << "_sum ";
                write_json_number(out, m.sum);
                out << "\n" << name << "_count " << m.count << "\n";
                break;
            }
        }
    }
}

void Registry::reset() {
    util::MutexLock lock(mutex_);
    for (const auto &e : entries_) {
        switch (e->kind) {
            case MetricSnapshot::Kind::Counter: e->counter->reset(); break;
            case MetricSnapshot::Kind::Gauge: e->gauge->reset(); break;
            case MetricSnapshot::Kind::Histogram:
                e->histogram->reset();
                break;
        }
    }
}

}  // namespace xehe::obs
