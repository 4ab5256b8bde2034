#include "obs/trace_export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/json.h"
#include "obs/trace.h"

namespace xehe::obs {

namespace {

void write_us(std::ostream &out, double ns) {
    // Trace-event timestamps are microseconds; keep ns resolution with
    // three decimals.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", ns / 1000.0);
    out << buf;
}

int pid_for(Clock clock) { return clock == Clock::Sim ? 1 : 2; }

}  // namespace

void write_chrome_trace(std::ostream &out,
                        const std::vector<SpanRecord> &spans) {
    out << "{\"traceEvents\": [\n";
    // Name the two clock-domain "processes" so Perfetto labels them.
    out << "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"simulated device\"}},\n";
    out << "  {\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"host\"}}";
    for (const SpanRecord &span : spans) {
        out << ",\n  {\"ph\": \"X\", \"name\": ";
        write_json_string(out, span.name);
        out << ", \"cat\": \"" << category_name(span.category) << "\"";
        out << ", \"pid\": " << pid_for(span.clock);
        out << ", \"tid\": " << span.track;
        out << ", \"ts\": ";
        write_us(out, span.start_ns);
        out << ", \"dur\": ";
        write_us(out, span.end_ns >= span.start_ns
                          ? span.end_ns - span.start_ns
                          : 0.0);
        out << ", \"args\": {\"span\": " << span.id
            << ", \"parent\": " << span.parent
            << ", \"request\": " << span.request
            << ", \"session\": " << span.session
            << ", \"shard\": " << span.shard;
        if (!span.detail.empty()) {
            out << ", \"detail\": ";
            write_json_string(out, span.detail);
        }
        out << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ns\"}\n";
}

void write_chrome_trace(std::ostream &out) {
    write_chrome_trace(out, TraceRecorder::instance().snapshot());
}

bool write_chrome_trace(const std::string &path) {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    write_chrome_trace(out);
    return out.good();
}

std::string chrome_trace_to_string() {
    std::ostringstream out;
    write_chrome_trace(out);
    return out.str();
}

std::string check_chrome_trace(const std::string &json_text) {
    struct Window {
        double ts = 0.0;
        double dur = 0.0;
        int pid = 0;
        uint64_t parent = 0;
        std::string name;
    };

    try {
        const JsonValue doc = parse_json(json_text);
        if (!doc.is_object()) {
            return "top-level value is not an object";
        }
        const JsonValue *events = doc.find("traceEvents");
        if (events == nullptr || !events->is_array()) {
            return "missing traceEvents array";
        }

        std::unordered_map<uint64_t, Window> spans;
        std::size_t x_events = 0;
        for (const JsonValue &event : events->as_array()) {
            const JsonValue *ph = event.find("ph");
            if (ph == nullptr || !ph->is_string()) {
                return "event without a ph field";
            }
            if (ph->as_string() != "X") {
                continue;  // metadata events carry no span
            }
            ++x_events;
            const JsonValue *name = event.find("name");
            const JsonValue *pid = event.find("pid");
            const JsonValue *tid = event.find("tid");
            const JsonValue *ts = event.find("ts");
            const JsonValue *dur = event.find("dur");
            const JsonValue *args = event.find("args");
            if (name == nullptr || !name->is_string()) {
                return "X event without a name";
            }
            if (pid == nullptr || !pid->is_number() || tid == nullptr ||
                !tid->is_number()) {
                return "X event '" + name->as_string() +
                       "' missing pid/tid";
            }
            if (ts == nullptr || !ts->is_number() || dur == nullptr ||
                !dur->is_number()) {
                return "X event '" + name->as_string() + "' missing ts/dur";
            }
            if (dur->as_number() < 0.0) {
                return "X event '" + name->as_string() +
                       "' has negative duration";
            }
            if (args == nullptr || !args->is_object()) {
                return "X event '" + name->as_string() + "' missing args";
            }
            const JsonValue *span = args->find("span");
            const JsonValue *parent = args->find("parent");
            if (span == nullptr || !span->is_number() || parent == nullptr ||
                !parent->is_number()) {
                return "X event '" + name->as_string() +
                       "' missing args.span/args.parent";
            }
            const auto id = static_cast<uint64_t>(span->as_number());
            if (id == 0) {
                return "X event '" + name->as_string() + "' has span id 0";
            }
            Window w;
            w.ts = ts->as_number();
            w.dur = dur->as_number();
            w.pid = static_cast<int>(pid->as_number());
            w.parent = static_cast<uint64_t>(parent->as_number());
            w.name = name->as_string();
            if (!spans.emplace(id, std::move(w)).second) {
                return "duplicate span id " + std::to_string(id);
            }
        }
        if (x_events == 0) {
            return "no X events in trace";
        }

        for (const auto &[id, w] : spans) {
            if (w.parent == 0) {
                continue;
            }
            const auto it = spans.find(w.parent);
            if (it == spans.end()) {
                return "span '" + w.name + "' (" + std::to_string(id) +
                       ") has orphan parent " + std::to_string(w.parent);
            }
            const Window &p = it->second;
            if (p.pid != w.pid) {
                continue;  // clock domains share no origin
            }
            // Same-clock children must sit inside the parent's window
            // (tolerance covers the 3-decimal microsecond rounding).
            const double eps = 2e-3 + 1e-9 * (p.ts + p.dur);
            if (w.ts < p.ts - eps || w.ts + w.dur > p.ts + p.dur + eps) {
                return "span '" + w.name + "' (" + std::to_string(id) +
                       ") escapes parent '" + p.name + "' window";
            }
        }
        return {};
    } catch (const JsonError &err) {
        return err.what();
    }
}

}  // namespace xehe::obs
