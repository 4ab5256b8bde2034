// Minimal JSON support for the observability exports: the one string
// writer both exports use, and a reader with just enough of RFC 8259 to
// parse what obs::write_chrome_trace and obs::Registry::write_json emit
// (objects, arrays, strings with escapes, numbers, booleans, null), so
// the trace self-check, the roundtrip example's smoke assertion and the
// span-tree tests can all validate real exported bytes without an
// external dependency.  The reader throws JsonError with a byte offset on
// malformed input.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace xehe::obs {

class JsonError : public std::runtime_error {
public:
    explicit JsonError(const std::string &what) : std::runtime_error(what) {}
};

/// Parsed JSON value.  Object keys keep map order (sorted), which is fine
/// for validation — nothing here depends on member order.
class JsonValue {
public:
    enum class Type : uint8_t { Null, Bool, Number, String, Array, Object };

    Type type() const noexcept { return type_; }
    bool is_object() const noexcept { return type_ == Type::Object; }
    bool is_array() const noexcept { return type_ == Type::Array; }
    bool is_number() const noexcept { return type_ == Type::Number; }
    bool is_string() const noexcept { return type_ == Type::String; }

    /// Typed accessors; throw JsonError on a type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string &as_string() const;
    const std::vector<JsonValue> &as_array() const;

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue *find(const std::string &key) const;

    // Construction is internal to the parser.
    static JsonValue make_null() { return JsonValue(Type::Null); }
    static JsonValue make_bool(bool b);
    static JsonValue make_number(double n);
    static JsonValue make_string(std::string s);
    static JsonValue make_array(std::vector<JsonValue> a);
    static JsonValue make_object(std::map<std::string, JsonValue> o);

private:
    explicit JsonValue(Type type) : type_(type) {}

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
void write_json_string(std::ostream &out, const std::string &s);

/// Parses one JSON document (trailing non-whitespace is an error).
JsonValue parse_json(std::string_view text);

}  // namespace xehe::obs
