#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

namespace xehe::obs {

void write_json_string(std::ostream &out, const std::string &s) {
    out << '"';
    for (const char c : s) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            case '\r': out << "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out << buf;
                } else {
                    out << c;
                }
        }
    }
    out << '"';
}

bool JsonValue::as_bool() const {
    if (type_ != Type::Bool) {
        throw JsonError("json: value is not a boolean");
    }
    return bool_;
}

double JsonValue::as_number() const {
    if (type_ != Type::Number) {
        throw JsonError("json: value is not a number");
    }
    return number_;
}

const std::string &JsonValue::as_string() const {
    if (type_ != Type::String) {
        throw JsonError("json: value is not a string");
    }
    return string_;
}

const std::vector<JsonValue> &JsonValue::as_array() const {
    if (type_ != Type::Array) {
        throw JsonError("json: value is not an array");
    }
    return array_;
}

const JsonValue *JsonValue::find(const std::string &key) const {
    if (type_ != Type::Object) {
        return nullptr;
    }
    auto it = object_.find(key);
    return it != object_.end() ? &it->second : nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
    JsonValue v(Type::Bool);
    v.bool_ = b;
    return v;
}

JsonValue JsonValue::make_number(double n) {
    JsonValue v(Type::Number);
    v.number_ = n;
    return v;
}

JsonValue JsonValue::make_string(std::string s) {
    JsonValue v(Type::String);
    v.string_ = std::move(s);
    return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> a) {
    JsonValue v(Type::Array);
    v.array_ = std::move(a);
    return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> o) {
    JsonValue v(Type::Object);
    v.object_ = std::move(o);
    return v;
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing bytes after document");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const char *what) const {
        throw JsonError("json: " + std::string(what) + " at byte " +
                        std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail("unexpected character");
        }
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return JsonValue::make_string(parse_string());
            case 't':
                if (!consume_literal("true")) {
                    fail("bad literal");
                }
                return JsonValue::make_bool(true);
            case 'f':
                if (!consume_literal("false")) {
                    fail("bad literal");
                }
                return JsonValue::make_bool(false);
            case 'n':
                if (!consume_literal("null")) {
                    fail("bad literal");
                }
                return JsonValue::make_null();
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        std::map<std::string, JsonValue> members;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return JsonValue::make_object(std::move(members));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            members.insert_or_assign(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue::make_object(std::move(members));
        }
    }

    JsonValue parse_array() {
        expect('[');
        std::vector<JsonValue> items;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return JsonValue::make_array(std::move(items));
        }
        while (true) {
            items.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue::make_array(std::move(items));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("short \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("bad \\u escape");
                        }
                    }
                    // UTF-8 encode the BMP code point (the exports only
                    // escape control characters, all < 0x80).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("expected a number");
        }
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            fail("malformed number");
        }
        return JsonValue::make_number(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
    return Parser(text).parse_document();
}

}  // namespace xehe::obs
