// Minimal JSON parser — just enough for the tools and tests that consume
// the JSON this project emits (metrics JSON, Chrome traces, bench
// output). Recursive descent over the full value grammar; numbers are
// doubles (the emitters never exceed 2^53); no streaming, no comments.
// Header-only so tools can use it without a library dependency.
#pragma once

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dfamr::json {

class ParseError : public std::runtime_error {
public:
    explicit ParseError(const std::string& what) : std::runtime_error("json: " + what) {}
};

/// Deepest array/object nesting parse() accepts. The project's emitters
/// nest at most 5 levels; the cap turns hostile input (a megabyte of '[')
/// into a ParseError instead of a stack overflow in the recursion.
inline constexpr int kMaxDepth = 256;

class Value {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;
    explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    explicit Value(double d) : kind_(Kind::Number), num_(d) {}
    explicit Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::Null; }
    bool is_bool() const { return kind_ == Kind::Bool; }
    bool is_number() const { return kind_ == Kind::Number; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_array() const { return kind_ == Kind::Array; }
    bool is_object() const { return kind_ == Kind::Object; }

    bool as_bool() const {
        require(Kind::Bool, "bool");
        return bool_;
    }
    double as_double() const {
        require(Kind::Number, "number");
        return num_;
    }
    std::int64_t as_int() const { return static_cast<std::int64_t>(std::llround(as_double())); }
    const std::string& as_string() const {
        require(Kind::String, "string");
        return str_;
    }
    const std::vector<Value>& items() const {
        require(Kind::Array, "array");
        return arr_;
    }
    const std::map<std::string, Value>& members() const {
        require(Kind::Object, "object");
        return obj_;
    }

    std::size_t size() const { return is_array() ? arr_.size() : members().size(); }
    bool contains(const std::string& key) const { return members().count(key) != 0; }
    const Value& at(const std::string& key) const {
        const auto it = members().find(key);
        if (it == obj_.end()) throw ParseError("missing key '" + key + "'");
        return it->second;
    }
    const Value& at(std::size_t i) const {
        if (i >= items().size()) throw ParseError("array index out of range");
        return arr_[i];
    }

    static Value array(std::vector<Value> items) {
        Value v;
        v.kind_ = Kind::Array;
        v.arr_ = std::move(items);
        return v;
    }
    static Value object(std::map<std::string, Value> members) {
        Value v;
        v.kind_ = Kind::Object;
        v.obj_ = std::move(members);
        return v;
    }

private:
    void require(Kind k, const char* name) const {
        if (kind_ != k) throw ParseError(std::string("value is not a ") + name);
    }

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::map<std::string, Value> obj_;
};

namespace detail {

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    Value parse() {
        Value v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters after value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& msg) const {
        throw ParseError(msg + " at offset " + std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        const std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    Value value() {
        switch (peek()) {
            case '{':
            case '[': {
                if (++depth_ > kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kMaxDepth));
                }
                Value v = s_[pos_] == '{' ? object() : array();
                --depth_;
                return v;
            }
            case '"': return Value(string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return Value(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return Value(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return Value();
            default: return number();
        }
    }

    Value object() {
        expect('{');
        std::map<std::string, Value> members;
        if (peek() == '}') {
            ++pos_;
            return Value::object(std::move(members));
        }
        while (true) {
            if (peek() != '"') fail("expected object key");
            std::string key = string();
            expect(':');
            members[std::move(key)] = value();
            const char c = peek();
            ++pos_;
            if (c == '}') return Value::object(std::move(members));
            if (c != ',') fail("expected ',' or '}'");
        }
    }

    Value array() {
        expect('[');
        std::vector<Value> items;
        if (peek() == ']') {
            ++pos_;
            return Value::array(std::move(items));
        }
        while (true) {
            items.push_back(value());
            const char c = peek();
            ++pos_;
            if (c == ']') return Value::array(std::move(items));
            if (c != ',') fail("expected ',' or ']'");
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size()) fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else fail("bad hex digit in \\u escape");
                    }
                    // UTF-8 encode (surrogate pairs unsupported: the project's
                    // emitters write ASCII only).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Value number() {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a value");
        char* end = nullptr;
        const std::string tok = s_.substr(start, pos_ - start);
        const double d = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0') fail("malformed number '" + tok + "'");
        return Value(d);
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace detail

inline Value parse(const std::string& text) { return detail::Parser(text).parse(); }

}  // namespace dfamr::json
