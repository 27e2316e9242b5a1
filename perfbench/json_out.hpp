// Minimal one-line JSON object writer for the sampler's output.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonObject {
public:
    void num(const std::string& key, double v) {
        char buf[32];
        // %.17g round-trips every double; JSON has no NaN or infinity.
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        raw(key, buf);
    }
    void integer(const std::string& key, std::int64_t v) { raw(key, std::to_string(v)); }
    void boolean(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
    void str(const std::string& key, const std::string& v) { raw(key, quote(v)); }
    /// Doubles as exact hex-float strings (float.fromhex in Python), so
    /// bit-identity survives the round trip.
    void hex_list(const std::string& key, const std::vector<double>& vs) {
        std::string s = "[";
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "\"%a\"", vs[i]);
            s += (i > 0 ? "," : "") + std::string(buf);
        }
        raw(key, s + "]");
    }
    void obj(const std::string& key, const JsonObject& o) { raw(key, o.text()); }

    std::string text() const { return "{" + body_ + "}"; }

private:
    void raw(const std::string& key, const std::string& value) {
        if (!body_.empty()) body_ += ",";
        body_ += quote(key) + ":" + value;
    }
    static std::string quote(const std::string& s) {
        std::string q = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                q += ' ';
            } else {
                q += c;
            }
        }
        return q + "\"";
    }

    std::string body_;
};

}  // namespace perfbench
