// Little-endian fixed-width binary codec helpers, shared by every layer
// that speaks a byte format (checkpoint images, the serve request
// protocol). Writer appends to a growable byte vector; Reader consumes a
// non-owning view and throws dfamr::Error on underflow, so truncated input
// can never read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dfamr::bytes {

struct Writer {
    std::vector<std::byte> bytes;

    void raw(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        bytes.insert(bytes.end(), b, b + n);
    }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i32(std::int32_t v) { raw(&v, sizeof v); }
    void i64(std::int64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    /// Length-prefixed (u32) string.
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

struct Reader {
    const std::byte* p = nullptr;
    std::size_t left = 0;

    Reader() = default;
    Reader(const std::byte* data, std::size_t n) : p(data), left(n) {}
    explicit Reader(std::span<const std::byte> in) : p(in.data()), left(in.size()) {}

    void raw(void* out, std::size_t n) {
        DFAMR_REQUIRE(n <= left, "codec: truncated input");
        std::memcpy(out, p, n);
        p += n;
        left -= n;
    }
    std::uint32_t u32() {
        std::uint32_t v;
        raw(&v, sizeof v);
        return v;
    }
    std::uint64_t u64() {
        std::uint64_t v;
        raw(&v, sizeof v);
        return v;
    }
    std::int32_t i32() {
        std::int32_t v;
        raw(&v, sizeof v);
        return v;
    }
    std::int64_t i64() {
        std::int64_t v;
        raw(&v, sizeof v);
        return v;
    }
    double f64() {
        double v;
        raw(&v, sizeof v);
        return v;
    }
    /// Checks an untrusted element count against the input left, at
    /// `each` (> 0) bytes per element at least, before anything is sized
    /// from it.
    std::size_t fits(std::uint64_t n, std::size_t each) const {
        DFAMR_REQUIRE(n <= left / each, "codec: element count exceeds the input left");
        return static_cast<std::size_t>(n);
    }
    std::string str() {
        const std::uint32_t n = u32();
        DFAMR_REQUIRE(n <= left, "codec: truncated string");
        std::string s(reinterpret_cast<const char*>(p), n);
        p += n;
        left -= n;
        return s;
    }
};

}  // namespace dfamr::bytes
