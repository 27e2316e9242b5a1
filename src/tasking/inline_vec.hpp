// A vector of trivially copyable elements whose first N live inside the
// object; it spills to one heap array beyond that. The tasking runtime keeps
// a task's accesses and its successor list in these, so the common task (a
// few of each) costs no allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

namespace dfamr::tasking {

template <typename T, std::uint32_t N>
class InlineVec {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
    static_assert(N > 0);

public:
    InlineVec() noexcept {}
    InlineVec(const InlineVec&) = delete;
    InlineVec& operator=(const InlineVec&) = delete;
    ~InlineVec() { release_heap(); }

    T* data() noexcept { return spilled() ? heap_ : inline_data(); }
    const T* data() const noexcept { return spilled() ? heap_ : inline_data(); }
    std::size_t size() const noexcept { return size_; }
    T* begin() noexcept { return data(); }
    T* end() noexcept { return data() + size_; }
    const T* begin() const noexcept { return data(); }
    const T* end() const noexcept { return data() + size_; }
    operator std::span<const T>() const noexcept { return {data(), size_}; }

    void push_back(T value) {
        if (size_ == cap_) grow(cap_ * 2);
        ::new (static_cast<void*>(data() + size_)) T(value);
        ++size_;
    }

    /// Replaces the contents with `values`.
    void assign(std::span<const T> values) {
        size_ = 0;
        if (values.size() > cap_) grow(static_cast<std::uint32_t>(values.size()));
        if (!values.empty()) {
            std::memcpy(static_cast<void*>(data()), values.data(), values.size_bytes());
        }
        size_ = static_cast<std::uint32_t>(values.size());
    }

    /// Empties the vector and returns a spilled array to the heap.
    void clear() noexcept {
        release_heap();
        size_ = 0;
    }

private:
    bool spilled() const noexcept { return cap_ > N; }
    // The byte array implicitly creates the elements that push_back and
    // memcpy store.
    T* inline_data() noexcept { return reinterpret_cast<T*>(inline_); }
    const T* inline_data() const noexcept { return reinterpret_cast<const T*>(inline_); }

    void grow(std::uint32_t cap) {
        T* bigger = static_cast<T*>(::operator new(sizeof(T) * cap));
        if (size_ > 0) std::memcpy(static_cast<void*>(bigger), data(), sizeof(T) * size_);
        release_heap();
        heap_ = bigger;
        cap_ = cap;
    }

    void release_heap() noexcept {
        if (spilled()) ::operator delete(heap_);
        cap_ = N;
    }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
    union {
        T* heap_;
        alignas(T) unsigned char inline_[sizeof(T) * N];
    };
};

}  // namespace dfamr::tasking
