#include "amr/block_arena.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DFAMR_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DFAMR_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DFAMR_POISON(p, n) ((void)(p), (void)(n))
#define DFAMR_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dfamr::amr {

namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kCacheLine = 64;
/// Buffers per slab before rounding the slab up to whole huge pages.
constexpr std::size_t kBuffersPerSlab = 16;

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

}  // namespace

BlockArena::BlockArena(std::size_t doubles)
    : doubles_(doubles),
      stride_(round_up(doubles * sizeof(double), kCacheLine)),
      slab_bytes_(round_up(kBuffersPerSlab * stride_, kHugePage)) {
    DFAMR_REQUIRE(doubles > 0, "block arena buffers must hold at least one value");
}

BlockArena::~BlockArena() {
    for (std::byte* slab : slabs_) {
        // Released buffers are poisoned; clear that before the range can
        // be mapped again by someone else.
        DFAMR_UNPOISON(slab, slab_bytes_);
        ::munmap(slab, slab_bytes_);
    }
}

void BlockArena::map_slab() {
    const std::size_t per_slab = slab_bytes_ / stride_;
    slabs_.reserve(slabs_.size() + 1);
    free_.reserve((slabs_.size() + 1) * per_slab);
    // Over-map by one huge page and trim to a 2 MiB-aligned range, so the
    // kernel can back the whole slab with huge pages.
    const std::size_t span = slab_bytes_ + kHugePage;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    auto* base = static_cast<std::byte*>(raw);
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    const std::size_t head = round_up(addr, kHugePage) - addr;
    if (head > 0) ::munmap(base, head);
    std::byte* slab = base + head;
    ::munmap(slab + slab_bytes_, kHugePage - head);
    // Advice only: it fails harmlessly where THP is compiled out, and is a
    // no-op where it is set to "never".
    ::madvise(slab, slab_bytes_, MADV_HUGEPAGE);
    slabs_.push_back(slab);
    fresh_ = slab;
    fresh_end_ = slab + per_slab * stride_;
}

double* BlockArena::acquire() {
    const std::size_t bytes = doubles_ * sizeof(double);
    double* p = nullptr;
    {
        std::lock_guard lock(mutex_);
        high_water_ = std::max(high_water_, ++live_);
        if (free_.empty()) {
            if (fresh_ == fresh_end_) map_slab();
            p = reinterpret_cast<double*>(fresh_);
            fresh_ += stride_;
            return p;  // never touched: the kernel's zero page
        }
        p = free_.back();
        free_.pop_back();
    }
    DFAMR_UNPOISON(p, bytes);
    std::memset(p, 0, bytes);
    return p;
}

void BlockArena::release(double* buffer) noexcept {
    DFAMR_POISON(buffer, doubles_ * sizeof(double));
    std::lock_guard lock(mutex_);
    free_.push_back(buffer);
    --live_;
}

std::size_t BlockArena::slabs() const {
    std::lock_guard lock(mutex_);
    return slabs_.size();
}

std::size_t BlockArena::free_buffers() const {
    std::lock_guard lock(mutex_);
    return free_.size();
}

std::size_t BlockArena::live_buffers() const {
    std::lock_guard lock(mutex_);
    return live_;
}

std::size_t BlockArena::high_water() const {
    std::lock_guard lock(mutex_);
    return high_water_;
}

}  // namespace dfamr::amr
