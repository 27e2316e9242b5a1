#include "tasking/node_pool.hpp"

#include <mutex>

namespace dfamr::tasking {

NodePool::NodePool(std::size_t slot_bytes)
    : slot_bytes_((slot_bytes + kSlotAlign - 1) / kSlotAlign * kSlotAlign) {}

void* NodePool::take() {
    std::lock_guard lock(shared_lock_);
    if (shared_ == nullptr) {
        // Acquire pairs with every give()'s release push: the detached
        // slots' links are visible.
        shared_ = returned_.exchange(nullptr, std::memory_order_acquire);
    }
    if (shared_ == nullptr) carve_locked();
    Slot* s = shared_;
    shared_ = s->next;
    return s;
}

void NodePool::give(void* slot) noexcept {
    auto* s = static_cast<Slot*>(slot);
    s->next = returned_.load(std::memory_order_relaxed);
    while (!returned_.compare_exchange_weak(s->next, s, std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
}

void NodePool::carve_locked() {
    // new[] of std::byte aligns to __STDCPP_DEFAULT_NEW_ALIGNMENT__.
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kSlotAlign);
    auto slab = std::make_unique_for_overwrite<std::byte[]>(slot_bytes_ * kSlabSlots);
    std::byte* base = slab.get();
    slabs_.push_back(std::move(slab));
    for (std::size_t i = kSlabSlots; i-- > 0;) {
        auto* s = reinterpret_cast<Slot*>(base + i * slot_bytes_);
        s->next = shared_;
        shared_ = s;
    }
}

}  // namespace dfamr::tasking
