// Fixed-size slots for the tasking runtime's task nodes (a Task and its
// shared_ptr control block, allocated together by std::allocate_shared).
//
// Any thread may free a node: a worker completing a task, the TAMPI
// progress engine fulfilling its last event, the submitting thread whose
// registration supersedes a completed writer. Any submitting thread takes
// one: the rank's thread, and workers submitting nested tasks. So:
//  * every free goes to a lock-free return list (a push-only stack: nothing
//    is ever popped from it one slot at a time, so there is no ABA);
//  * a taker pops from the shared free list under a spinlock, refilling it
//    by detaching the whole return list in one exchange, or else by carving
//    a new slab.
// Slabs are never returned before the pool dies, so the pool holds the
// most nodes that were ever live at once (like a malloc arena would).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/threading.hpp"

namespace dfamr::tasking {

class NodePool {
public:
    static constexpr std::size_t kSlabSlots = 128;
    static constexpr std::size_t kSlotAlign = alignof(void*);

    explicit NodePool(std::size_t slot_bytes);

    NodePool(const NodePool&) = delete;
    NodePool& operator=(const NodePool&) = delete;

    /// A free slot of the size the pool was made with, for any thread.
    void* take();
    /// Gives back a slot of this pool, from any thread.
    void give(void* slot) noexcept;

private:
    struct Slot {
        Slot* next;
    };

    void carve_locked();

    const std::size_t slot_bytes_;
    alignas(64) std::atomic<Slot*> returned_{nullptr};
    // A leaf lock (nothing else is taken under it), so it is not a lockdep
    // class.
    alignas(64) SpinLock shared_lock_;
    Slot* shared_ = nullptr;
    std::vector<std::unique_ptr<std::byte[]>> slabs_;
};

}  // namespace dfamr::tasking
