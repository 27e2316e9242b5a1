// Block storage for one run: fixed-size cell buffers carved from 2 MiB-
// aligned anonymous slabs advised MADV_HUGEPAGE, recycled LIFO, and always
// handed out zeroed (DESIGN.md §4).
//
// miniAMR preallocates its block array (--max_blocks); the arena is the
// same idea without a fixed limit. Refinement frees split parents, merged
// children and moved-out blocks and allocates their replacements in the
// same phase, so after the first refinement most acquisitions are a pop
// off the free list instead of a fresh mapping that page-faults on first
// touch. One arena serves every rank of a run (core::run_variant), so a
// block moved between ranks frees a buffer the receiving rank can reuse.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace dfamr::amr {

class BlockArena {
public:
    /// Buffers of `doubles` doubles each (> 0).
    explicit BlockArena(std::size_t doubles);
    /// Unmaps every slab. Blocks hold a shared_ptr to their arena, so no
    /// buffer outlives it.
    ~BlockArena();
    BlockArena(const BlockArena&) = delete;
    BlockArena& operator=(const BlockArena&) = delete;

    std::size_t buffer_doubles() const { return doubles_; }

    /// A zeroed buffer of buffer_doubles() doubles: the most recently
    /// released one, cleared here; else a never-used one of the newest
    /// slab, left untouched so that its first touch happens in whichever
    /// thread fills it; else the first buffer of a newly mapped slab.
    /// Thread-safe.
    double* acquire();
    /// Returns a buffer from acquire() to the free list. Thread-safe; never
    /// allocates or throws. Under AddressSanitizer the buffer stays
    /// poisoned until it is acquired again, so a read through a freed
    /// block is still reported.
    void release(double* buffer) noexcept;

    /// Slabs mapped so far.
    std::size_t slabs() const;
    /// Buffers on the free list.
    std::size_t free_buffers() const;
    /// Buffers acquired and not yet released, and the most there ever were
    /// at once: the run's block footprint, in buffers.
    std::size_t live_buffers() const;
    std::size_t high_water() const;

private:
    void map_slab();  // caller holds mutex_

    std::size_t doubles_;
    std::size_t stride_;      // bytes from one buffer to the next
    std::size_t slab_bytes_;  // a multiple of 2 MiB
    mutable std::mutex mutex_;
    std::vector<std::byte*> slabs_;
    std::byte* fresh_ = nullptr;      // next never-used buffer of the newest slab
    std::byte* fresh_end_ = nullptr;  // end of the newest slab's buffers
    /// LIFO free list; its capacity covers every carved buffer, so release
    /// never reallocates.
    std::vector<double*> free_;
    std::size_t live_ = 0;
    std::size_t high_water_ = 0;
};

}  // namespace dfamr::amr
