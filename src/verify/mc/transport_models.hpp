// Model checker for the shared-memory transport's SPSC byte ring
// (src/net/shm_ring), run on the breadth-first explorer of
// state_space.hpp like the frame model of protocol.hpp. Coalescing is not
// modelled here: it is the frame model's merge action (batch_cap).
//
// check_shm_ring(): one producer streams a fixed frame workload (including a frame LARGER than
// the ring) through a byte ring of small capacity; the consumer drains it
// frame by frame. Write and read actions move either 1 byte or the
// maximal legal amount, so every partial-progress interleaving is
// reachable. Proved under every FaultKind:
//   - bounded fill: 0 <= fill <= capacity in every reachable state
//     (the producer never overwrites unread bytes);
//   - complete in-order delivery: every final state delivered all
//     frames, byte-exact and in send order (a byte stream cannot
//     reorder — Reorder adds no actions and the run documents that);
//   - deadlock-freedom: in particular the larger-than-ring frame
//     streams through instead of wedging producer and consumer.
// Drop models FaultPlan's pre-wire message drop with sender retry;
// Delay (a paused thread) is subsumed by plain interleaving; Stall
// gates the consumer like the frame model's delivery gate.
#pragma once

#include <vector>

#include "verify/mc/protocol.hpp"

namespace dfamr::verify::mc {

struct ShmRingOptions {
    FaultKind fault = FaultKind::None;
    int capacity = 3;
    /// Frame payload sizes in ring bytes, in send order. The default
    /// includes a frame larger than the ring: it must stream through.
    std::vector<int> frame_sizes{2, 4, 1};
    int max_extra_drops = 1;
};

/// Exhaustively explores the producer/consumer ring model under `opts`.
ModelResult check_shm_ring(const ShmRingOptions& opts);

}  // namespace dfamr::verify::mc
