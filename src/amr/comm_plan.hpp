// Per-rank ghost-exchange plan, recomputed whenever the mesh structure
// changes. Mirrors miniAMR's `comm` tables.
//
// Exchanges are organized per direction (x, y, z — processed sequentially in
// the reference code because they share communication buffers; the paper's
// --separate_buffers option gives each direction its own buffers instead).
// Within a direction a rank has, per remote neighbor rank, an ordered list
// of face transfers; both sides derive the identical list (and therefore
// identical buffer offsets and MPI tags) from the replicated structure.
//
// Message granularity (paper §IV-A):
//  * default            — all faces for (direction, neighbor) in ONE message
//  * --send_faces       — one message per face
//  * --max_comm_tasks N — with --send_faces, at most N messages per
//                         (direction, neighbor): faces are grouped into N
//                         contiguous chunks of the face list
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "amr/block.hpp"
#include "amr/structure.hpp"
#include "common/error.hpp"

namespace dfamr::amr {

/// One intra-rank ghost fill: dst's ghost layer gets src's boundary data.
struct IntraCopy {
    BlockKey dst;
    BlockKey src;
    FaceGeom geom;  // relative to dst
};

/// One face within an inter-rank message stream.
struct FaceTransfer {
    BlockKey mine;    // my block
    BlockKey theirs;  // remote block
    FaceGeom geom;    // relative to my block (pack: receiver rel; unpack: sender rel)
    std::int64_t value_offset = 0;  // offset (in doubles, per variable group) in the
                                    // direction's send/recv stream for this neighbor
    std::int64_t value_count = 0;   // doubles per variable group
};

/// A contiguous chunk of the face list that travels as one MPI message
/// (the unit that becomes one communication task in the paper's approach).
struct MessageChunk {
    int first_face = 0;  // index range into FaceTransfer list
    int face_count = 0;
    std::int64_t value_offset = 0;  // offset of the chunk in the stream
    std::int64_t value_count = 0;
    int tag = 0;
};

/// All traffic between this rank and one neighbor rank in one direction.
struct NeighborExchange {
    int peer = -1;
    std::vector<FaceTransfer> sends;  // ordered; offsets into the send stream
    std::vector<FaceTransfer> recvs;  // ordered; offsets into the recv stream
    std::vector<MessageChunk> send_chunks;
    std::vector<MessageChunk> recv_chunks;
    std::int64_t send_values = 0;  // total doubles per variable group
    std::int64_t recv_values = 0;
};

/// One direction's plan for a rank.
struct DirectionPlan {
    std::vector<IntraCopy> copies;
    std::vector<NeighborExchange> neighbors;  // ordered by peer rank
    /// Faces of owned blocks on the physical domain boundary (ghosts filled
    /// by reflection).
    std::vector<std::pair<BlockKey, int>> boundary;  // (block, sense)
};

/// MPI tag-space partitioning (§IV-A): one sub-space per direction so
/// communication tasks of different directions can run concurrently.
inline constexpr int kTagSpacePerDirection = 1 << 20;
inline int direction_tag(int direction, int id) {
    return direction * kTagSpacePerDirection + id;
}
/// Tag sub-space used by the refinement/load-balance block exchange.
inline constexpr int kExchangeTagBase = 3 * kTagSpacePerDirection;
/// A block's data message is tagged kBlockDataTagBase + its move's id.
inline constexpr int kBlockDataTagBase = kExchangeTagBase + 16;
/// Tag sub-spaces (one per direction) used by the coarse-fine flux-register
/// exchange — disjoint from both the ghost directions (0..2) and the
/// exchange-control space so reflux traffic can overlap either.
inline constexpr int kFluxTagBase = 4 * kTagSpacePerDirection;
inline int flux_tag(int direction, int id) {
    return kFluxTagBase + direction * kTagSpacePerDirection + id;
}

struct CommPlanOptions {
    bool send_faces = false;
    int max_comm_tasks = 0;  // 0 = one message per face (with send_faces)
};

/// Builds rank `rank`'s plan from the replicated structure. Both endpoints
/// of every exchange compute identical face orders, chunking, and tags.
class CommPlan {
public:
    CommPlan() = default;
    /// `shape` supplies face sizes; value counts/offsets are per single
    /// variable (callers scale by the variable-group size).
    CommPlan(const GlobalStructure& structure, const BlockShape& shape, int rank,
             const CommPlanOptions& options);
    /// Same, with the rank's (sorted) block list already known — avoids the
    /// O(total blocks) ownership scan when plans for many ranks are built
    /// (the simulator builds all of them).
    CommPlan(const GlobalStructure& structure, const BlockShape& shape, int rank,
             const CommPlanOptions& options, std::span<const BlockKey> mine);

    const DirectionPlan& direction(int d) const { return directions_[static_cast<std::size_t>(d)]; }
    int rank() const { return rank_; }

    /// Total inter-rank messages this rank sends per variable group.
    std::int64_t total_send_messages() const;
    std::int64_t total_send_values() const;

private:
    int rank_ = -1;
    std::array<DirectionPlan, 3> directions_;
};

/// The coarse-fine subset of the ghost plan, reused for the flux-register
/// exchange (Berger–Colella refluxing). Derived from a CommPlan by
/// filtering: flux sends are the ghost sends whose receiver is coarser
/// (I own the fine side and ship restricted registers), flux recvs are the
/// ghost recvs whose sender is finer (I own the coarse side and reflux),
/// and intra-rank copies are the ghost copies whose source is finer.
/// Filtering a TransferOrder-sorted list preserves its order, so the two
/// endpoints' streams still pair element-wise. Flux traffic always travels
/// as one message per (direction, neighbor) — the streams are a fraction
/// of a ghost plane, below any sensible --send_faces granularity.
struct FluxPlan {
    struct Direction {
        std::vector<IntraCopy> copies;            // dst = my coarse block (rel == Finer)
        std::vector<NeighborExchange> neighbors;  // level-crossing faces only
    };
    std::array<Direction, 3> directions;

    const Direction& direction(int d) const { return directions[static_cast<std::size_t>(d)]; }
};

FluxPlan build_flux_plan(const CommPlan& plan, const BlockShape& shape);

/// Walks a direction's same-rank items by destination block: calls
/// fn(dst, dst_copies, dst_boundary) once per block that receives an
/// intra-rank copy or a boundary reflection, in key order, with the runs of
/// `copies` whose dst is that block and of `boundary` whose block it is.
/// CommPlan appends both lists in owned-key order and build_flux_plan's
/// filter keeps it (pass no boundary faces for a flux plan); the walk
/// asserts that order.
template <class Fn>
void for_each_destination(std::span<const IntraCopy> copies,
                          std::span<const std::pair<BlockKey, int>> boundary, Fn&& fn) {
    std::size_t c = 0, b = 0;
    while (c < copies.size() || b < boundary.size()) {
        const bool copy_first =
            b == boundary.size() || (c < copies.size() && copies[c].dst <= boundary[b].first);
        const BlockKey dst = copy_first ? copies[c].dst : boundary[b].first;
        std::size_t c_end = c, b_end = b;
        while (c_end < copies.size() && copies[c_end].dst == dst) ++c_end;
        while (b_end < boundary.size() && boundary[b_end].first == dst) ++b_end;
        DFAMR_ASSERT(c_end == copies.size() || dst < copies[c_end].dst);
        DFAMR_ASSERT(b_end == boundary.size() || dst < boundary[b_end].first);
        fn(dst, copies.subspan(c, c_end - c), boundary.subspan(b, b_end - b));
        c = c_end;
        b = b_end;
    }
}

}  // namespace dfamr::amr
