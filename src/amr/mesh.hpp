// Per-rank mesh state: the blocks this rank owns (with cell data), plus the
// replicated global structure. Variant drivers (src/core) orchestrate
// communication and compute phases on top of these primitives.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "amr/block.hpp"
#include "amr/comm_plan.hpp"
#include "amr/config.hpp"
#include "amr/structure.hpp"

namespace dfamr::amr {

class Mesh {
public:
    /// A mesh whose blocks come from a private arena.
    Mesh(const Config& cfg, int rank);
    /// A mesh whose blocks come from `arena`, which the ranks of one run
    /// share (its buffers must fit the configured block shape).
    Mesh(const Config& cfg, int rank, std::shared_ptr<BlockArena> arena);

    const Config& config() const { return cfg_; }
    int rank() const { return rank_; }
    const BlockShape& shape() const { return shape_; }
    const std::shared_ptr<BlockArena>& arena() const { return arena_; }
    GlobalStructure& structure() { return structure_; }
    const GlobalStructure& structure() const { return structure_; }

    /// Allocates and initializes this rank's level-0 blocks.
    void init_blocks();

    bool owns(const BlockKey& key) const { return blocks_.count(key) != 0; }
    Block& block(const BlockKey& key);
    const Block& block(const BlockKey& key) const;
    std::size_t num_owned() const { return blocks_.size(); }
    /// Owned keys in deterministic (sorted) order.
    std::vector<BlockKey> owned_keys() const;

    /// Inserts an externally produced block (refinement/LB transfers).
    void adopt(std::unique_ptr<Block> b);
    /// Drops all owned blocks (checkpoint restore replaces them wholesale).
    void clear_blocks() { blocks_.clear(); }
    /// Removes a block and returns it (for transfers to another rank).
    std::unique_ptr<Block> release(const BlockKey& key);
    /// Creates a zeroed block from the mesh's arena (for receiving remote
    /// data, or for a refinement step to fill).
    std::unique_ptr<Block> make_block(const BlockKey& key) const;

    // --- local refinement data operations ---------------------------------
    /// Splits an owned block into its 8 children (2x replication per axis).
    /// The parent is removed; children become owned.
    void split_block(const BlockKey& parent);
    /// Merges 8 owned children into the parent (2x2x2 averaging).
    void merge_children(const BlockKey& parent);

    /// Sum over owned blocks of the variable range (local checksum half).
    double local_checksum(int var_begin, int var_end) const;

    /// Total FLOPs a full-mesh stencil sweep over one variable costs this
    /// rank (bookkeeping for throughput reports).
    std::int64_t flops_per_var_sweep() const;

private:
    Config cfg_;
    int rank_;
    BlockShape shape_;
    std::shared_ptr<BlockArena> arena_;
    GlobalStructure structure_;
    std::map<BlockKey, std::unique_ptr<Block>> blocks_;
};

/// Where one rank's staging streams of a plan (ghost or flux) lie, without
/// storage: per (direction, neighbour), the storage holding the stream, its
/// offset and its size, in doubles, from the plan's value counts scaled by
/// the widest variable group. The three directions share one storage pair
/// (the reference layout, whose aliasing creates false inter-direction
/// dependencies) or, with --separate_buffers, get one each (§IV-A).
/// Variable groups reuse the streams and tags, so same-tag messages must be
/// posted in group order: chunk k of every group starts at the same offset
/// and a narrower group packs inside it, so in the data-flow variant the
/// overlap orders them (DESIGN.md §5).
class StreamLayout {
public:
    struct Stream {
        int storage = 0;
        std::size_t offset = 0;
        std::size_t size = 0;
    };
    /// Values [first, first + count) of one stream.
    struct Range {
        std::size_t first = 0;
        std::size_t count = 0;
        std::span<double> of(std::span<double> s) const { return s.subspan(first, count); }
    };

    StreamLayout() = default;
    /// `plan` is a CommPlan or a FluxPlan; `group_vars` is the widest
    /// variable group.
    template <class Plan>
    StreamLayout(const Plan& plan, int group_vars, bool separate_buffers)
        : StreamLayout({plan.direction(0).neighbors, plan.direction(1).neighbors,
                        plan.direction(2).neighbors},
                       group_vars, separate_buffers) {}
    StreamLayout(std::array<std::span<const NeighborExchange>, 3> neighbors, int group_vars,
                 bool separate_buffers);

    const Stream& send(int direction, std::size_t neighbor) const {
        return send_[static_cast<std::size_t>(direction)][neighbor];
    }
    const Stream& recv(int direction, std::size_t neighbor) const {
        return recv_[static_cast<std::size_t>(direction)][neighbor];
    }
    /// The section of a stream that carries message `chunk` of a group of
    /// `vars` variables.
    Range message(const MessageChunk& chunk, int vars) const {
        return {static_cast<std::size_t>(chunk.value_offset * group_vars_),
                static_cast<std::size_t>(chunk.value_count * vars)};
    }
    /// The section that carries `face`, one of `chunk`'s faces.
    Range face(const MessageChunk& chunk, const FaceTransfer& face, int vars) const {
        return {message(chunk, vars).first +
                    static_cast<std::size_t>((face.value_offset - chunk.value_offset) * vars),
                static_cast<std::size_t>(face.value_count * vars)};
    }

private:
    friend class CommBuffers;
    int group_vars_ = 0;
    std::array<std::vector<Stream>, 3> send_, recv_;        // [direction][neighbour]
    std::array<std::size_t, 3> send_size_{}, recv_size_{};  // doubles per storage
};

/// The storage of one StreamLayout: the staging streams themselves.
class CommBuffers {
public:
    CommBuffers() = default;
    /// Storage for StreamLayout(plan, group_vars, separate_buffers).
    template <class Plan>
    CommBuffers(const Plan& plan, int group_vars, bool separate_buffers)
        : CommBuffers(StreamLayout(plan, group_vars, separate_buffers)) {}

    const StreamLayout& layout() const { return layout_; }
    /// Send/recv stream for (direction, neighbour index within direction).
    std::span<double> send_stream(int direction, int neighbor_index);
    std::span<double> recv_stream(int direction, int neighbor_index);
    /// Storage `s` of the send/recv streams.
    std::span<double> send_storage(int s) { return send_[static_cast<std::size_t>(s)]; }
    std::span<double> recv_storage(int s) { return recv_[static_cast<std::size_t>(s)]; }

private:
    explicit CommBuffers(StreamLayout layout);

    StreamLayout layout_;
    std::array<std::vector<double>, 3> send_, recv_;  // per storage
};

}  // namespace dfamr::amr
