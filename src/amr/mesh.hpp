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

/// Ghost-exchange communication buffers for one rank.
///
/// The reference miniAMR shares one send/recv buffer pair across the three
/// directions, which creates false dependencies between directions when the
/// communication is taskified; the paper's --separate_buffers option
/// allocates one pair per direction (§IV-A). Buffers are laid out per
/// neighbor using the CommPlan stream offsets, scaled by the variable-group
/// size.
class CommBuffers {
public:
    CommBuffers() = default;
    /// `group_vars` = maximum variables per communication group.
    CommBuffers(const CommPlan& plan, int group_vars, bool separate_buffers);

    /// Send/recv stream for (direction, neighbor index within direction).
    std::span<double> send_stream(int direction, int neighbor_index);
    std::span<double> recv_stream(int direction, int neighbor_index);

private:
    struct DirStorage {
        std::vector<std::size_t> send_offsets;  // per neighbor index
        std::vector<std::size_t> recv_offsets;
        std::vector<std::size_t> send_sizes;
        std::vector<std::size_t> recv_sizes;
        std::vector<double> send;
        std::vector<double> recv;
    };
    bool separate_ = false;
    std::array<DirStorage, 3> dirs_;
    int storage_index(int direction) const { return separate_ ? direction : 0; }
};

}  // namespace dfamr::amr
