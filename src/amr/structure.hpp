// Global mesh structure: the set of leaf blocks of the octree forest and
// their owning ranks.
//
// Reproduction note (documented in DESIGN.md): the reference miniAMR keeps
// the structure distributed and coordinates refinement with control
// messages. Here every rank holds an identical replica updated by
// deterministic rules (object positions are global knowledge in miniAMR
// too), which preserves the refinement *results*, the 2:1 invariant, the
// ghost-exchange patterns and the load-balancing block movements — the
// behaviours the paper studies — while removing distributed bookkeeping
// that none of the paper's experiments measure in isolation. The DES cost
// model charges the refinement-phase collectives explicitly.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "amr/block.hpp"
#include "amr/config.hpp"
#include "amr/object.hpp"

namespace dfamr::amr {

/// One face neighbor of a block (there are 4 when the neighbor side is finer).
struct FaceNeighbor {
    BlockKey key;
    int owner = -1;
    FaceRel rel = FaceRel::Same;
    /// Quarter of the coarser face involved (0..3), meaningful when
    /// rel != Same. Shared convention with FaceGeom::quad.
    int quad = 0;
};

/// Outcome of planning one refinement round.
struct RefineRound {
    std::vector<BlockKey> refine;           // leaves to split into 8
    std::vector<BlockKey> coarsen_parents;  // parents whose 8 children merge
    bool empty() const { return refine.empty() && coarsen_parents.empty(); }
};

/// One whole-block transfer between ranks during refinement/load balancing.
struct BlockMove {
    BlockKey key;
    int from = -1;
    int to = -1;
    int id = 0;  // global index; tags the data message (paper §IV-B)
};

class GlobalStructure {
public:
    explicit GlobalStructure(const Config& cfg);

    int max_level() const { return max_level_; }
    int num_ranks() const { return num_ranks_; }
    /// Leaves in deterministic (key) order with their owners.
    const std::map<BlockKey, int>& leaves() const { return owners_; }
    std::size_t num_blocks() const { return owners_.size(); }
    int owner(const BlockKey& key) const;
    bool is_leaf(const BlockKey& key) const { return owners_.count(key) != 0; }
    std::vector<BlockKey> blocks_of(int rank) const;
    std::vector<std::int64_t> blocks_per_rank() const;

    /// Physical region of a block in the unit cube.
    Box box(const BlockKey& key) const;
    /// Domain extent in finest units per dimension.
    Vec3l domain_units() const { return domain_units_; }

    bool at_domain_boundary(const BlockKey& key, int axis, int sense) const;
    /// Face neighbors across the (axis, sense) face: one Same or Coarser
    /// neighbor, or up to four Finer ones. Empty at the domain boundary.
    std::vector<FaceNeighbor> face_neighbors(const BlockKey& key, int axis, int sense) const;

    /// Verifies the 2:1 constraint over all leaves (tests/invariants).
    bool two_to_one_ok() const;

    // --- refinement -------------------------------------------------------
    /// Plans one refinement round from the object positions: marks leaves,
    /// propagates the 2:1 constraint on the refine set to a fixpoint, and
    /// selects coarsenable sibling groups that keep the invariant.
    RefineRound plan_refine_round(const std::vector<ObjectSpec>& objects,
                                  bool uniform_refine) const;
    /// Plans a round from externally computed marks (+1 refine, -1
    /// coarsen-willing, 0 stay; one entry per leaf): the scenario
    /// subsystem's estimator conditions mark leaves from field data, then
    /// this applies the same 2:1 propagation and sibling-group selection as
    /// the object path. Marks must be identical on every rank.
    RefineRound plan_refine_round_marks(std::map<BlockKey, int> marks) const;
    /// Applies a planned round to the owner map. Children inherit the parent
    /// owner; a merged parent goes to the octant-0 child's owner.
    void apply_refine_round(const RefineRound& round);
    /// The transfers `round`'s coarsening needs: every child that the owner
    /// of child 0, who merges the parent, does not own. Ids count every
    /// candidate child, so all ranks derive the same ones.
    std::vector<BlockMove> coarsen_moves(const RefineRound& round) const;

    // --- load balancing ----------------------------------------------------
    /// (max - avg) / avg over blocks per rank; 0 when perfectly balanced.
    double imbalance() const;
    /// Recursive coordinate bisection: deterministic new owner assignment
    /// proportional to rank counts. Does not modify this structure.
    std::map<BlockKey, int> rcb_partition() const;
    /// Installs a new ownership map (must cover exactly the current leaves).
    void set_owners(const std::map<BlockKey, int>& new_owners);
    /// The transfers that take every leaf to its owner in `new_owners`.
    std::vector<BlockMove> moves_to(const std::map<BlockKey, int>& new_owners) const;

    // --- checkpoint/restart -------------------------------------------------
    /// Replaces the leaf set wholesale with a checkpointed one. Validates
    /// owner ranges and the 2:1 invariant (a corrupt checkpoint must fail
    /// loudly, not corrupt the run).
    void restore_leaves(const std::map<BlockKey, int>& leaves);

private:
    void rcb_recurse(std::vector<std::pair<Vec3d, BlockKey>>& blocks, std::size_t lo,
                     std::size_t hi, int rank_lo, int rank_hi,
                     std::map<BlockKey, int>& result) const;

    int max_level_;
    int num_ranks_;
    Vec3i level0_blocks_;  // total level-0 blocks per dimension
    Vec3l domain_units_;
    std::map<BlockKey, int> owners_;
};

}  // namespace dfamr::amr
