// Pluggable refinement conditions (Athena-style enrollable criteria): a
// condition scores every leaf block, and the planner (amr/program.hpp)
// turns scores into refine/coarsen marks with a strict threshold and
// deref-count hysteresis.
//
// Two families exist:
//   * geometric conditions score from the block's physical box alone
//     (object intersection — the reference miniAMR behaviour); every rank
//     can evaluate them locally on the replicated structure.
//   * field-based conditions score from cell data, which only the owning
//     rank holds. The driver gathers those scores with one fixed-size
//     Sum-allreduce over the leaves in key order (ownership is disjoint, so
//     the sum is a gather) and derives identical marks on every rank.
//
// Scoring conventions (the planner's mark logic, see DESIGN.md §17):
//   * a block refines iff score > refine_threshold (strictly — a score
//     exactly at the threshold does not refine) and its level < max;
//   * a block becomes coarsen-willing iff score < refine_threshold *
//     kDerefBand, and actually coarsens only after deref_count consecutive
//     willing checks (hysteresis, kills refine/coarsen thrash).
#pragma once

#include <string>
#include <vector>

#include "amr/block.hpp"
#include "amr/object.hpp"
#include "amr/program.hpp"
#include "common/geometry.hpp"

namespace dfamr::scenario {

/// Fraction of refine_threshold below which a block is coarsen-willing
/// (the planner's dead band, see amr/program.hpp).
using amr::kDerefBand;

/// Inputs a geometric condition may consult (field-based ones ignore them).
struct ScoreContext {
    const std::vector<amr::ObjectSpec>* objects = nullptr;
    bool uniform_refine = false;
};

class RefinementCondition {
public:
    virtual ~RefinementCondition() = default;
    virtual const char* name() const = 0;
    /// True when scores come from cell data: the driver passes the block on
    /// the owning rank (null elsewhere) and gathers scores globally.
    /// Geometric conditions must ignore `blk` and score from `box` alone.
    virtual bool needs_field_data() const = 0;
    virtual double score(const amr::Block* blk, const Box& box,
                         const ScoreContext& ctx) const = 0;
};

/// Registry lookup by CLI name: "objects", "gradient" or "curvature".
/// Returns null for unknown names (callers produce the error message).
const RefinementCondition* find_condition(const std::string& name);

/// Registered condition names, for error messages and help text.
std::vector<std::string> condition_names();

}  // namespace dfamr::scenario
