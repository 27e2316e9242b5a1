// The reference miniAMR criterion as a structure-level test fixture: mark
// every leaf an object touches (or every leaf, with uniform refinement) to
// refine and every other to coarsen, then plan the round through the
// structure's 2:1 propagation. These are the marks the mini-app's planner
// (amr/program.hpp) gives the objects condition at the default
// refine_threshold and deref_count.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "amr/structure.hpp"

namespace dfamr::amr {

inline RefineRound plan_object_round(const GlobalStructure& gs,
                                     const std::vector<ObjectSpec>& objects,
                                     bool uniform_refine) {
    std::map<BlockKey, int> marks;
    for (const auto& [key, owner] : gs.leaves()) {
        bool touched = uniform_refine;
        for (const ObjectSpec& obj : objects) touched = touched || obj.touches(gs.box(key));
        if (touched) {
            marks.emplace(key, key.level < gs.max_level() ? +1 : 0);
        } else {
            marks.emplace(key, key.level > 0 ? -1 : 0);
        }
    }
    return gs.plan_refine_round_marks(std::move(marks));
}

}  // namespace dfamr::amr
