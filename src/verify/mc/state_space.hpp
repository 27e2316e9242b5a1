// The breadth-first explicit-state search both wire models run on: the
// frame model of check_protocol() and the shm-ring model of
// check_shm_ring(). The schedule-space explorer (explorer.hpp) is a
// different algorithm and does not use it.
#pragma once

#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "verify/mc/protocol.hpp"

namespace dfamr::verify::mc {

/// Records a violated property: clears `flag` and keeps the first 16
/// witnesses.
inline void fail(ModelResult& res, bool& flag, std::string msg) {
    if (res.violations.size() < 16) res.violations.push_back(std::move(msg));
    flag = false;
}

/// Visits every state reachable from `init` exactly once. `State` has
/// key(), a byte string equal exactly for equal states. `Model` has
///   bool is_final(const State&)                    nothing is left to do;
///   void check_final(const State&, ModelResult&)   leak and credit checks;
///   std::vector<State> successors(const State&, ModelResult&)
///       one state per enabled action (safety is checked on the way);
///   std::string describe(const State&)             a deadlock witness.
/// A non-final state without successors is a deadlock. Final states are
/// not expanded.
template <class Model, class State>
ModelResult explore_states(const Model& model, State init) {
    ModelResult res;
    std::set<std::string> visited{init.key()};
    std::deque<State> frontier;
    frontier.push_back(std::move(init));
    while (!frontier.empty()) {
        State s = std::move(frontier.front());
        frontier.pop_front();
        ++res.states_explored;
        if (model.is_final(s)) {
            model.check_final(s, res);
            continue;
        }
        std::vector<State> next = model.successors(s, res);
        if (next.empty()) {
            fail(res, res.deadlock_free, "deadlock: no enabled action " + model.describe(s));
            continue;
        }
        for (State& n : next) {
            ++res.transitions;
            if (visited.insert(n.key()).second) frontier.push_back(std::move(n));
        }
    }
    return res;
}

}  // namespace dfamr::verify::mc
