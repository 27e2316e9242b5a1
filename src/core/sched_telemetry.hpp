// Bridges the tasking runtime's cumulative RuntimeStats into the
// variant-neutral SchedulerCounters carried by RankResult. Kept out of
// result.hpp so the result types stay free of a tasking dependency (the
// MPI-only variant never creates a runtime).
#pragma once

#include "core/result.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::core {

inline SchedulerCounters to_scheduler_counters(const tasking::RuntimeStats& s) {
    SchedulerCounters c;
    c.tasks_executed = s.tasks_executed;
    c.steals = s.steals;
    c.steal_fails = s.steal_fails;
    c.parks = s.parks;
    c.wakeups = s.wakeups;
    c.immediate_successor_hits = s.immediate_successor_hits;
    return c;
}

}  // namespace dfamr::core
