// Aggregate counters of one tasking runtime, and their arithmetic: the
// drivers take the difference of two samples to attribute a phase's work,
// and the run result sums every rank's.
#pragma once

#include <cstdint>

namespace dfamr::tasking {

/// Aggregate runtime counters (observable by tests and benches).
///
/// Consistency: counters are maintained as relaxed atomics; stats() is
/// exact once the runtime is quiescent (after a top-level taskwait).
/// Note that `edges_added` alone is timing-dependent with workers > 0: a
/// conflicting predecessor that completes before the successor is submitted
/// needs no edge. `edges_added + edges_elided` is the timing-independent
/// conflict count (up to garbage collection, see
/// DependencyRegistry::edges_elided).
struct RuntimeStats {
    std::uint64_t tasks_submitted = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t immediate_successor_hits = 0;
    std::uint64_t edges_added = 0;
    std::uint64_t edges_elided = 0;
    // Scheduler telemetry (new with the work-stealing scheduler):
    std::uint64_t steals = 0;       // tasks obtained from another worker's deque
    std::uint64_t steal_fails = 0;  // full victim scans that found nothing
    std::uint64_t parks = 0;        // times a worker blocked on the idle CV
    std::uint64_t wakeups = 0;      // targeted notify_one calls issued

    RuntimeStats& operator+=(const RuntimeStats& o) {
        tasks_submitted += o.tasks_submitted;
        tasks_executed += o.tasks_executed;
        immediate_successor_hits += o.immediate_successor_hits;
        edges_added += o.edges_added;
        edges_elided += o.edges_elided;
        steals += o.steals;
        steal_fails += o.steal_fails;
        parks += o.parks;
        wakeups += o.wakeups;
        return *this;
    }
    /// The counts between an earlier sample `o` and this one.
    RuntimeStats operator-(const RuntimeStats& o) const {
        RuntimeStats d;
        d.tasks_submitted = tasks_submitted - o.tasks_submitted;
        d.tasks_executed = tasks_executed - o.tasks_executed;
        d.immediate_successor_hits = immediate_successor_hits - o.immediate_successor_hits;
        d.edges_added = edges_added - o.edges_added;
        d.edges_elided = edges_elided - o.edges_elided;
        d.steals = steals - o.steals;
        d.steal_fails = steal_fails - o.steal_fails;
        d.parks = parks - o.parks;
        d.wakeups = wakeups - o.wakeups;
        return d;
    }
};

}  // namespace dfamr::tasking
