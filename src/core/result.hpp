// Run results reported by the variant drivers — the quantities the paper's
// tables and figures are built from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/run_control.hpp"
#include "net/wire.hpp"

namespace dfamr::core {

/// Wall-clock phase breakdown (seconds). For the data-flow variant the
/// comm/stencil split is not meaningful (phases overlap); total and refine
/// are the paper's reporting units (Table I's Total / Refine / No Refine).
struct PhaseTimes {
    double total = 0;
    double refine = 0;   // refinement + load balancing phases
    double comm = 0;     // communicate() (MPI-only / fork-join only)
    double stencil = 0;  // stencil sweeps (MPI-only / fork-join only)
    double checksum = 0;

    double non_refine() const { return total - refine; }
};

/// Event counters accumulated during a run (the mini-app's end-of-run
/// report).
struct RunCounters {
    std::int64_t blocks_split = 0;     // refinements applied (per block)
    std::int64_t blocks_merged = 0;    // coarsenings applied (per parent)
    std::int64_t blocks_moved = 0;     // whole-block transfers (coarsen + LB)
    /// Splits this rank performed under a field-based estimator condition
    /// (zero when the run marks from object intersection).
    std::int64_t blocks_refined_by_estimator = 0;
    std::int64_t refinement_phases = 0;
    std::int64_t load_balances = 0;
    std::int64_t checksum_stages = 0;
    /// Refine -> coarsen of the same block within deref_count planning
    /// checks (replicated bookkeeping: identical on every rank). Zero in
    /// healthy runs — the hysteresis exists to keep it there.
    std::int64_t refine_coarsen_thrash = 0;
    /// Coarse-fine flux corrections applied by the reflux pass (one per
    /// corrected face value). Allreduce-summed by the driver at the end of
    /// the run, so every rank already holds the global count. Zero for
    /// synthetic runs and for scenario runs with no level jumps.
    std::int64_t reflux_corrections = 0;

    RunCounters& operator+=(const RunCounters& o) {
        blocks_split += o.blocks_split;
        blocks_merged += o.blocks_merged;
        blocks_moved += o.blocks_moved;
        blocks_refined_by_estimator += o.blocks_refined_by_estimator;
        refinement_phases = std::max(refinement_phases, o.refinement_phases);
        load_balances = std::max(load_balances, o.load_balances);
        checksum_stages = std::max(checksum_stages, o.checksum_stages);
        refine_coarsen_thrash = std::max(refine_coarsen_thrash, o.refine_coarsen_thrash);
        reflux_corrections = std::max(reflux_corrections, o.reflux_corrections);
        return *this;
    }
};

/// Scheduler telemetry sampled from the tasking runtime (zero for the
/// MPI-only variant, which runs sequentially inside each rank). Summed
/// across ranks in the reduction; the refine/total split gives the
/// per-phase view the traces cannot (steals during refinement indicate the
/// split/merge copies actually spread across workers).
struct SchedulerCounters {
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_fails = 0;
    std::uint64_t parks = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t immediate_successor_hits = 0;
    /// Dependency edges wired; exact at one core per rank (RuntimeStats).
    std::uint64_t edges_added = 0;

    SchedulerCounters& operator+=(const SchedulerCounters& o) {
        tasks_executed += o.tasks_executed;
        steals += o.steals;
        steal_fails += o.steal_fails;
        parks += o.parks;
        wakeups += o.wakeups;
        immediate_successor_hits += o.immediate_successor_hits;
        edges_added += o.edges_added;
        return *this;
    }
    SchedulerCounters operator-(const SchedulerCounters& o) const {
        SchedulerCounters d;
        d.tasks_executed = tasks_executed - o.tasks_executed;
        d.steals = steals - o.steals;
        d.steal_fails = steal_fails - o.steal_fails;
        d.parks = parks - o.parks;
        d.wakeups = wakeups - o.wakeups;
        d.immediate_successor_hits = immediate_successor_hits - o.immediate_successor_hits;
        d.edges_added = edges_added - o.edges_added;
        return d;
    }
};

/// Per-rank result, before the cross-rank reduction.
struct RankResult {
    PhaseTimes times;
    std::vector<double> checksums;  // global checksum after each validation stage
    bool validation_ok = true;
    std::int64_t stencil_flops = 0;  // this rank's stencil FLOPs
    std::int64_t final_blocks = 0;   // blocks owned at the end
    RunCounters counters;
    SchedulerCounters sched;         // whole run (cumulative runtime stats)
    SchedulerCounters sched_refine;  // slice attributed to refinement phases
    /// Volume-weighted L1 error of variable 0 against the scenario's
    /// analytic reference at the final simulated time; already
    /// allreduce-summed, so every rank holds the global value. Valid only
    /// when has_error_norm (analytic scenarios).
    double error_norm = 0;
    bool has_error_norm = false;
    /// Why the run left the timestep loop early (RunControl decision); None
    /// for a run that completed all cfg.num_tsteps timesteps.
    StopKind stop = StopKind::None;
    /// Last completed timestep when stop != None (every rank agrees: the
    /// decision is broadcast).
    int stop_ts = -1;
    /// Scenario conservation ledger (DESIGN.md §18), all driver-allreduced
    /// globals — identical on every rank, like error_norm. mass_drift is the
    /// residual coarse-fine flux mismatch AFTER refluxing (exactly 0.0 by
    /// construction when the reflux pass ran); the mass budget
    /// final - initial + boundary_outflux closes to rounding. All zero for
    /// synthetic runs.
    double mass_drift = 0;
    double boundary_outflux = 0;
    double initial_mass = 0;
    double final_mass = 0;
};

/// Global result (reduced across ranks; the numbers a bench prints).
struct RunResult {
    PhaseTimes times;  // max over ranks
    std::vector<double> checksums;
    bool validation_ok = true;
    std::int64_t total_flops = 0;  // sum over ranks
    std::int64_t final_blocks = 0;
    std::uint64_t messages = 0;  // delivered by the MPI layer
    std::uint64_t bytes = 0;
    /// Wire-level transport counters, summed over all rank processes (all
    /// zero for the in-process transport).
    net::NetCounters net;
    /// Per-peer wire traffic, indexed by peer rank and summed over all rank
    /// processes (entry p = traffic every rank exchanged with rank p).
    /// Empty for the in-process transport.
    std::vector<net::PeerStats> net_peers;
    /// Effective eager/rendezvous switchover (bytes) the run used.
    std::uint64_t rndv_threshold = 0;
    /// Most block buffers the run held at once: the high water of the one
    /// arena an in-process run's ranks share, summed over the processes of
    /// a distributed run (one arena each).
    std::uint64_t arena_high_water = 0;
    RunCounters counters;
    SchedulerCounters sched;         // summed over ranks
    SchedulerCounters sched_refine;  // summed over ranks
    /// Global scenario error norm (identical on every rank; max-reduced).
    double error_norm = 0;
    bool has_error_norm = false;
    /// RunControl outcome (all ranks agree; None when no control attached
    /// or the run completed). checksums hold the history up to stop_ts.
    StopKind stop = StopKind::None;
    int stop_ts = -1;
    /// Scenario conservation ledger (max-reduced: already global on every
    /// rank). See RankResult for semantics.
    double mass_drift = 0;
    double boundary_outflux = 0;
    double initial_mass = 0;
    double final_mass = 0;

    bool completed() const { return stop == StopKind::None; }

    double gflops() const {
        return times.total > 0 ? static_cast<double>(total_flops) / times.total * 1e-9 : 0.0;
    }
};

}  // namespace dfamr::core
