// Run results reported by the variant drivers — the quantities the paper's
// tables and figures are built from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "amr/program.hpp"
#include "common/error.hpp"
#include "core/run_control.hpp"
#include "net/wire.hpp"
#include "tasking/runtime_stats.hpp"

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

using amr::RunCounters;

/// One rank's share of a run's result. Trivially copyable, so a
/// distributed world gathers every rank's with one allgather. operator+=
/// folds another rank's share in and is the one cross-rank rule: each
/// field is summed, maxed or and-ed, or, where every rank already holds the
/// same value, kept from the share the fold started with (rank 0's).
struct RankStats {
    PhaseTimes times;                   // max
    bool validation_ok = true;          // and
    std::int64_t total_flops = 0;       // stencil FLOPs; sum
    std::int64_t final_blocks = 0;      // blocks owned at the end; sum
    RunCounters counters;               // RunCounters::operator+=
    tasking::RuntimeStats sched;        // whole run (cumulative); sum
    tasking::RuntimeStats sched_refine; // slice attributed to refinement phases; sum
    /// Volume-weighted L1 error of variable 0 against the scenario's
    /// analytic reference at the final simulated time; already
    /// allreduce-summed, so every rank holds the global value (max, or).
    /// Valid only when has_error_norm (analytic scenarios).
    double error_norm = 0;
    bool has_error_norm = false;
    /// Why the run left the timestep loop early (RunControl decision); None
    /// for a run that completed all cfg.num_tsteps timesteps. stop_ts is the
    /// last completed timestep when stop != None. The decision is
    /// broadcast: every rank must hold the same pair.
    StopKind stop = StopKind::None;
    int stop_ts = -1;
    /// Scenario conservation ledger (DESIGN.md §18), all driver-allreduced
    /// globals, the same on every rank. mass_drift is the residual
    /// coarse-fine flux mismatch AFTER refluxing (exactly 0.0 by
    /// construction when the reflux pass ran); the mass budget
    /// final - initial + boundary_outflux closes to rounding. All zero for
    /// synthetic runs.
    double mass_drift = 0;
    double boundary_outflux = 0;
    double initial_mass = 0;
    double final_mass = 0;

    RankStats& operator+=(const RankStats& o) {
        times.total = std::max(times.total, o.times.total);
        times.refine = std::max(times.refine, o.times.refine);
        times.comm = std::max(times.comm, o.times.comm);
        times.stencil = std::max(times.stencil, o.times.stencil);
        times.checksum = std::max(times.checksum, o.times.checksum);
        validation_ok = validation_ok && o.validation_ok;
        total_flops += o.total_flops;
        final_blocks += o.final_blocks;
        counters += o.counters;
        sched += o.sched;
        sched_refine += o.sched_refine;
        error_norm = std::max(error_norm, o.error_norm);
        has_error_norm = has_error_norm || o.has_error_norm;
        DFAMR_REQUIRE(stop == o.stop && stop_ts == o.stop_ts,
                      "ranks disagree on the run-control stop decision");
        // The ledger is kept: a sum would count it once per rank.
        return *this;
    }
};
static_assert(std::is_trivially_copyable_v<RankStats>);

/// Per-rank result, before the cross-rank reduction.
struct RankResult : RankStats {
    /// Global checksum after each validation stage; every rank holds the
    /// same history.
    std::vector<double> checksums;
};

/// Global result (reduced across ranks; the numbers a bench prints): the
/// ranks' shares folded by RankStats::operator+=, plus the world's
/// counters.
struct RunResult : RankResult {
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

    /// False when run control stopped the run early; checksums then hold
    /// the history up to stop_ts.
    bool completed() const { return stop == StopKind::None; }

    double gflops() const {
        return times.total > 0 ? static_cast<double>(total_flops) / times.total * 1e-9 : 0.0;
    }
};

}  // namespace dfamr::core
