// Unified observability snapshot: the trace analysis, scheduler telemetry
// and wire counters of one run joined into a single JSON blob. This is the
// machine-readable artifact the CI trace-smoke job and trace_diff consume
// (schema "dfamr_metrics_v1"); bench_json embeds the same structure under
// its "trace" key.
#pragma once

#include <cstdint>
#include <string>

#include "amr/trace.hpp"
#include "core/result.hpp"

namespace dfamr::core {

struct MetricsSnapshot {
    amr::TraceAnalysis trace;
    SchedulerCounters sched;         // whole run, summed over ranks
    SchedulerCounters sched_refine;  // slice attributed to refinement phases
    net::NetCounters net;            // wire counters (zero for inproc)
    /// Per-peer wire traffic (entry p = all ranks' traffic with rank p);
    /// empty for inproc.
    std::vector<net::PeerStats> net_peers;
    std::uint64_t rndv_threshold = 0;  // effective eager/rendezvous switchover
    std::uint64_t messages = 0;      // delivered by the MPI layer
    std::uint64_t bytes = 0;
    double total_s = 0;
    double refine_s = 0;
    std::int64_t final_blocks = 0;
    std::uint64_t arena_high_water = 0;  // block buffers held at the peak
    bool validation_ok = true;
    /// Scenario subsystem: estimator-driven splits, refine->coarsen flaps
    /// within the hysteresis window, and the analytic error norm (valid only
    /// when has_error_norm).
    std::int64_t blocks_refined_by_estimator = 0;
    std::int64_t refine_coarsen_thrash = 0;
    double error_norm = 0;
    bool has_error_norm = false;
    /// Conservation ledger (scenario runs only; all zero for synthetic):
    /// mass_drift is the post-reflux coarse-fine residual — exactly 0.0
    /// when every interface was corrected; the mass budget closes as
    /// final_mass = initial_mass - boundary_outflux up to rounding.
    double mass_drift = 0;
    double boundary_outflux = 0;
    double initial_mass = 0;
    double final_mass = 0;
    std::int64_t reflux_corrections = 0;
};

/// Joins the tracer's analysis with the run's reduced result.
MetricsSnapshot make_metrics_snapshot(const amr::Tracer& tracer, const RunResult& result);

/// The snapshot as a self-describing JSON object (schema dfamr_metrics_v1).
std::string metrics_to_json(const MetricsSnapshot& m);

}  // namespace dfamr::core
