// Unified observability record: the trace analysis, scheduler telemetry,
// wire counters and reduced result of one run joined into a single JSON
// blob. This is the machine-readable artifact the CI trace-smoke job and
// trace_diff consume (schema "dfamr_metrics_v1"); bench_json embeds the
// same structure under its "trace" key.
#pragma once

#include <string>

#include "amr/trace.hpp"
#include "core/result.hpp"

namespace dfamr::core {

/// The tracer's analysis and every field of the run's reduced result as a
/// self-describing JSON object (schema dfamr_metrics_v1).
std::string metrics_to_json(const amr::TraceAnalysis& trace, const RunResult& result);

}  // namespace dfamr::core
