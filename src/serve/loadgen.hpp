// Open-loop load generator for dfamr-serve. Submits a deterministic job
// mix (tenants × specs cycled round-robin) at a fixed arrival rate over
// one Client connection, then collects every outcome and verifies each
// completed job's checksum history is BIT-IDENTICAL to a solo run of the
// same (scenario, variant, seed, sizes) — the end-to-end proof that
// multi-tenant scheduling, suspend/resume, preemption and crash recovery
// never perturb simulation results.
//
// Solo references are computed up front (one per distinct spec, cached)
// so reference runs do not compete with the load for CPU mid-measurement.
#pragma once

#include <cstdint>
#include <string>

#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace dfamr::serve {

struct LoadGenOptions {
    /// Minimum jobs to submit; submission continues (cycling the mix)
    /// until both this count and min_duration_s are reached.
    int jobs = 100;
    double min_duration_s = 0;
    /// Open-loop arrival spacing. The rate is NOT throttled by completions:
    /// when the server is slower than the arrival rate the queue grows,
    /// which is exactly what the soak wants to exercise.
    double interarrival_ms = 2.0;
    int tenants = 4;
    /// Distinct (seed, variant) combinations in the mix — bounds the solo
    /// reference cache.
    int distinct_specs = 6;
    /// Template for every job (sizes, scenario); seed/variant/tenant are
    /// derived per job index.
    JobSpec base;
    /// Every Nth job gets a deadline of deadline_s (0 = no deadlines).
    int deadline_every = 0;
    double deadline_s = 30;
    /// Compare every Done job's checksums against the solo reference.
    bool verify = true;
};

struct LoadGenReport {
    int submitted = 0;
    int accepted = 0;
    int rejected = 0;
    int done = 0;
    int failed = 0;           // Failed frames + connection-lost jobs
    int checksum_mismatches = 0;
    int suspended_jobs = 0;   // jobs that went through >= 1 suspend/resume
    int retried_jobs = 0;     // jobs that crash-recovered
    int peak_inflight = 0;    // client-side submitted-not-terminal high water
    double wall_s = 0;
    double jobs_per_s = 0;    // done / wall
    double p50_ms = 0;        // submit → terminal latency percentiles
    double p99_ms = 0;
    ServerStats server;       // final server stats (incl. peak queue depth)

    bool ok() const { return checksum_mismatches == 0 && failed == 0; }
    /// One JSON object (the soak artifact dfamr_loadgen --json writes).
    std::string to_json() const;
};

LoadGenReport run_loadgen(const net::HostPort& addr, const LoadGenOptions& opts);

/// Process-level leak probes (Linux): open fd count and live thread count
/// of this process, via /proc/self.
int count_open_fds();
int count_threads();

}  // namespace dfamr::serve
