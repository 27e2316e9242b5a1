// Machine-readable scaling bench: runs the Fig. 4 weak-scaling and Fig. 5
// strong-scaling sweeps for the three variants and writes the results as
// JSON (BENCH_scaling.json at the repo root via bench/run_benches.sh or the
// `bench-json` CMake target). The human-readable tables stay in
// fig4_weak_scaling / fig5_strong_scaling; this binary is for CI trend
// tracking and plotting scripts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "amr/trace.hpp"
#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/variants.hpp"
#include "sched_bench.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

using namespace dfamr;
using namespace dfamr::bench;

namespace {

struct Row {
    std::string series;    // "weak" or "strong"
    std::string variant;   // paper name of the variant
    int nodes = 0;
    int ranks = 0;
    long long blocks = 0;  // level-0 block grid size
    double total_s = 0;
    double refine_s = 0;
    double gflops = 0;
    double speedup = 0;     // vs MPI-only @1 node of the same series
    double efficiency = 0;  // vs the variant's own 1-node point
};

/// Wire-level counters from a small real run over the TCP loopback
/// transport (every rank a thread with its own localhost socket pair).
/// Tracks transport overhead trends: frames/bytes per delivered message and
/// how much traffic takes the rendezvous path at the default threshold.
struct NetMeasurement {
    int ranks = 0;
    std::uint64_t messages = 0;
    net::NetCounters counters;
    double total_s = 0;
    bool checksums_match_inproc = false;
};

NetMeasurement measure_net() {
    amr::Config cfg = amr::single_sphere_input();
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = 1;
    cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 6;
    cfg.num_refine = 2;
    cfg.workers = 2;
    cfg.objects[0].move = {0.4, 0.4, 0.4};

    core::RunOptions inproc;
    inproc.ignore_launch_env = true;
    core::RunOptions tcp = inproc;
    tcp.transport = mpi::TransportKind::Tcp;
    tcp.rendezvous_threshold = 4096;  // low enough that ghost traffic crosses it

    const core::RunResult ref = core::run_variant(cfg, Variant::TampiOss, nullptr, nullptr, inproc);
    const core::RunResult r = core::run_variant(cfg, Variant::TampiOss, nullptr, nullptr, tcp);
    NetMeasurement m;
    m.ranks = cfg.num_ranks();
    m.messages = r.messages;
    m.counters = r.net;
    m.total_s = r.times.total;
    m.checksums_match_inproc = r.validation_ok && r.checksums == ref.checksums;
    return m;
}

/// One transport fast-path measurement: a real loopback world (rank
/// threads over real TCP sockets or shm rings) standing in for the
/// 16-node strong-scaling point's per-rank communication pattern, with
/// zero-copy pack on. Run for tcp / shm / auto, coalescing off and on:
/// the section records the frames/bytes drop from coalescing and the
/// tcp-vs-shm wall-time gap.
struct TransportPoint {
    std::string transport;  // "tcp", "shm", "auto(shm)"
    bool coalesce = false;
    std::uint64_t messages = 0;
    net::NetCounters counters;
    double total_s = 0;
    bool checksums_match_inproc = false;
};

struct TransportMeasurement {
    int ranks = 0;
    int strong_scaling_nodes = 16;  // the scaling-table point this mirrors
    std::uint64_t rndv_threshold = 0;
    std::vector<TransportPoint> points;
};

TransportMeasurement measure_transport() {
    // The 16-node strong-scaling point shrinks the per-rank block count
    // 16x, making ghost exchange the dominant cost; this miniature keeps
    // that communication-bound shape at loopback scale.
    amr::Config cfg = amr::single_sphere_input();
    cfg.npx = 2;
    cfg.npy = 2;
    cfg.npz = 1;
    cfg.init_x = cfg.init_y = 1;
    cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 5;
    cfg.stages_per_ts = 6;
    cfg.num_refine = 2;
    cfg.workers = 2;
    cfg.zero_copy = true;
    // Per-face messages (the paper's finest granularity): ghost traffic
    // becomes many small eager frames per neighbor, the shape coalescing
    // exists for — and the per-frame syscall cost that separates TCP
    // loopback from shm rings.
    cfg.send_faces = true;
    cfg.objects[0].move = {0.4, 0.4, 0.4};

    core::RunOptions inproc;
    inproc.ignore_launch_env = true;
    amr::Config ref_cfg = cfg;
    ref_cfg.zero_copy = false;
    const core::RunResult ref =
        core::run_variant(ref_cfg, Variant::MpiOnly, nullptr, nullptr, inproc);

    TransportMeasurement m;
    m.ranks = cfg.num_ranks();
    struct Wire {
        const char* label;
        mpi::TransportKind kind;
    };
    // A loopback world is always co-located, so auto resolves to shm, just
    // like under dfamr_mpirun on one host; keep it as its own point so the
    // selection path shows up in the trend data.
    const Wire wires[] = {{"tcp", mpi::TransportKind::Tcp},
                          {"shm", mpi::TransportKind::Shm},
                          {"auto(shm)", mpi::TransportKind::Shm}};
    std::vector<core::RunOptions> opts_for;
    for (const Wire& w : wires) {
        for (const bool coalesce : {false, true}) {
            core::RunOptions opts;
            opts.ignore_launch_env = true;
            opts.transport = w.kind;
            // Per-face messages stay far below the default threshold, so
            // everything rides the eager path coalescing applies to.
            opts.rendezvous_threshold = 64 * 1024;
            opts.coalesce = coalesce;
            m.rndv_threshold = opts.rendezvous_threshold;
            opts_for.push_back(opts);
            TransportPoint p;
            p.transport = w.label;
            p.coalesce = coalesce;
            m.points.push_back(std::move(p));
            // Warm-up: connect mesh, thread pools, page in the rings.
            core::run_variant(cfg, Variant::MpiOnly, nullptr, nullptr, opts);
        }
    }
    // Best-of-7 with the reps interleaved across points (rep 0 of every
    // point, then rep 1, ...) so a burst of ambient load lands on all
    // points alike instead of biasing the tcp-vs-shm wall-time comparison;
    // each round starts at a different point so periodic load can't stay
    // aligned with any one point's slot in the round.
    for (int rep = 0; rep < 7; ++rep) {
        for (std::size_t k = 0; k < m.points.size(); ++k) {
            const std::size_t i = (k + static_cast<std::size_t>(rep)) % m.points.size();
            TransportPoint& p = m.points[i];
            const core::RunResult r =
                core::run_variant(cfg, Variant::MpiOnly, nullptr, nullptr, opts_for[i]);
            if (rep == 0 || r.times.total < p.total_s) {
                p.messages = r.messages;
                p.counters = r.net;
                p.total_s = r.times.total;
                p.checksums_match_inproc = r.validation_ok && r.checksums == ref.checksums;
            }
        }
    }
    return m;
}

/// Traced vs untraced wall time of the same small real run, plus the
/// unified metrics snapshot of a traced one. Tracks both the tracing
/// overhead contract (record() must stay cheap enough to leave on) and the
/// observability numbers the CI trace-smoke job diffs. The times are the
/// medians of kTracePairs interleaved untraced/traced pairs: one ~20 ms
/// run swings by more than the 10% budget the overhead is gated on.
constexpr int kTracePairs = 7;

struct TraceMeasurement {
    double untraced_s = 0;  // median
    double traced_s = 0;    // median
    double overhead_frac = 0;
    core::MetricsSnapshot snapshot;
};

double median(std::vector<double> v) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

TraceMeasurement measure_trace() {
    amr::Config cfg = amr::single_sphere_input();
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = 1;
    cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 5;
    cfg.stages_per_ts = 6;
    cfg.num_refine = 2;
    cfg.workers = 2;
    cfg.objects[0].move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};

    core::RunOptions opts;
    opts.ignore_launch_env = true;

    // Warm-up run (thread pools, allocator), then the timed pairs.
    // Successive pairs alternate which side runs first, so neither side
    // always inherits the other's warm caches.
    core::run_variant(cfg, Variant::TampiOss, nullptr, nullptr, opts);
    amr::Tracer tracer;
    tracer.enable(true);
    core::RunResult traced;
    std::vector<double> untraced_s, traced_s;
    for (int pair = 0; pair < kTracePairs; ++pair) {
        for (const bool with_trace : {pair % 2 == 1, pair % 2 == 0}) {
            if (with_trace) {
                tracer.clear();
                traced = core::run_variant(cfg, Variant::TampiOss, &tracer, nullptr, opts);
                traced_s.push_back(traced.times.total);
            } else {
                untraced_s.push_back(
                    core::run_variant(cfg, Variant::TampiOss, nullptr, nullptr, opts).times.total);
            }
        }
    }

    TraceMeasurement t;
    t.untraced_s = median(untraced_s);
    t.traced_s = median(traced_s);
    t.overhead_frac = t.untraced_s > 0 ? (t.traced_s - t.untraced_s) / t.untraced_s : 0;
    t.snapshot = core::make_metrics_snapshot(tracer, traced);
    return t;
}

/// Scenario subsystem trend data: each problem-generator workload run with
/// an estimator-driven refinement condition under all three variants.
/// Tracks refinement activity (estimator splits, final blocks), the
/// hysteresis health signal (thrash must stay zero), the analytic error
/// norm where the scenario has a reference solution, and the cross-variant
/// checksum identity the subsystem promises.
struct ScenarioPoint {
    std::string scenario;
    std::string estimator;
    std::int64_t final_blocks = 0;
    std::int64_t estimator_splits = 0;
    std::int64_t thrash = 0;
    double error_norm = 0;
    bool has_error_norm = false;
    /// Conservation ledger of the flux-form kernel: the post-reflux
    /// coarse-fine residual (exactly 0.0 when every interface was
    /// corrected) and the number of corrections applied.
    double mass_drift = 0;
    std::int64_t reflux_corrections = 0;
    double total_s = 0;  // TAMPI+OSS wall time
    bool checksums_match_across_variants = false;
};

amr::Config scenario_config(const std::string& scenario, const std::string& estimator) {
    amr::Config cfg = amr::single_sphere_input();
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = 1;
    cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 4;
    cfg.stages_per_ts = 6;
    cfg.num_refine = 2;
    cfg.workers = 2;
    cfg.objects.clear();
    cfg.scenario = scenario;
    cfg.estimator = estimator;
    cfg.refine_threshold = 0.1;
    cfg.deref_count = 3;
    return cfg;
}

std::vector<ScenarioPoint> measure_scenarios() {
    std::vector<ScenarioPoint> points;
    for (const char* scenario : {"gaussian", "slotted_cylinder", "front"}) {
        for (const char* estimator : {"gradient", "curvature"}) {
            const amr::Config cfg = scenario_config(scenario, estimator);
            core::RunOptions opts;
            opts.ignore_launch_env = true;
            const core::RunResult mpi =
                core::run_variant(cfg, Variant::MpiOnly, nullptr, nullptr, opts);
            const core::RunResult fj =
                core::run_variant(cfg, Variant::ForkJoin, nullptr, nullptr, opts);
            const core::RunResult tampi =
                core::run_variant(cfg, Variant::TampiOss, nullptr, nullptr, opts);
            ScenarioPoint p;
            p.scenario = scenario;
            p.estimator = estimator;
            p.final_blocks = tampi.final_blocks;
            p.estimator_splits = tampi.counters.blocks_refined_by_estimator;
            p.thrash = tampi.counters.refine_coarsen_thrash;
            p.error_norm = tampi.error_norm;
            p.has_error_norm = tampi.has_error_norm;
            p.mass_drift = tampi.mass_drift;
            p.reflux_corrections = tampi.counters.reflux_corrections;
            p.total_s = tampi.times.total;
            p.checksums_match_across_variants = mpi.validation_ok && fj.validation_ok &&
                                                tampi.validation_ok &&
                                                mpi.checksums == fj.checksums &&
                                                mpi.checksums == tampi.checksums;
            points.push_back(std::move(p));
        }
    }
    return points;
}

/// Serving throughput: an in-process dfamr_serve server driven by the
/// loadgen at two tenant counts on the same pool. The 1-tenant point is the
/// uncontended baseline; the 8-tenant point exercises DRR fair-share
/// arbitration plus slice-based suspend/resume, so the latency tail tracks
/// the cost of multi-tenancy (every job still checksum-verified solo).
struct ServePoint {
    int tenants = 0;
    serve::LoadGenReport report;
};

struct ServeMeasurement {
    int pool_workers = 0;
    int jobs = 0;
    std::vector<ServePoint> points;
};

ServeMeasurement measure_serving() {
    ServeMeasurement m;
    m.pool_workers = 4;
    m.jobs = 40;
    for (const int tenants : {1, 8}) {
        serve::ServerOptions sopts;
        sopts.manager.pool_workers = m.pool_workers;
        sopts.manager.max_queue = 512;
        sopts.manager.max_inflight_cost = m.pool_workers;
        sopts.manager.slice_tsteps = 2;  // contended jobs round-robin via suspend
        serve::Server server(sopts);

        serve::LoadGenOptions lopts;
        lopts.jobs = m.jobs;
        lopts.tenants = tenants;
        lopts.interarrival_ms = 0.5;  // arrivals outpace service: queue forms
        lopts.distinct_specs = 4;
        lopts.base.num_tsteps = 4;

        ServePoint p;
        p.tenants = tenants;
        p.report = serve::run_loadgen({sopts.host, server.port()}, lopts);
        m.points.push_back(std::move(p));
        server.stop();
    }
    return m;
}

void write_json(const char* path, const std::vector<Row>& rows, int max_nodes,
                const SchedMeasurement& sched, const NetMeasurement& netm,
                const TransportMeasurement& transm, const TraceMeasurement& tracem,
                const ServeMeasurement& servem, const std::vector<ScenarioPoint>& scen) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_json: cannot open %s for writing\n", path);
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"dfamr_scaling\",\n");
    std::fprintf(f, "  \"paper\": \"Sala, Rico, Beltran (CLUSTER 2020), Fig. 4-5\",\n");
    std::fprintf(f, "  \"max_nodes\": %d,\n", max_nodes);
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(f,
                     "    {\"series\": \"%s\", \"variant\": \"%s\", \"nodes\": %d, "
                     "\"ranks\": %d, \"blocks\": %lld, \"total_s\": %.6f, "
                     "\"refine_s\": %.6f, \"gflops\": %.3f, \"speedup\": %.4f, "
                     "\"efficiency\": %.4f}%s\n",
                     r.series.c_str(), r.variant.c_str(), r.nodes, r.ranks, r.blocks, r.total_s,
                     r.refine_s, r.gflops, r.speedup, r.efficiency, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Scheduler microbenchmark on the build host: the vendored pre-rewrite
    // global-mutex runtime vs the current work-stealing runtime (see
    // bench/sched_bench.hpp), plus the new runtime's scheduler counters.
    std::fprintf(f, "  \"scheduler\": {\n");
    std::fprintf(f, "    \"workers\": %d,\n", sched.workers);
    std::fprintf(f, "    \"tasks\": %lld,\n", sched.tasks);
    std::fprintf(f, "    \"old_fanout_ns_per_task\": %.1f,\n", sched.old_fanout_ns);
    std::fprintf(f, "    \"new_fanout_ns_per_task\": %.1f,\n", sched.new_fanout_ns);
    std::fprintf(f, "    \"old_chain_ns_per_task\": %.1f,\n", sched.old_chain_ns);
    std::fprintf(f, "    \"new_chain_ns_per_task\": %.1f,\n", sched.new_chain_ns);
    std::fprintf(f, "    \"steal_ns\": %.1f,\n", sched.steal_ns);
    std::fprintf(f, "    \"steals\": %llu,\n",
                 static_cast<unsigned long long>(sched.fanout_stats.steals));
    std::fprintf(f, "    \"steal_fails\": %llu,\n",
                 static_cast<unsigned long long>(sched.fanout_stats.steal_fails));
    std::fprintf(f, "    \"parks\": %llu,\n",
                 static_cast<unsigned long long>(sched.fanout_stats.parks));
    std::fprintf(f, "    \"wakeups\": %llu,\n",
                 static_cast<unsigned long long>(sched.fanout_stats.wakeups));
    std::fprintf(f, "    \"immediate_successor_hits\": %llu\n",
                 static_cast<unsigned long long>(sched.chain_stats.immediate_successor_hits));
    std::fprintf(f, "  },\n");
    // Wire counters from a small real TCP-loopback run (see measure_net).
    const auto u64 = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    std::fprintf(f, "  \"net\": {\n");
    std::fprintf(f, "    \"transport\": \"tcp-loopback\",\n");
    std::fprintf(f, "    \"ranks\": %d,\n", netm.ranks);
    std::fprintf(f, "    \"messages\": %llu,\n", u64(netm.messages));
    std::fprintf(f, "    \"bytes_sent\": %llu,\n", u64(netm.counters.bytes_sent));
    std::fprintf(f, "    \"bytes_received\": %llu,\n", u64(netm.counters.bytes_received));
    std::fprintf(f, "    \"frames_sent\": %llu,\n", u64(netm.counters.frames_sent));
    std::fprintf(f, "    \"frames_received\": %llu,\n", u64(netm.counters.frames_received));
    std::fprintf(f, "    \"rendezvous\": %llu,\n", u64(netm.counters.rendezvous));
    std::fprintf(f, "    \"reconnects\": %llu,\n", u64(netm.counters.reconnects));
    std::fprintf(f, "    \"total_s\": %.6f,\n", netm.total_s);
    std::fprintf(f, "    \"checksums_match_inproc\": %s\n",
                 netm.checksums_match_inproc ? "true" : "false");
    std::fprintf(f, "  },\n");
    // Transport fast paths at the 16-node strong-scaling analog (see
    // measure_transport): tcp vs shm vs auto, coalescing off and on, all
    // with zero-copy pack. The coalesce rows show the frames/bytes drop;
    // the shm rows show the wall-time win over TCP loopback.
    std::fprintf(f, "  \"transport\": {\n");
    std::fprintf(f, "    \"ranks\": %d,\n", transm.ranks);
    std::fprintf(f, "    \"strong_scaling_nodes\": %d,\n", transm.strong_scaling_nodes);
    std::fprintf(f, "    \"rndv_threshold\": %llu,\n", u64(transm.rndv_threshold));
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < transm.points.size(); ++i) {
        const TransportPoint& p = transm.points[i];
        std::fprintf(f,
                     "      {\"transport\": \"%s\", \"coalesce\": %s, \"total_s\": %.6f, "
                     "\"messages\": %llu, \"frames_sent\": %llu, \"bytes_sent\": %llu, "
                     "\"rendezvous\": %llu, \"coalesced_frames_sent\": %llu, "
                     "\"coalesced_messages\": %llu, \"copies_elided\": %llu, "
                     "\"checksums_match_inproc\": %s}%s\n",
                     p.transport.c_str(), p.coalesce ? "true" : "false", p.total_s,
                     u64(p.messages), u64(p.counters.frames_sent), u64(p.counters.bytes_sent),
                     u64(p.counters.rendezvous), u64(p.counters.coalesced_frames_sent),
                     u64(p.counters.coalesced_messages), u64(p.counters.copies_elided),
                     p.checksums_match_inproc ? "true" : "false",
                     i + 1 < transm.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    // Tracing overhead + the unified metrics snapshot of the traced run
    // (same dfamr_metrics_v1 structure single_sphere --trace_out writes).
    std::fprintf(f, "  \"trace\": {\n");
    std::fprintf(f, "    \"untraced_s\": %.6f,\n", tracem.untraced_s);
    std::fprintf(f, "    \"traced_s\": %.6f,\n", tracem.traced_s);
    std::fprintf(f, "    \"overhead_frac\": %.4f,\n", tracem.overhead_frac);
    std::fprintf(f, "    \"metrics\": %s", core::metrics_to_json(tracem.snapshot).c_str());
    std::fprintf(f, "  },\n");
    // Multi-tenant serving throughput over the DFS1 wire (see
    // measure_serving): same pool, 1 tenant vs 8 tenants, each point a full
    // loadgen report (throughput, p50/p99 latency, suspend + verify counts).
    std::fprintf(f, "  \"serving\": {\n");
    std::fprintf(f, "    \"pool_workers\": %d,\n", servem.pool_workers);
    std::fprintf(f, "    \"jobs_per_point\": %d,\n", servem.jobs);
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < servem.points.size(); ++i) {
        const ServePoint& p = servem.points[i];
        std::fprintf(f, "      {\"tenants\": %d, \"report\": %s}%s\n", p.tenants,
                     p.report.to_json().c_str(), i + 1 < servem.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    // Scenario subsystem: problem-generator workloads under estimator-driven
    // refinement (see measure_scenarios). error_norm is the volume-weighted
    // L1 distance to the analytic reference (-1 when the scenario has none);
    // thrash must stay 0, mass_drift must be exactly 0 (Berger-Colella
    // refluxing) and checksums must agree across all variants.
    std::fprintf(f, "  \"scenarios\": {\n");
    std::fprintf(f, "    \"refine_threshold\": 0.1,\n");
    std::fprintf(f, "    \"deref_count\": 3,\n");
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < scen.size(); ++i) {
        const ScenarioPoint& p = scen[i];
        std::fprintf(f,
                     "      {\"scenario\": \"%s\", \"estimator\": \"%s\", "
                     "\"final_blocks\": %lld, \"estimator_splits\": %lld, "
                     "\"thrash\": %lld, \"error_norm\": %.9g, "
                     "\"mass_drift\": %.17g, \"reflux_corrections\": %lld, "
                     "\"total_s\": %.6f, "
                     "\"checksums_match_across_variants\": %s}%s\n",
                     p.scenario.c_str(), p.estimator.c_str(),
                     static_cast<long long>(p.final_blocks),
                     static_cast<long long>(p.estimator_splits),
                     static_cast<long long>(p.thrash),
                     p.has_error_norm ? p.error_norm : -1.0, p.mass_drift,
                     static_cast<long long>(p.reflux_corrections), p.total_s,
                     p.checksums_match_across_variants ? "true" : "false",
                     i + 1 < scen.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    const char* out = argc > 1 ? argv[1] : "BENCH_scaling.json";
    int max_nodes = argc > 2 ? std::atoi(argv[2]) : 16;
    if (max_nodes < 1) max_nodes = 1;

    const CostModel costs;
    std::vector<int> node_counts;
    for (int n = 1; n <= max_nodes; n *= 2) node_counts.push_back(n);

    struct Setup {
        Variant variant;
        int ranks_per_node;
        const char* name;
    };
    const Setup setups[] = {
        {Variant::MpiOnly, 48, "MPI-only"},
        {Variant::ForkJoin, 4, "MPI+OMP"},
        {Variant::TampiOss, 4, "TAMPI+OSS"},
    };

    std::vector<Row> rows;
    // One-node baselines per (series, variant) for efficiency, and the
    // MPI-only baseline per series for cross-variant speedup.
    std::map<std::pair<std::string, std::string>, double> base_gflops;

    const Config weak = weak_scaling_config();
    const Config strong = strong_scaling_config();
    const Vec3i strong_big = sim::factor3(48 * 256);
    const Vec3i strong_small = sim::factor3(48 * 256 / 16);

    for (const char* series : {"weak", "strong"}) {
        const bool is_weak = std::string(series) == "weak";
        for (const Setup& s : setups) {
            for (int nodes : node_counts) {
                const Vec3i grid = is_weak ? sim::factor3(48 * nodes)
                                           : (nodes <= 8 ? strong_small : strong_big);
                const SimResult r = run_point(is_weak ? weak : strong, s.variant, nodes,
                                              s.ranks_per_node, grid, costs);
                Row row;
                row.series = series;
                row.variant = s.name;
                row.nodes = nodes;
                row.ranks = nodes * s.ranks_per_node;
                row.blocks = static_cast<long long>(grid.product());
                row.total_s = r.total_s;
                row.refine_s = r.refine_s;
                row.gflops = r.gflops();
                if (nodes == node_counts.front()) {
                    base_gflops[{series, s.name}] = row.gflops;
                }
                row.speedup = row.gflops / base_gflops.at({series, "MPI-only"});
                row.efficiency = row.gflops / (base_gflops.at({series, s.name}) * nodes);
                rows.push_back(row);
                std::printf("%-6s %-10s %3d nodes: %8.2f GFLOPS  eff %.3f\n", series, s.name,
                            nodes, row.gflops, row.efficiency);
            }
        }
    }

    std::printf("running scheduler microbenchmark...\n");
    const SchedMeasurement sched = measure_scheduler(/*workers=*/2, /*tasks=*/100000);

    std::printf("running TCP loopback wire measurement...\n");
    const NetMeasurement netm = measure_net();
    std::printf("net: %d ranks, %llu frames, %llu rendezvous, checksums %s\n", netm.ranks,
                static_cast<unsigned long long>(netm.counters.frames_sent),
                static_cast<unsigned long long>(netm.counters.rendezvous),
                netm.checksums_match_inproc ? "match inproc" : "DIVERGED");

    std::printf("running transport fast-path measurement...\n");
    const TransportMeasurement transm = measure_transport();
    for (const TransportPoint& p : transm.points) {
        std::printf("transport: %-9s coalesce=%-3s %8.3f ms, %6llu frames, %9llu bytes, "
                    "%5llu elided copies, checksums %s\n",
                    p.transport.c_str(), p.coalesce ? "on" : "off", p.total_s * 1e3,
                    static_cast<unsigned long long>(p.counters.frames_sent),
                    static_cast<unsigned long long>(p.counters.bytes_sent),
                    static_cast<unsigned long long>(p.counters.copies_elided),
                    p.checksums_match_inproc ? "match inproc" : "DIVERGED");
    }

    std::printf("running tracing overhead measurement...\n");
    const TraceMeasurement tracem = measure_trace();
    std::printf("trace: median of %d pairs %.3f ms untraced vs %.3f ms traced (overhead %.1f%%), "
                "%llu events on %d cores\n",
                kTracePairs, tracem.untraced_s * 1e3, tracem.traced_s * 1e3,
                tracem.overhead_frac * 100,
                static_cast<unsigned long long>(tracem.snapshot.trace.events),
                tracem.snapshot.trace.cores);

    std::printf("running serving throughput measurement...\n");
    const ServeMeasurement servem = measure_serving();
    for (const ServePoint& p : servem.points) {
        std::printf("serving: %d tenant%s: %.1f jobs/s, p50 %.0f ms, p99 %.0f ms, "
                    "%d suspended, %d mismatches\n",
                    p.tenants, p.tenants == 1 ? "" : "s", p.report.jobs_per_s, p.report.p50_ms,
                    p.report.p99_ms, p.report.suspended_jobs, p.report.checksum_mismatches);
    }

    std::printf("running scenario measurement...\n");
    const std::vector<ScenarioPoint> scen = measure_scenarios();
    for (const ScenarioPoint& p : scen) {
        std::printf("scenario: %-16s %-9s %4lld blocks, %4lld splits, thrash %lld, "
                    "error %.3g, drift %.3g (%lld refluxes), checksums %s\n",
                    p.scenario.c_str(), p.estimator.c_str(),
                    static_cast<long long>(p.final_blocks),
                    static_cast<long long>(p.estimator_splits),
                    static_cast<long long>(p.thrash), p.has_error_norm ? p.error_norm : -1.0,
                    p.mass_drift, static_cast<long long>(p.reflux_corrections),
                    p.checksums_match_across_variants ? "match across variants" : "DIVERGED");
    }

    write_json(out, rows, max_nodes, sched, netm, transm, tracem, servem, scen);
    std::printf("wrote %s (%zu points)\n", out, rows.size());
    return 0;
}
