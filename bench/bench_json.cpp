// Modelled scaling bench: runs the DES Fig. 4 weak-scaling and Fig. 5
// strong-scaling sweeps for the three variants and writes the results as
// JSON (BENCH_scaling.json at the repo root via bench/run_benches.sh or the
// `bench-json` CMake target). The `points` are cost-model outputs, not
// measurements; perfbench/ measures the real code. The one measured section
// is `trace`, the tracing-overhead reading CI's trace-smoke job gates on.
// The human-readable tables stay in fig4_weak_scaling / fig5_strong_scaling.
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

/// Traced vs untraced wall time of the same small real run, plus the
/// metrics JSON of a traced one. Tracks both the tracing
/// overhead contract (record() must stay cheap enough to leave on) and the
/// observability numbers the CI trace-smoke job diffs. The times are the
/// medians of kTracePairs interleaved untraced/traced pairs: one ~20 ms
/// run swings by more than the 10% budget the overhead is gated on.
constexpr int kTracePairs = 7;

struct TraceMeasurement {
    double untraced_s = 0;  // median
    double traced_s = 0;    // median
    double overhead_frac = 0;
    // The last traced run, for its metrics JSON.
    amr::TraceAnalysis trace;
    core::RunResult run;
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
    t.trace = tracer.analyze();
    t.run = std::move(traced);
    return t;
}

void write_json(const char* path, const std::vector<Row>& rows, int max_nodes,
                const TraceMeasurement& tracem) {
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
    // Tracing overhead + the metrics JSON of the traced run
    // (same dfamr_metrics_v1 structure single_sphere --trace_out writes).
    std::fprintf(f, "  \"trace\": {\n");
    std::fprintf(f, "    \"untraced_s\": %.6f,\n", tracem.untraced_s);
    std::fprintf(f, "    \"traced_s\": %.6f,\n", tracem.traced_s);
    std::fprintf(f, "    \"overhead_frac\": %.4f,\n", tracem.overhead_frac);
    std::fprintf(f, "    \"metrics\": %s", core::metrics_to_json(tracem.trace, tracem.run).c_str());
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

    std::printf("running tracing overhead measurement...\n");
    const TraceMeasurement tracem = measure_trace();
    std::printf("trace: median of %d pairs %.3f ms untraced vs %.3f ms traced (overhead %.1f%%), "
                "%llu events on %d cores\n",
                kTracePairs, tracem.untraced_s * 1e3, tracem.traced_s * 1e3,
                tracem.overhead_frac * 100,
                static_cast<unsigned long long>(tracem.trace.events),
                tracem.trace.cores);

    write_json(out, rows, max_nodes, tracem);
    std::printf("wrote %s (%zu points)\n", out, rows.size());
    return 0;
}
