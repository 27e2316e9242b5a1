// One benchmark sample per process: runs a workload in one layout through
// core::run_variant (or the layer probes) and prints one JSON line. run.py
// starts a fresh process per sample so peak RSS and allocator state never
// carry over between samples.
//
//   perfbench_sample run <workload> <layout> <seed> [--trace] [--tol X] [--tsteps N]
//   perfbench_sample probes <workload> <seed>
//   perfbench_sample info
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/timing.hpp"
#include "core/variants.hpp"
#include "json_out.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace dfamr;

namespace {

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void add_trace(perfbench::JsonObject& out, const amr::TraceAnalysis& a) {
    perfbench::JsonObject busy;
    for (const auto& [kind, ns] : a.busy_ns_by_kind) busy.num(amr::to_string(kind), ns * 1e-9);
    perfbench::JsonObject t;
    t.obj("busy_s", busy);
    t.num("span_s", a.span_ns * 1e-9);
    t.num("compute_busy_s", a.busy_ns * 1e-9);
    t.num("utilization", a.utilization);
    t.num("largest_idle_gap_ms", a.largest_idle_gap_ns * 1e-6);
    t.integer("events", static_cast<std::int64_t>(a.events));
    out.obj("trace", t);
}

int run_sample(int argc, char** argv) {
    if (argc < 5) throw ConfigError("usage: run <workload> <layout> <seed> [options]");
    const std::string workload = argv[2];
    const perfbench::Layout& layout = perfbench::find_layout(argv[3]);
    const auto seed = static_cast<std::uint64_t>(std::strtoull(argv[4], nullptr, 10));
    amr::Config cfg = perfbench::make_config(workload, layout, seed);
    bool traced = false;
    for (int i = 5; i < argc; ++i) {
        const std::string opt = argv[i];
        if (opt == "--trace") {
            traced = true;
        } else if (opt == "--tol" && i + 1 < argc) {
            cfg.tol = std::strtod(argv[++i], nullptr);
        } else if (opt == "--tsteps" && i + 1 < argc) {
            cfg.num_tsteps = std::atoi(argv[++i]);
        } else {
            throw ConfigError("unknown option '" + opt + "'");
        }
    }

    amr::Tracer tracer;
    tracer.enable(traced);
    const std::int64_t t0 = now_ns();
    const core::RunResult r = core::run_variant(cfg, layout.variant, traced ? &tracer : nullptr);
    const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    perfbench::JsonObject out;
    out.str("workload", workload);
    out.str("layout", layout.name);
    out.integer("seed", static_cast<std::int64_t>(seed));
    out.boolean("validation_ok", r.validation_ok);
    out.boolean("conservative", cfg.scenario != "synthetic");
    out.integer("cores", cfg.num_ranks() * cfg.workers);
    out.num("wall_s", r.times.total);
    out.num("setup_s", wall_s - r.times.total);
    out.num("refine_s", r.times.refine);
    out.num("comm_s", r.times.comm);
    out.num("gflops", r.gflops());
    out.hex_list("checksums", r.checksums);
    out.integer("flops", r.total_flops);
    out.integer("final_blocks", r.final_blocks);
    out.integer("messages", static_cast<std::int64_t>(r.messages));
    out.integer("bytes", static_cast<std::int64_t>(r.bytes));
    out.integer("blocks_split", r.counters.blocks_split);
    out.integer("blocks_merged", r.counters.blocks_merged);
    out.integer("blocks_moved", r.counters.blocks_moved);
    out.integer("estimator_splits", r.counters.blocks_refined_by_estimator);
    out.integer("reflux_corrections", r.counters.reflux_corrections);
    out.num("mass_drift", r.mass_drift);
    out.num("mass_budget_residual", r.final_mass - r.initial_mass + r.boundary_outflux);
    out.num("initial_mass", r.initial_mass);
    out.integer("tasks", static_cast<std::int64_t>(r.sched.tasks_executed));
    out.integer("steals", static_cast<std::int64_t>(r.sched.steals));
    out.integer("parks", static_cast<std::int64_t>(r.sched.parks));
    out.integer("immediate_successor_hits",
                static_cast<std::int64_t>(r.sched.immediate_successor_hits));
    if (traced) add_trace(out, tracer.analyze());
    out.num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int print_info() {
    perfbench::JsonObject out;
    out.str("compiler", PERFBENCH_COMPILER);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const std::string mode = argc > 1 ? argv[1] : "";
        if (mode == "run") return run_sample(argc, argv);
        if (mode == "probes") return perfbench::run_probes(argc, argv);
        if (mode == "info") return print_info();
        throw ConfigError("usage: perfbench_sample run|probes|info ...");
    } catch (const std::exception& e) {
        perfbench::JsonObject out;
        out.str("error", e.what());
        std::printf("%s\n", out.text().c_str());
        return 1;
    }
}
