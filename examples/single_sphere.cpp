// The paper's first input problem (§V, from Rico et al.): a big sphere
// entering the mesh from a lower corner, refining the intersecting regions
// as it advances — the input that produces early load imbalance.
//
// Runs the problem in real execution mode (in-process MPI ranks + tasking
// runtime) with a configurable variant, and prints a per-phase summary.
// Defaults are scaled down from the paper's 4-node configuration so the run
// finishes quickly on a development machine; every miniAMR option can be
// overridden on the command line (see --help).
//
//   ./examples/single_sphere
//   ./examples/single_sphere --variant mpi   --npx 4
//   ./examples/single_sphere --variant tampi --send_faces --separate_buffers
//
// With the TCP transport the ranks become real processes:
//
//   ./dfamr_mpirun -n 4 ./examples/single_sphere --transport tcp --npx 4
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "core/variants.hpp"
#include "resilience/fault_plan.hpp"

using namespace dfamr;

namespace {

amr::Variant parse_variant(const std::string& name) {
    if (name == "mpi") return amr::Variant::MpiOnly;
    if (name == "forkjoin") return amr::Variant::ForkJoin;
    if (name == "tampi") return amr::Variant::TampiOss;
    throw ConfigError("unknown variant '" + name + "' (mpi | forkjoin | tampi)");
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli(
        "single_sphere — the Rico et al. input problem: one large sphere entering the mesh "
        "from a lower corner (paper §V)");
    amr::Config::register_cli(cli);
    resilience::FaultConfig::register_cli(cli);
    core::RunOptions::register_cli(cli);
    cli.add_option("--variant", "variant to run: mpi | forkjoin | tampi", "tampi");
    cli.add_option("--trace_csv", "write a per-core trace CSV to this path", "");
    cli.add_option("--trace_out",
                   "write <base>.perfetto.json (Chrome-trace timeline, loadable in "
                   "ui.perfetto.dev) and <base>.metrics.json (the trace analysis and every "
                   "result field, for trace_diff) using this base path",
                   "");
    cli.add_option("--checksum_out",
                   "write the stage checksums (hex doubles, one per line) to this path", "");

    try {
        if (!cli.parse(argc, argv)) return 0;

        // Paper-shaped defaults, scaled down for a workstation: the paper's
        // own run is 20 timesteps x 60 stages on 18^3 x 60-var blocks.
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
        // The sphere still needs to reach the mesh over the shortened run.
        cfg.objects[0].move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};

        // Explicit command-line options override the scaled defaults.
        cfg = amr::Config::from_cli(cli, cfg);

        const amr::Variant variant = parse_variant(cli.get_string("--variant"));
        const core::RunOptions opts = core::RunOptions::from_cli(cli);
        amr::Tracer tracer;
        const std::string trace_path = cli.get_string("--trace_csv");
        const std::string trace_out = cli.get_string("--trace_out");
        tracer.enable(!trace_path.empty() || !trace_out.empty());

        // Under dfamr_mpirun every rank process runs this main; only rank 0
        // talks to the terminal (every process computes the same reduced
        // result, so nothing is lost).
        const char* rank_env = std::getenv("DFAMR_RANK");
        const bool primary = rank_env == nullptr || std::string(rank_env) == "0";

        if (primary) {
            std::printf("single sphere input — %s, %d ranks x %d workers\n",
                        to_string(variant).c_str(), cfg.num_ranks(), cfg.workers);
        }

        // Chaos mode: with any --fault_* knob on, run a fault-free twin
        // first and require the chaos run to reproduce its checksums bit for
        // bit (the resilience layer's correctness contract). The twin always
        // runs in-process (threads-as-ranks inside this very process), even
        // under dfamr_mpirun — it is the transport-independent reference.
        const resilience::FaultConfig fault_cfg = resilience::FaultConfig::from_cli(cli);
        std::unique_ptr<resilience::FaultPlan> plan;
        std::vector<double> reference_checksums;
        if (fault_cfg.enabled()) {
            core::RunOptions twin;
            twin.ignore_launch_env = true;
            reference_checksums = core::run_variant(cfg, variant, nullptr, nullptr, twin).checksums;
            plan = std::make_unique<resilience::FaultPlan>(fault_cfg);
        }
        const core::RunResult r = core::run_variant(
            cfg, variant, tracer.enabled() ? &tracer : nullptr, plan.get(), opts);

        bool chaos_ok = true;
        if (plan) {
            chaos_ok = r.checksums == reference_checksums;
            if (primary) {
                std::printf("chaos: seed %llu, %llu drops, %llu delays — checksums %s\n",
                            static_cast<unsigned long long>(fault_cfg.seed),
                            static_cast<unsigned long long>(plan->drops()),
                            static_cast<unsigned long long>(plan->delays()),
                            chaos_ok ? "bit-identical to the fault-free run" : "DIVERGED");
            }
        }

        const std::string checksum_path = cli.get_string("--checksum_out");
        if (primary && !checksum_path.empty()) {
            // %a is exact (hex float): byte-identical checksums produce
            // byte-identical files, which is what the cross-process golden
            // test diffs.
            std::FILE* f = std::fopen(checksum_path.c_str(), "w");
            DFAMR_REQUIRE(f != nullptr, "cannot open --checksum_out path " + checksum_path);
            for (const double c : r.checksums) std::fprintf(f, "%a\n", c);
            std::fclose(f);
        }

        if (!primary) return r.validation_ok && chaos_ok ? 0 : 1;

        TextTable table({"metric", "value"});
        table.add_row({"total time (s)", TextTable::num(r.times.total, 3)});
        table.add_row({"refinement time (s)", TextTable::num(r.times.refine, 3)});
        table.add_row({"non-refinement time (s)", TextTable::num(r.times.non_refine(), 3)});
        if (variant != amr::Variant::TampiOss) {
            table.add_row({"communication time (s)", TextTable::num(r.times.comm, 3)});
            table.add_row({"stencil time (s)", TextTable::num(r.times.stencil, 3)});
        }
        table.add_row({"GFLOPS", TextTable::num(r.gflops(), 2)});
        table.add_row({"final blocks", std::to_string(r.final_blocks)});
        table.add_row({"MPI messages", std::to_string(r.messages)});
        if (r.net.frames_sent > 0) {
            table.add_row({"wire frames sent", std::to_string(r.net.frames_sent)});
            table.add_row({"wire bytes sent", std::to_string(r.net.bytes_sent)});
            table.add_row({"wire rendezvous", std::to_string(r.net.rendezvous)});
        }
        table.add_row({"checksums validated", std::to_string(r.checksums.size())});
        table.add_row({"validation", r.validation_ok ? "OK" : "FAILED"});
        if (cfg.scenario != "synthetic" || cfg.estimator != "objects") {
            table.add_row({"scenario / estimator", cfg.scenario + " / " + cfg.estimator});
            table.add_row({"estimator-driven splits",
                           std::to_string(r.counters.blocks_refined_by_estimator)});
            table.add_row(
                {"refine/coarsen thrash", std::to_string(r.counters.refine_coarsen_thrash)});
            if (r.has_error_norm) {
                table.add_row({"L1 error vs reference", TextTable::num(r.error_norm, 6)});
            }
            if (cfg.scenario != "synthetic") {
                // Conservation ledger: the drift is the post-reflux residual
                // (exactly zero when every coarse-fine face was corrected);
                // the budget closes as final = initial - outflux to rounding.
                table.add_row({"mass drift (reflux residual)", TextTable::num(r.mass_drift, 17)});
                table.add_row(
                    {"reflux corrections", std::to_string(r.counters.reflux_corrections)});
                table.add_row({"boundary outflux", TextTable::num(r.boundary_outflux, 6)});
                table.add_row({"mass budget residual",
                               TextTable::num(r.final_mass - r.initial_mass + r.boundary_outflux,
                                              6)});
            }
        }
        if (r.sched.tasks_executed > 0) {
            // Scheduler telemetry (all ranks summed); the refine slice shows
            // how much of the stealing happens inside refinement phases.
            table.add_row({"tasks executed", std::to_string(r.sched.tasks_executed)});
            table.add_row({"steals (refine)", std::to_string(r.sched.steals) + " (" +
                                                  std::to_string(r.sched_refine.steals) + ")"});
            table.add_row({"parks / wakeups", std::to_string(r.sched.parks) + " / " +
                                                  std::to_string(r.sched.wakeups)});
            table.add_row({"immediate-successor hits",
                           std::to_string(r.sched.immediate_successor_hits)});
        }
        table.print(std::cout);

        if (tracer.enabled()) {
            const amr::TraceAnalysis a = tracer.analyze();
            if (!trace_path.empty()) {
                std::ofstream out(trace_path);
                out << tracer.to_csv();
            }
            if (!trace_out.empty()) {
                std::ofstream perfetto(trace_out + ".perfetto.json");
                perfetto << tracer.to_chrome_json();
                std::ofstream metrics(trace_out + ".metrics.json");
                metrics << core::metrics_to_json(a, r);
            }
            std::printf(
                "trace: %d cores (+%d progress), utilization %.1f%%, phase overlap %.3f ms, "
                "largest idle gap %.3f ms -> %s\n",
                a.cores, a.progress_lanes, a.utilization * 100, a.overlap_ns * 1e-6,
                a.largest_idle_gap_ns * 1e-6,
                (!trace_out.empty() ? trace_out + ".{perfetto,metrics}.json" : trace_path).c_str());
        }
        return r.validation_ok && chaos_ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
