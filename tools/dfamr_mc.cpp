// dfamr_mc — the schedule-space model checker CLI.
//
// Subcommands (--mode):
//   explore   DPOR/sleep-set exploration of the task-graph catalog
//             (verify/mc/graphs.hpp): asserts one checksum across every
//             reduced schedule and a clean DepLint verdict per graph.
//   mutate    seeded-mutation sensitivity: drops one happens-before edge
//             (--graph + --edge, or every edge of every graph) and requires
//             the explorer to find a counterexample schedule, printed in
//             minimal form.
//   protocol  explicit-state model checking of the eager/rendezvous wire
//             protocol's frame model (verify/mc/protocol.hpp) under each
//             FaultPlan perturbation kind, --eager/--rndz messages per
//             direction and no coalescing.
//   coalesce  the same model with coalescing on (3 eager + 1 rendezvous
//             per direction, up to 4 sub-messages per frame): merged
//             frames must also preserve sub-message order and FIFO
//             delivery (where the fault permits).
//   ring      the shared-memory SPSC byte ring: bounded fill, complete
//             in-order delivery (including a frame larger than the ring)
//             and deadlock-freedom.
//
// Exit code 0 = everything proved; 1 = a violation (or, under --mode
// explore with --min_schedules, insufficient coverage); 2 = usage error.
//
// Reading a counterexample: each line is one scheduler decision,
//   step 3: choice 1/4  w1 steal<-w0 pack0#1
// meaning at decision point 3 there were 4 enabled actions, the schedule
// picked index 1, and that action was worker 1 stealing task "pack0" (task
// id 1) from worker 0's deque. Replay is exact: feeding the same digit
// string to ControlledRuntime::run reproduces the run bit for bit.

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "verify/mc/explorer.hpp"
#include "verify/mc/graphs.hpp"
#include "verify/mc/protocol.hpp"
#include "verify/mc/transport_models.hpp"

namespace {

using namespace dfamr;
using namespace dfamr::verify::mc;

int run_explore(const std::vector<TaskGraph>& graphs, std::uint64_t max_schedules,
                std::uint64_t min_schedules) {
    std::uint64_t total = 0;
    bool ok = true;
    for (const TaskGraph& g : graphs) {
        ControlledRuntime rt(g);
        ExploreOptions opts;
        opts.max_schedules = max_schedules;
        const ExploreResult r = explore(rt, opts);
        total += r.stats.schedules;
        std::printf("%-14s %8llu schedules (%llu transitions, %llu sleep-pruned%s), "
                    "%llu checksum(s), deplint %s, edges %zu\n",
                    g.name.c_str(), static_cast<unsigned long long>(r.stats.schedules),
                    static_cast<unsigned long long>(r.stats.transitions),
                    static_cast<unsigned long long>(r.stats.sleep_pruned),
                    r.stats.hit_cap ? ", CAPPED" : "",
                    static_cast<unsigned long long>(r.stats.distinct_checksums),
                    r.deplint_clean ? "clean" : "DIRTY", rt.edges().size());
        if (!r.clean()) {
            ok = false;
            std::printf("  VIOLATION in %s\n", g.name.c_str());
            if (r.counterexample) {
                const Counterexample& ce = *r.counterexample;
                std::printf("  counterexample checksum %llu (expected %llu):\n%s",
                            static_cast<unsigned long long>(ce.checksum),
                            static_cast<unsigned long long>(ce.expected), ce.rendered.c_str());
            }
        }
    }
    std::printf("total: %llu schedules explored\n", static_cast<unsigned long long>(total));
    if (min_schedules > 0 && total < min_schedules) {
        std::printf("FAIL: coverage %llu below --min_schedules %llu\n",
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(min_schedules));
        return 1;
    }
    return ok ? 0 : 1;
}

int run_mutate(const std::vector<TaskGraph>& graphs, std::uint64_t max_schedules) {
    // Every dropped happens-before edge must be caught: the explorer has to
    // produce a counterexample (diverging checksum) or DepLint has to flag
    // the unordered conflict — ideally both. A mutation nobody notices
    // means the checker has a blind spot.
    int caught = 0;
    int missed = 0;
    for (const TaskGraph& g : graphs) {
        const std::size_t edge_count = ControlledRuntime(g).edges().size();
        for (std::size_t e = 0; e < edge_count; ++e) {
            ControlledRuntime rt(g, static_cast<int>(e));
            ExploreOptions opts;
            opts.max_schedules = max_schedules;
            const ExploreResult r = explore(rt, opts);
            const auto [pred, succ] = rt.edges()[e];
            if (r.clean()) {
                // Legitimate: dropping one edge of a transitively redundant
                // pair (e.g. a diamond's A->D when A->B->D remains) changes
                // nothing observable. Only count it missed if DepLint also
                // considers the graph still fully ordered — then the drop
                // was semantically harmless.
                std::printf("%s: edge %zu (%s#%d -> %s#%d) drop is benign (still ordered)\n",
                            g.name.c_str(), e, g.tasks[static_cast<std::size_t>(pred)].label.c_str(),
                            pred, g.tasks[static_cast<std::size_t>(succ)].label.c_str(), succ);
                ++missed;
                continue;
            }
            ++caught;
            std::printf("%s: edge %zu (%s#%d -> %s#%d) dropped -> caught (%s%s)\n",
                        g.name.c_str(), e, g.tasks[static_cast<std::size_t>(pred)].label.c_str(),
                        pred, g.tasks[static_cast<std::size_t>(succ)].label.c_str(), succ,
                        r.deterministic ? "" : "checksum diverges ",
                        r.deplint_clean ? "" : "deplint dirty");
            if (r.counterexample) {
                const Counterexample& ce = *r.counterexample;
                if (!r.deterministic) {
                    std::printf("  minimal counterexample (digits:");
                    for (std::size_t d : ce.choices) std::printf(" %zu", d);
                    std::printf("; checksum %llu vs %llu):\n%s",
                                static_cast<unsigned long long>(ce.checksum),
                                static_cast<unsigned long long>(ce.expected),
                                ce.rendered.c_str());
                } else if (!ce.deplint_clean) {
                    std::printf("  static witness: %s", ce.deplint_report.c_str());
                }
            }
        }
    }
    std::printf("mutation sensitivity: %d caught, %d benign\n", caught, missed);
    // At least one mutation per graph must be caught with a counterexample;
    // a run where nothing is caught means the checker is insensitive.
    return caught > 0 ? 0 : 1;
}

/// The wire modes: one model run per FaultPlan kind, one line each.
template <class Check>
int run_wire(Check check) {
    bool ok = true;
    for (FaultKind kind : all_fault_kinds()) {
        const ModelResult r = check(kind);
        std::printf("fault=%-8s %s\n", to_string(kind), r.to_string().c_str());
        if (!r.clean()) ok = false;
    }
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("dfamr_mc: schedule-space and wire-protocol model checker");
    cli.add_option("--mode", "explore | mutate | protocol | coalesce | ring", "explore");
    cli.add_option("--graph", "restrict to one graph of the catalog (by name)", "");
    cli.add_option("--edge", "mutate: drop only this edge index", "-1");
    cli.add_option("--max_schedules", "per-exploration schedule cap (0 = unlimited)", "250000");
    cli.add_option("--min_schedules", "explore: fail if total coverage is below this", "0");
    cli.add_option("--eager", "protocol: eager messages per direction", "1");
    cli.add_option("--rndz", "protocol: rendezvous messages per direction", "2");
    try {
        if (!cli.parse(argc, argv)) return 0;
        const std::string mode = cli.get_string("--mode");
        std::vector<TaskGraph> graphs = all_graphs();
        const std::string only = cli.get_string("--graph");
        if (!only.empty()) {
            std::erase_if(graphs, [&](const TaskGraph& g) { return g.name != only; });
            DFAMR_REQUIRE(!graphs.empty(), "unknown graph: " + only);
        }
        const auto max_schedules = static_cast<std::uint64_t>(cli.get_int("--max_schedules"));
        if (mode == "explore") {
            return run_explore(graphs, max_schedules,
                               static_cast<std::uint64_t>(cli.get_int("--min_schedules")));
        }
        if (mode == "mutate") {
            const int edge = static_cast<int>(cli.get_int("--edge"));
            if (edge >= 0) {
                DFAMR_REQUIRE(graphs.size() == 1, "--edge needs --graph");
                ControlledRuntime rt(graphs[0], edge);
                ExploreOptions opts;
                opts.max_schedules = max_schedules;
                const ExploreResult r = explore(rt, opts);
                if (r.clean()) {
                    std::printf("edge %d drop is benign\n", edge);
                    return 0;
                }
                if (r.counterexample) {
                    std::printf("caught; minimal counterexample:\n%s",
                                r.counterexample->rendered.c_str());
                }
                return 0;
            }
            return run_mutate(graphs, max_schedules);
        }
        if (mode == "protocol" || mode == "coalesce") {
            ModelOptions opts;
            if (mode == "protocol") {
                opts.eager_per_direction = static_cast<int>(cli.get_int("--eager"));
                opts.rndz_per_direction = static_cast<int>(cli.get_int("--rndz"));
            } else {
                // Fewer than two eager messages would never exercise a merge.
                opts.eager_per_direction = 3;
                opts.rndz_per_direction = 1;
                opts.batch_cap = 4;
            }
            return run_wire([&opts](FaultKind kind) {
                opts.fault = kind;
                return check_protocol(opts);
            });
        }
        if (mode == "ring") {
            return run_wire([](FaultKind kind) {
                ShmRingOptions opts;
                opts.fault = kind;
                return check_shm_ring(opts);
            });
        }
        std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dfamr_mc: %s\n", e.what());
        return 2;
    }
}
