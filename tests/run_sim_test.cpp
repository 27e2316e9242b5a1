// Tests for the simulated (DES) mini-app runs: layout helpers, basic sanity
// of the per-variant DAG builders, determinism, the qualitative
// relationships the paper's evaluation rests on, the runs the DES refuses,
// and the structural cross-check of the DES's models against the drivers.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/error.hpp"
#include "core/variants.hpp"
#include "sim/run_sim.hpp"

namespace dfamr::sim {
namespace {

using amr::Config;
using amr::Variant;

CostModel test_costs() {
    CostModel m;  // defaults, no calibration: deterministic across machines
    return m;
}

Config small_app(int total_ranks, Vec3i block_grid) {
    Config cfg;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 4;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.block_change = 1;
    arrange(cfg, block_grid, total_ranks);

    amr::ObjectSpec sphere;
    sphere.type = amr::ObjectType::SpheroidSurface;
    sphere.center = {0.2, 0.2, 0.2};
    sphere.size = {0.2, 0.2, 0.2};
    sphere.move = {0.1, 0.05, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    return cfg;
}

TEST(Layout, Factor3Balanced) {
    EXPECT_EQ(factor3(48), (Vec3i{4, 4, 3}));
    EXPECT_EQ(factor3(64), (Vec3i{4, 4, 4}));
    EXPECT_EQ(factor3(1), (Vec3i{1, 1, 1}));
    const Vec3i f = factor3(96);
    EXPECT_EQ(f.product(), 96);
}

TEST(Layout, RankGridDividesBlocks) {
    const Vec3i blocks{8, 6, 4};
    for (int ranks : {1, 2, 4, 8, 16, 32, 64, 96, 192}) {
        const Vec3i g = rank_grid_dividing(blocks, ranks);
        EXPECT_EQ(g.product(), ranks) << ranks;
        EXPECT_EQ(blocks.x % g.x, 0);
        EXPECT_EQ(blocks.y % g.y, 0);
        EXPECT_EQ(blocks.z % g.z, 0);
    }
}

TEST(Layout, ArrangePreservesGlobalGrid) {
    Config cfg;
    arrange(cfg, {8, 6, 4}, 16);
    EXPECT_EQ(cfg.npx * cfg.init_x, 8);
    EXPECT_EQ(cfg.npy * cfg.init_y, 6);
    EXPECT_EQ(cfg.npz * cfg.init_z, 4);
    EXPECT_EQ(cfg.num_ranks(), 16);
}

class SimVariants : public ::testing::TestWithParam<Variant> {};
INSTANTIATE_TEST_SUITE_P(AllVariants, SimVariants,
                         ::testing::Values(Variant::MpiOnly, Variant::ForkJoin,
                                           Variant::TampiOss),
                         [](const auto& pinfo) {
                             switch (pinfo.param) {
                                 case Variant::MpiOnly: return std::string("MpiOnly");
                                 case Variant::ForkJoin: return std::string("ForkJoin");
                                 default: return std::string("TampiOss");
                             }
                         });

ClusterSpec cluster_for(Variant v, int nodes = 2) {
    ClusterSpec c;
    c.nodes = nodes;
    c.cores_per_node = 4;
    c.cores_per_socket = 2;
    c.ranks_per_node = v == Variant::MpiOnly ? 4 : 2;  // hybrid: 2 cores/rank
    return c;
}

TEST_P(SimVariants, RunsAndReportsSaneNumbers) {
    const Variant v = GetParam();
    const ClusterSpec cluster = cluster_for(v);
    const Config cfg = small_app(cluster.total_ranks(), {4, 2, 2});
    const SimResult r = run_simulated(cfg, v, cluster, test_costs());
    EXPECT_GT(r.total_s, 0);
    EXPECT_GT(r.refine_s, 0);
    EXPECT_LT(r.refine_s, r.total_s);
    EXPECT_GT(r.total_flops, 0);
    EXPECT_GT(r.final_blocks, 0);
    EXPECT_GT(r.stats.tasks, 0u);
    EXPECT_GT(r.stats.messages, 0u);
}

TEST_P(SimVariants, Deterministic) {
    const Variant v = GetParam();
    const ClusterSpec cluster = cluster_for(v);
    const Config cfg = small_app(cluster.total_ranks(), {4, 2, 2});
    const SimResult a = run_simulated(cfg, v, cluster, test_costs());
    const SimResult b = run_simulated(cfg, v, cluster, test_costs());
    EXPECT_EQ(a.total_s, b.total_s);
    EXPECT_EQ(a.refine_s, b.refine_s);
    EXPECT_EQ(a.stats.tasks, b.stats.tasks);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
}

TEST(SimRelations, VariantsAgreeOnPhysics) {
    // Same mesh evolution -> same FLOPs and final block counts everywhere.
    const Config base = small_app(8, {4, 2, 2});
    ClusterSpec mpi = cluster_for(Variant::MpiOnly);
    ClusterSpec hyb = cluster_for(Variant::ForkJoin);
    Config hcfg = small_app(hyb.total_ranks(), {4, 2, 2});
    const SimResult a = run_simulated(base, Variant::MpiOnly, mpi, test_costs());
    const SimResult b = run_simulated(hcfg, Variant::ForkJoin, hyb, test_costs());
    const SimResult c = run_simulated(hcfg, Variant::TampiOss, hyb, test_costs());
    EXPECT_EQ(a.total_flops, b.total_flops);
    EXPECT_EQ(a.total_flops, c.total_flops);
    EXPECT_EQ(a.final_blocks, b.final_blocks);
    EXPECT_EQ(a.final_blocks, c.final_blocks);
}

TEST(SimRelations, DataFlowBeatsForkJoinOnHybridNodes) {
    // The paper's core claim: with equal resources on full-size nodes, the
    // task-based variant's non-refinement time beats fork-join's.
    ClusterSpec hyb;
    hyb.nodes = 4;
    hyb.cores_per_node = 48;
    hyb.ranks_per_node = 4;
    Config cfg;
    cfg.nx = cfg.ny = cfg.nz = 12;
    cfg.num_vars = 40;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 4;
    cfg.num_refine = 3;
    cfg.refine_freq = 2;
    cfg.block_change = 1;
    arrange(cfg, factor3(48 * hyb.nodes), hyb.total_ranks());
    amr::ObjectSpec sphere;
    sphere.type = amr::ObjectType::SpheroidSurface;
    sphere.center = {0.2, 0.2, 0.2};
    sphere.size = {0.2, 0.2, 0.2};
    sphere.move = {0.08, 0.05, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);

    const SimResult fj = run_simulated(cfg, Variant::ForkJoin, hyb, test_costs());
    Config tcfg = cfg;
    tcfg.send_faces = true;
    tcfg.separate_buffers = true;
    tcfg.max_comm_tasks = 8;
    const SimResult df = run_simulated(tcfg, Variant::TampiOss, hyb, test_costs());
    EXPECT_LT(df.non_refine_s(), fj.non_refine_s());
}

TEST(SimRelations, MoreNodesMoreThroughput) {
    // Weak scaling: doubling nodes with double the blocks must increase
    // total FLOPS throughput for every variant.
    for (Variant v : {Variant::MpiOnly, Variant::TampiOss}) {
        ClusterSpec c2 = cluster_for(v, 2), c4 = cluster_for(v, 4);
        const Config cfg2 = small_app(c2.total_ranks(), {4, 2, 2});
        const Config cfg4 = small_app(c4.total_ranks(), {4, 4, 2});
        const SimResult r2 = run_simulated(cfg2, v, c2, test_costs());
        const SimResult r4 = run_simulated(cfg4, v, c4, test_costs());
        EXPECT_GT(r4.gflops(), r2.gflops() * 1.2) << to_string(v);
    }
}

TEST(SimRelations, SeparateBuffersHelpTaskVariant) {
    ClusterSpec hyb = cluster_for(Variant::TampiOss, 4);
    Config shared = small_app(hyb.total_ranks(), {4, 4, 2});
    shared.refine_freq = 0;  // isolate the communication effect
    Config separate = shared;
    separate.separate_buffers = true;
    const SimResult a = run_simulated(shared, Variant::TampiOss, hyb, test_costs());
    const SimResult b = run_simulated(separate, Variant::TampiOss, hyb, test_costs());
    EXPECT_LE(b.total_s, a.total_s * 1.001) << "separate buffers must not hurt";
}

TEST(SimTrace, TracerReceivesSimulatedTimeline) {
    ClusterSpec hyb = cluster_for(Variant::TampiOss, 2);
    Config cfg = small_app(hyb.total_ranks(), {4, 2, 2});
    cfg.num_tsteps = 1;
    amr::Tracer tracer;
    tracer.enable(true);
    (void)run_simulated(cfg, Variant::TampiOss, hyb, test_costs(), &tracer);
    const amr::TraceAnalysis a = tracer.analyze();
    EXPECT_GT(a.busy_ns, 0);
    EXPECT_GT(a.overlap_ns, 0) << "phases must overlap in the data-flow variant";
    EXPECT_TRUE(a.busy_ns_by_kind.count(amr::PhaseKind::Stencil));
}

TEST(SimCosts, MpiOnlyAndForkJoinChargeTheSameSameRankCopies) {
    // At one core per rank fork-join's workshared same-rank region is the
    // MPI-only loop: both charge each boundary reflection its direction's
    // face, which differs per axis on non-cubic blocks.
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.cores_per_node = 2;
    cluster.ranks_per_node = 2;
    Config cfg = small_app(cluster.total_ranks(), {2, 2, 2});
    cfg.nx = 4;
    cfg.ny = 6;
    cfg.nz = 8;
    cfg.refine_freq = 0;
    const SimResult mpi = run_simulated(cfg, Variant::MpiOnly, cluster, test_costs());
    const SimResult fj = run_simulated(cfg, Variant::ForkJoin, cluster, test_costs());
    const std::int64_t copies = mpi.stats.busy_ns_by_kind.at(amr::PhaseKind::IntraCopy);
    EXPECT_GT(copies, 0);
    EXPECT_EQ(copies, fj.stats.busy_ns_by_kind.at(amr::PhaseKind::IntraCopy));
}

// The DES models the synthetic stencil refined around the objects: a
// scenario run or a field estimator would be priced as that run instead.
void expect_rejected(void (*edit)(Config&), const std::string& field) {
    const ClusterSpec cluster = cluster_for(Variant::MpiOnly);
    Config cfg = small_app(cluster.total_ranks(), {4, 2, 2});
    edit(cfg);
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss}) {
        try {
            (void)run_simulated(cfg, v, cluster, test_costs());
            ADD_FAILURE() << "accepted a run with another " << field;
        } catch (const ConfigError& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }
}

TEST(SimRejects, ScenarioRuns) {
    expect_rejected([](Config& c) { c.scenario = "slotted_cylinder"; }, "scenario");
}

TEST(SimRejects, FieldEstimators) {
    expect_rejected([](Config& c) { c.estimator = "gradient"; }, "estimator");
}

// The drivers and the DES run one program (amr/program.hpp), so they refine,
// coarsen, move and balance the same blocks.
void expect_same_refinement(const amr::RunCounters& sim, const amr::RunCounters& real) {
    EXPECT_EQ(sim.blocks_split, real.blocks_split);
    EXPECT_EQ(sim.blocks_merged, real.blocks_merged);
    EXPECT_EQ(sim.blocks_moved, real.blocks_moved);
    EXPECT_EQ(sim.refinement_phases, real.refinement_phases);
    EXPECT_EQ(sim.load_balances, real.load_balances);
    EXPECT_EQ(sim.refine_coarsen_thrash, real.refine_coarsen_thrash);
}

// DESIGN.md §6's structural cross-check: TampiOssDriver and the DES build
// their data-flow tasks from one description (amr/task_graph.hpp). At one
// core per rank no task completes while the main thread submits, so both
// must submit the same tasks, wire the same dependency edges and send the
// same messages. With refinement the DES also models the main thread's
// control work as tasks, which the driver runs outside its runtime, so the
// DES's data-flow tasks are the ones compared.
void expect_des_matches_driver(Config cfg) {
    cfg.workers = 1;
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.ranks_per_node = cfg.num_ranks();
    cluster.cores_per_node = cfg.num_ranks();
    const SimResult sim = run_simulated(cfg, Variant::TampiOss, cluster, test_costs());
    const core::RunResult real = core::run_variant(cfg, Variant::TampiOss);
    ASSERT_TRUE(real.validation_ok);
    EXPECT_GT(sim.stats.edges, 0u);
    EXPECT_EQ(sim.stats.dataflow_tasks, real.sched.tasks_executed);
    EXPECT_EQ(sim.stats.edges, real.sched.edges_added);
    EXPECT_EQ(sim.stats.messages, real.messages);
    EXPECT_EQ(sim.final_blocks, real.final_blocks);
    expect_same_refinement(sim.counters, real.counters);
}

void on_every_config(bool refine, const std::function<void(const Config&)>& expect_match) {
    Config base = small_app(2, {4, 2, 2});
    if (!refine) base.refine_freq = 0;
    struct Case {
        const char* name;
        void (*edit)(Config&);
    };
    const Case cases[] = {
        {"aggregated", [](Config&) {}},
        {"send_faces", [](Config& c) { c.send_faces = true; }},
        {"max_comm_tasks_2",
         [](Config& c) {
             c.send_faces = true;
             c.max_comm_tasks = 2;
         }},
        {"separate_buffers_delayed_checksum",
         [](Config& c) {
             c.separate_buffers = true;
             c.delayed_checksum = true;
         }},
        {"stencil27", [](Config& c) { c.stencil = 27; }},
        {"cells_4x6x8",
         [](Config& c) {
             c.nx = 4;
             c.ny = 6;
             c.nz = 8;
         }},
        {"one_rank", [](Config& c) { arrange(c, {4, 2, 2}, 1); }},
        // Groups of 3, 3 and 2 variables: the narrower last group's stream
        // sections follow the same layout rule in both.
        {"comm_vars_3", [](Config& c) { c.comm_vars = 3; }},
        {"comm_vars_3_send_faces",
         [](Config& c) {
             c.comm_vars = 3;
             c.send_faces = true;
         }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        Config cfg = base;
        c.edit(cfg);
        expect_match(cfg);
    }
}

TEST(SimMatchesDriver, DataFlowGraphWithoutRefinement) {
    on_every_config(false, expect_des_matches_driver);
}

TEST(SimMatchesDriver, DataFlowGraphWithRefinement) {
    on_every_config(true, expect_des_matches_driver);
}

// SyncDriver and the DES's MPI-only and fork-join models run the same graph
// through the same loop rule: they send the same messages (exchange chunks,
// block transfers and the exchange protocol's control messages), count the
// same flops and end with the same blocks. Fork-join runs 2 cores per rank.
void expect_bulk_des_matches_driver(Config cfg) {
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin}) {
        SCOPED_TRACE(to_string(v));
        cfg.workers = v == Variant::ForkJoin ? 2 : 1;
        ClusterSpec cluster;
        cluster.nodes = 1;
        cluster.ranks_per_node = cfg.num_ranks();
        cluster.cores_per_node = cfg.num_ranks() * cfg.workers;
        const SimResult sim = run_simulated(cfg, v, cluster, test_costs());
        const core::RunResult real = core::run_variant(cfg, v);
        ASSERT_TRUE(real.validation_ok);
        EXPECT_EQ(sim.stats.messages, real.messages);
        EXPECT_EQ(sim.total_flops, real.total_flops);
        EXPECT_EQ(sim.final_blocks, real.final_blocks);
        expect_same_refinement(sim.counters, real.counters);
    }
}

TEST(SimMatchesDriver, BulkSynchronousWithoutRefinement) {
    on_every_config(false, expect_bulk_des_matches_driver);
}

TEST(SimMatchesDriver, BulkSynchronousWithRefinement) {
    on_every_config(true, expect_bulk_des_matches_driver);
}

// The DES plans with the drivers' planner, so it runs any refine_threshold
// and deref_count: each setting changes the DES's mesh evolution the way it
// changes the drivers', in every variant.
Config planner_app(void (*edit)(Config&)) {
    Config cfg = small_app(2, {4, 2, 2});
    edit(cfg);
    expect_des_matches_driver(cfg);
    expect_bulk_des_matches_driver(cfg);
    return cfg;
}

SimResult run_mpi_only(const Config& cfg) {
    ClusterSpec cluster;
    cluster.nodes = 1;
    cluster.ranks_per_node = cfg.num_ranks();
    cluster.cores_per_node = cfg.num_ranks();
    return run_simulated(cfg, Variant::MpiOnly, cluster, test_costs());
}

// A block coarsens only after 3 willing checks, so fewer blocks merge.
TEST(SimPlanner, DerefHysteresis) {
    const Config cfg = planner_app([](Config& c) { c.deref_count = 3; });
    const SimResult plain = run_mpi_only(small_app(2, {4, 2, 2}));
    const SimResult held = run_mpi_only(cfg);
    EXPECT_GT(plain.counters.blocks_merged, 0);
    EXPECT_LT(held.counters.blocks_merged, plain.counters.blocks_merged);
}

// No object score (0 or 1) exceeds 1.0, so nothing refines; none falls
// below 0.0, so nothing coarsens.
TEST(SimPlanner, RefineThreshold) {
    const Config high = planner_app([](Config& c) { c.refine_threshold = 1.0; });
    const SimResult none = run_mpi_only(high);
    EXPECT_EQ(none.counters.blocks_split, 0);
    EXPECT_EQ(none.final_blocks, 16);
    const Config low = planner_app([](Config& c) { c.refine_threshold = 0.0; });
    const SimResult kept = run_mpi_only(low);
    EXPECT_GT(kept.counters.blocks_split, 0);
    EXPECT_EQ(kept.counters.blocks_merged, 0);
}

}  // namespace
}  // namespace dfamr::sim
