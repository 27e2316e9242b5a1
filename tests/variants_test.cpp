// Integration tests: the three variants run the full mini-app and must
// agree on the physics (identical refinement decisions, matching checksums)
// while exercising their distinct parallelization strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "amr/task_graph.hpp"
#include "core/variants.hpp"

namespace dfamr::core {
namespace {

using amr::Config;
using amr::ObjectSpec;
using amr::ObjectType;
using amr::Variant;

Config tiny_config(int npx = 2, int npy = 1, int npz = 1) {
    Config cfg;
    cfg.npx = npx;
    cfg.npy = npy;
    cfg.npz = npz;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;

    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    return cfg;
}

void expect_checksums_match(const RunResult& a, const RunResult& b, double rel_tol) {
    ASSERT_EQ(a.checksums.size(), b.checksums.size());
    for (std::size_t i = 0; i < a.checksums.size(); ++i) {
        const double scale = std::max(1.0, std::abs(a.checksums[i]));
        EXPECT_NEAR(a.checksums[i], b.checksums[i], rel_tol * scale) << "checksum stage " << i;
    }
}

TEST(Variants, MpiOnlyRunsAndValidates) {
    const RunResult r = run_variant(tiny_config(), Variant::MpiOnly);
    EXPECT_TRUE(r.validation_ok);
    EXPECT_GT(r.total_flops, 0);
    EXPECT_FALSE(r.checksums.empty());
    EXPECT_GT(r.final_blocks, 0);
    EXPECT_GT(r.messages, 0u);
}

TEST(Variants, ForkJoinMatchesMpiOnly) {
    const Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::ForkJoin);
    EXPECT_TRUE(b.validation_ok);
    expect_checksums_match(a, b, 1e-12);
    EXPECT_EQ(a.final_blocks, b.final_blocks) << "identical refinement decisions expected";
    EXPECT_EQ(a.total_flops, b.total_flops);
}

TEST(Variants, TampiOssMatchesMpiOnly) {
    const Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(b.validation_ok);
    expect_checksums_match(a, b, 1e-12);
    EXPECT_EQ(a.final_blocks, b.final_blocks);
    EXPECT_EQ(a.total_flops, b.total_flops);
}

TEST(Variants, SyncVariantsIgnoreDelayedChecksum) {
    // --delayed_checksum is TAMPI+OSS's (§IV-C, Config): the bulk-synchronous
    // variants validate every checksum stage at once with or without it.
    Config cfg = tiny_config();
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin}) {
        cfg.delayed_checksum = false;
        const RunResult a = run_variant(cfg, v);
        cfg.delayed_checksum = true;
        const RunResult b = run_variant(cfg, v);
        EXPECT_TRUE(b.validation_ok) << to_string(v);
        EXPECT_EQ(a.checksums, b.checksums) << to_string(v);
        EXPECT_EQ(a.counters.checksum_stages, b.counters.checksum_stages) << to_string(v);
        EXPECT_GT(b.counters.checksum_stages, 0) << to_string(v);
    }
}

TEST(Variants, TampiOssSendFacesSeparateBuffersMatches) {
    Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(b.validation_ok);
    expect_checksums_match(a, b, 1e-12);
}

TEST(Variants, TampiOssMaxCommTasksMatches) {
    Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.max_comm_tasks = 2;
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(b.validation_ok);
    expect_checksums_match(a, b, 1e-12);
}

TEST(Variants, TampiOssDelayedChecksumMatches) {
    Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    cfg.delayed_checksum = true;
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(b.validation_ok);
    // Delayed validation changes *when* sums are validated, not their values.
    expect_checksums_match(a, b, 1e-12);
}

TEST(Variants, RankCountInvariance) {
    // The same physical problem decomposed over 1 vs 4 ranks must produce
    // the same checksums (up to FP reduction order).
    Config one = tiny_config(1, 1, 1);
    one.init_x = 2;
    one.init_y = 2;
    one.init_z = 1;
    Config four = tiny_config(2, 2, 1);
    four.init_x = 1;
    four.init_y = 1;
    four.init_z = 1;
    const RunResult a = run_variant(one, Variant::MpiOnly);
    const RunResult b = run_variant(four, Variant::MpiOnly);
    expect_checksums_match(a, b, 1e-9);
    EXPECT_EQ(a.final_blocks, b.final_blocks);
}

TEST(Variants, UniformRefineGrowsBlocksEverywhere) {
    Config cfg = tiny_config(1, 1, 1);
    cfg.objects.clear();
    cfg.uniform_refine = true;
    cfg.num_refine = 1;
    cfg.num_tsteps = 1;
    cfg.stages_per_ts = 2;
    const RunResult r = run_variant(cfg, Variant::MpiOnly);
    EXPECT_EQ(r.final_blocks, 8);
}

TEST(Variants, NoRefinementPathWorks) {
    Config cfg = tiny_config();
    cfg.refine_freq = 0;  // refinement disabled
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_EQ(a.final_blocks, 2);
    expect_checksums_match(a, b, 1e-12);
    EXPECT_EQ(a.times.refine, 0.0);
}

TEST(Variants, CommVarsGroupsMatch) {
    Config cfg = tiny_config();
    cfg.comm_vars = 2;  // two groups of two variables
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    expect_checksums_match(a, b, 1e-12);
    Config ungrouped = tiny_config();
    const RunResult c = run_variant(ungrouped, Variant::MpiOnly);
    expect_checksums_match(a, c, 1e-12);  // grouping must not change the physics
}

TEST(Variants, NonCubicBlocksMatchAcrossVariants) {
    // Blocks with nx != ny != nz, refined every timestep: a stride or extent
    // mixed up between axes in the face transfers would break agreement.
    Config cfg = tiny_config();
    cfg.nx = 6;
    cfg.ny = 4;
    cfg.nz = 8;
    cfg.num_vars = 5;
    cfg.comm_vars = 2;  // groups of 2, 2 and 1 variables
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    EXPECT_TRUE(a.validation_ok);
    EXPECT_GT(a.final_blocks, cfg.num_ranks()) << "the run should refine";
    for (Variant v : {Variant::ForkJoin, Variant::TampiOss}) {
        const RunResult b = run_variant(cfg, v);
        EXPECT_TRUE(b.validation_ok) << to_string(v);
        expect_checksums_match(a, b, 1e-12);
        EXPECT_EQ(a.final_blocks, b.final_blocks) << to_string(v);
    }
    cfg.zero_copy = true;
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin}) {
        const RunResult b = run_variant(cfg, v);
        EXPECT_TRUE(b.validation_ok) << to_string(v) << " --zero_copy";
        expect_checksums_match(a, b, 1e-12);
        EXPECT_EQ(a.final_blocks, b.final_blocks) << to_string(v) << " --zero_copy";
    }
}

TEST(Variants, SyncVariantsMatchWithSeveralMessagesPerDirection) {
    // Four ranks along x, faces split into up to two messages per neighbour:
    // the interior ranks have two x neighbours, so they exchange several
    // messages per direction, each applied by the Waitany loop as it arrives
    // (workshared for fork-join).
    const Config base = tiny_config(4, 1, 1);
    const RunResult ref = run_variant(base, Variant::MpiOnly);
    Config cfg = base;
    cfg.send_faces = true;
    cfg.max_comm_tasks = 2;
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin}) {
        for (bool zero_copy : {false, true}) {
            cfg.zero_copy = zero_copy;
            const RunResult r = run_variant(cfg, v);
            const std::string what = to_string(v) + (zero_copy ? " --zero_copy" : "");
            EXPECT_TRUE(r.validation_ok) << what;
            EXPECT_GT(r.messages, ref.messages) << what << ": messages should be split";
            EXPECT_EQ(ref.checksums, r.checksums) << what;
            EXPECT_EQ(ref.final_blocks, r.final_blocks) << what;
        }
    }
}

TEST(Variants, NarrowLastGroupWithSendFacesMatches) {
    // Groups of 3, 3 and 2 variables, each face its own message, on a
    // 2-rank mesh of 16 blocks of 8^3 cells. Every group reuses the plan's
    // tags and staging streams, so messages with the same peer and tag must
    // be posted in group order; in the data-flow variant only the overlap
    // of the groups' chunk sections (amr::StreamLayout) orders them.
    Config cfg = tiny_config();
    cfg.init_x = cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.comm_vars = 3;
    cfg.send_faces = true;
    cfg.checksum_freq = 4;
    cfg.block_change = 1;
    cfg.objects[0].center = {0.2, 0.2, 0.2};
    cfg.objects[0].size = {0.2, 0.2, 0.2};
    cfg.objects[0].move = {0.1, 0.05, 0.05};
    const RunResult ref = run_variant(cfg, Variant::MpiOnly);
    ASSERT_TRUE(ref.validation_ok);
    for (int workers : {1, 2}) {
        for (bool separate : {false, true}) {
            cfg.workers = workers;
            cfg.separate_buffers = separate;
            const std::string what = "workers " + std::to_string(workers) +
                                     (separate ? " --separate_buffers" : "");
            const RunResult r = run_variant(cfg, Variant::TampiOss);
            EXPECT_TRUE(r.validation_ok) << what;
            EXPECT_EQ(ref.checksums, r.checksums) << what;
            EXPECT_EQ(ref.final_blocks, r.final_blocks) << what;
        }
    }
}

TEST(Variants, LoadBalancingKeepsResults) {
    Config cfg = tiny_config();
    cfg.inbalance = 0.01;  // aggressive rebalancing
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    Config no_lb = tiny_config();
    no_lb.lb_opt = false;
    const RunResult b = run_variant(no_lb, Variant::MpiOnly);
    expect_checksums_match(a, b, 1e-9);
    EXPECT_EQ(a.final_blocks, b.final_blocks);

    const RunResult c = run_variant(cfg, Variant::TampiOss);
    expect_checksums_match(a, c, 1e-12);
}

TEST(Variants, SingleRankWorks) {
    Config cfg = tiny_config(1, 1, 1);
    for (Variant v : {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss}) {
        const RunResult r = run_variant(cfg, v);
        EXPECT_TRUE(r.validation_ok) << to_string(v);
        EXPECT_GT(r.total_flops, 0) << to_string(v);
    }
}

TEST(Variants, Stencil27Matches) {
    Config cfg = tiny_config();
    cfg.stencil = 27;
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(a.validation_ok);
    expect_checksums_match(a, b, 1e-12);
    // 27-point stencils do ~27/7 the FLOPs of 7-point ones.
    Config seven = tiny_config();
    const RunResult c = run_variant(seven, Variant::MpiOnly);
    EXPECT_EQ(a.total_flops % 27, 0);
    EXPECT_EQ(a.total_flops / 27, c.total_flops / 7);
}

TEST(Variants, SerialRefinementAblationMatches) {
    Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::TampiOss);
    cfg.taskify_refinement = false;
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    EXPECT_TRUE(b.validation_ok);
    expect_checksums_match(a, b, 1e-12);
    EXPECT_EQ(a.final_blocks, b.final_blocks);
}

// Data-flow refinement holds no more blocks than MPI-only's beyond a slack
// that follows from the task graph, whatever the timing. One round per
// phase, and a compute step after the last phase, so each phase starts and
// ends with every rank at its phase-start and phase-end blocks. With T0 the
// blocks at a phase's start and P the splits, M the merges and S the
// coarsening sends of its round:
//  * TAMPI+OSS holds at most T0 + 7P + Σ w_r + M: a rank's waves of at most
//    W parents are joined, so only its last wave's w_r <= W parents live on
//    beside their children; its merge parents are taken before the children
//    go; a transfer join frees the sends before any receive is taken.
//  * MPI-only reaches at least T0 + 7P - S - 7M: it holds one parent at a
//    time, and when the last rank finishes its splits the others can have
//    freed at most their sends and their merges' children.
// So the slack is ranks x W + 8M + S <= ranks x W + 16M, and M is at most
// the run's merges.
TEST(Variants, TampiOssHoldsNoMoreBlocksThanMpiOnly) {
    Config cfg = amr::single_sphere_input();
    cfg.npx = 2;
    cfg.init_x = cfg.init_y = cfg.init_z = 3;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 3;
    cfg.stages_per_ts = 2;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 2;
    cfg.block_change = 1;
    cfg.workers = 2;
    cfg.objects[0].center = {0.3, 0.3, 0.3};
    cfg.objects[0].size = {0.6, 0.6, 0.6};
    cfg.objects[0].move = {0.05, 0.05, 0.05};
    const RunResult mpi = run_variant(cfg, Variant::MpiOnly);
    const RunResult df = run_variant(cfg, Variant::TampiOss);
    ASSERT_TRUE(mpi.validation_ok);
    ASSERT_TRUE(df.validation_ok);
    EXPECT_EQ(df.final_blocks, mpi.final_blocks);
    ASSERT_GT(df.counters.blocks_merged, 0);
    ASSERT_GT(df.counters.load_balances, 0);
    ASSERT_GT(df.counters.blocks_moved, 0);
    const std::uint64_t wave = amr::graph::kSplitWaveParentsPerCore * cfg.workers;
    const std::uint64_t slack = static_cast<std::uint64_t>(cfg.num_ranks()) * wave +
                                16 * static_cast<std::uint64_t>(df.counters.blocks_merged);
    EXPECT_GE(mpi.arena_high_water, static_cast<std::uint64_t>(mpi.final_blocks));
    EXPECT_LE(df.arena_high_water, mpi.arena_high_water + slack)
        << "MPI-only " << mpi.arena_high_water << ", slack " << slack;
}

TEST(Variants, CountersAreConsistentAcrossVariants) {
    const Config cfg = tiny_config();
    const RunResult a = run_variant(cfg, Variant::MpiOnly);
    const RunResult b = run_variant(cfg, Variant::TampiOss);
    // Identical mesh evolution implies identical refinement activity.
    EXPECT_EQ(a.counters.blocks_split, b.counters.blocks_split);
    EXPECT_EQ(a.counters.blocks_merged, b.counters.blocks_merged);
    EXPECT_EQ(a.counters.refinement_phases, b.counters.refinement_phases);
    EXPECT_EQ(a.counters.checksum_stages, b.counters.checksum_stages);
    EXPECT_GT(a.counters.blocks_split, 0);
    EXPECT_EQ(static_cast<std::size_t>(a.counters.checksum_stages), a.checksums.size());
}

TEST(Variants, TracerCapturesPhases) {
    Config cfg = tiny_config();
    amr::Tracer tracer;
    tracer.enable(true);
    const RunResult r = run_variant(cfg, Variant::TampiOss, &tracer);
    EXPECT_TRUE(r.validation_ok);
    const amr::TraceAnalysis a = tracer.analyze();
    EXPECT_GT(a.busy_ns, 0);
    EXPECT_GT(a.busy_ns_by_kind.count(amr::PhaseKind::Stencil), 0u);
    EXPECT_GT(a.busy_ns_by_kind.count(amr::PhaseKind::IntraCopy), 0u);
    EXPECT_GT(a.cores, 0);

    // Fork-join worksharing runs on the whole team: on every rank both the
    // master (lane 0) and the pool worker (lane 1) compute stencil chunks.
    // With one chunk per region the master would take it before the parked
    // worker wakes, and the worker lanes would record none. Chunks of 8
    // large blocks outlast waking the worker, and 40 stencil regions give
    // a worker delayed by a loaded host many chances.
    cfg.init_x = cfg.init_y = 2;
    cfg.init_z = 4;
    cfg.nx = cfg.ny = cfg.nz = 16;
    cfg.num_vars = 8;
    cfg.num_tsteps = 10;
    cfg.num_refine = 0;
    amr::Tracer fj_tracer;
    fj_tracer.enable(true);
    EXPECT_TRUE(run_variant(cfg, Variant::ForkJoin, &fj_tracer).validation_ok);
    std::set<std::pair<int, int>> stencil_lanes;  // (rank, lane)
    for (const amr::TraceEvent& e : fj_tracer.sorted_events()) {
        if (e.kind == amr::PhaseKind::Stencil) stencil_lanes.emplace(e.rank, e.worker);
    }
    for (int rank = 0; rank < cfg.num_ranks(); ++rank) {
        for (int lane = 0; lane < cfg.workers; ++lane) {
            EXPECT_EQ(stencil_lanes.count({rank, lane}), 1u)
                << "no stencil chunk on rank " << rank << ", lane " << lane;
        }
    }
}

}  // namespace
}  // namespace dfamr::core
