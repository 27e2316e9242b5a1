// Tests for the global mesh structure: initialization, neighbor queries,
// refinement planning with the 2:1 invariant, coarsening, and RCB.
#include <gtest/gtest.h>

#include <set>

#include "amr/structure.hpp"
#include "object_round.hpp"
#include "common/rng.hpp"

namespace dfamr::amr {
namespace {

Config base_config(int npx = 2, int npy = 1, int npz = 1) {
    Config cfg;
    cfg.npx = npx;
    cfg.npy = npy;
    cfg.npz = npz;
    cfg.init_x = cfg.init_y = cfg.init_z = 2;
    cfg.num_refine = 3;
    return cfg;
}

ObjectSpec corner_sphere(double r = 0.2) {
    ObjectSpec o;
    o.type = ObjectType::SpheroidSurface;
    o.center = {0, 0, 0};
    o.size = {r, r, r};
    return o;
}

TEST(Structure, InitialLayoutAndOwnership) {
    const Config cfg = base_config(2, 1, 1);
    GlobalStructure gs(cfg);
    EXPECT_EQ(gs.num_blocks(), 4u * 2 * 2);
    const auto counts = gs.blocks_per_rank();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 8);
    EXPECT_EQ(counts[1], 8);
    EXPECT_TRUE(gs.two_to_one_ok());
    // Physical boxes tile the unit cube.
    double volume = 0;
    for (const auto& [key, owner] : gs.leaves()) {
        const Box b = gs.box(key);
        volume += b.extent().product();
    }
    EXPECT_NEAR(volume, 1.0, 1e-12);
}

TEST(Structure, SameLevelNeighbors) {
    const Config cfg = base_config(1, 1, 1);
    GlobalStructure gs(cfg);  // 2x2x2 level-0 blocks
    const BlockKey origin{0, {0, 0, 0}};
    auto nb = gs.face_neighbors(origin, 0, +1);
    ASSERT_EQ(nb.size(), 1u);
    EXPECT_EQ(nb[0].rel, FaceRel::Same);
    EXPECT_EQ(nb[0].key.anchor.x, origin.side(gs.max_level()));
    EXPECT_TRUE(gs.face_neighbors(origin, 0, -1).empty()) << "domain boundary";
    EXPECT_TRUE(gs.at_domain_boundary(origin, 1, -1));
    EXPECT_FALSE(gs.at_domain_boundary(origin, 1, +1));
}

TEST(Structure, RefinementCreatesFinerNeighbors) {
    const Config cfg = base_config(1, 1, 1);
    GlobalStructure gs(cfg);
    // Refine the origin block manually.
    RefineRound round;
    round.refine.push_back(BlockKey{0, {0, 0, 0}});
    gs.apply_refine_round(round);
    EXPECT_EQ(gs.num_blocks(), 8u - 1 + 8);
    EXPECT_TRUE(gs.two_to_one_ok());

    // The +x same-level neighbor now sees four finer neighbors on its -x face.
    const std::int64_t side = BlockKey{0, {0, 0, 0}}.side(gs.max_level());
    const BlockKey right{0, {side, 0, 0}};
    auto nb = gs.face_neighbors(right, 0, -1);
    ASSERT_EQ(nb.size(), 4u);
    std::set<int> quads;
    for (const auto& n : nb) {
        EXPECT_EQ(n.rel, FaceRel::Finer);
        EXPECT_EQ(n.key.level, 1);
        quads.insert(n.quad);
    }
    EXPECT_EQ(quads.size(), 4u);

    // And each fine block on that face sees `right` as a Coarser neighbor.
    for (const auto& n : nb) {
        auto back = gs.face_neighbors(n.key, 0, +1);
        ASSERT_EQ(back.size(), 1u);
        EXPECT_EQ(back[0].rel, FaceRel::Coarser);
        EXPECT_EQ(back[0].key, right);
        EXPECT_EQ(back[0].quad, n.quad) << "both sides agree on the coarse-face quarter";
    }
}

TEST(Structure, PlanMarksTouchedBlocks) {
    const Config cfg = base_config(1, 1, 1);
    GlobalStructure gs(cfg);
    const std::vector<ObjectSpec> objs{corner_sphere()};
    const RefineRound round = plan_object_round(gs, objs, false);
    // Only the origin block touches the corner sphere boundary.
    ASSERT_EQ(round.refine.size(), 1u);
    EXPECT_EQ(round.refine[0], (BlockKey{0, {0, 0, 0}}));
    EXPECT_TRUE(round.coarsen_parents.empty()) << "nothing refined yet, nothing to coarsen";
}

TEST(Structure, TwoToOneHoldsThroughRefinementRounds) {
    const Config cfg = base_config(1, 1, 1);
    GlobalStructure gs(cfg);
    const std::vector<ObjectSpec> objs{corner_sphere(0.3)};
    for (int round_idx = 0; round_idx < cfg.num_refine; ++round_idx) {
        const RefineRound round = plan_object_round(gs, objs, false);
        if (round.empty()) break;
        gs.apply_refine_round(round);
        EXPECT_TRUE(gs.two_to_one_ok()) << "after round " << round_idx;
    }
    EXPECT_GT(gs.num_blocks(), 8u);
    // Max level reached near the object, never beyond.
    int max_seen = 0;
    for (const auto& [key, owner] : gs.leaves()) max_seen = std::max(max_seen, key.level);
    EXPECT_LE(max_seen, cfg.num_refine);
    EXPECT_GE(max_seen, 2);
}

TEST(Structure, CoarseningAfterObjectMovesAway) {
    Config cfg = base_config(1, 1, 1);
    cfg.num_refine = 2;
    GlobalStructure gs(cfg);
    std::vector<ObjectSpec> objs{corner_sphere(0.25)};
    for (int i = 0; i < 4; ++i) {
        const RefineRound r = plan_object_round(gs, objs, false);
        if (r.empty()) break;
        gs.apply_refine_round(r);
    }
    const std::size_t refined_count = gs.num_blocks();
    ASSERT_GT(refined_count, 8u);

    // Move the object to the opposite corner; the old region must coarsen
    // back (over several rounds) and the new region refine.
    objs[0].center = {1, 1, 1};
    for (int i = 0; i < 6; ++i) {
        const RefineRound r = plan_object_round(gs, objs, false);
        if (r.empty()) break;
        gs.apply_refine_round(r);
        EXPECT_TRUE(gs.two_to_one_ok());
    }
    // Origin block is a level-0 leaf again.
    EXPECT_TRUE(gs.is_leaf(BlockKey{0, {0, 0, 0}}));
}

TEST(Structure, UniformRefineRefinesEverything) {
    const Config cfg = base_config(1, 1, 1);
    GlobalStructure gs(cfg);
    const RefineRound round = plan_object_round(gs, {}, true);
    EXPECT_EQ(round.refine.size(), 8u);
    gs.apply_refine_round(round);
    EXPECT_EQ(gs.num_blocks(), 64u);
}

TEST(Structure, RefinePropagatesToCoarserNeighbors) {
    Config cfg = base_config(1, 1, 1);
    cfg.num_refine = 3;
    GlobalStructure gs(cfg);
    // Refine origin twice so a level-2 block borders a level-1 block; then a
    // further refinement of the level-2 block must drag the level-1 along.
    std::vector<ObjectSpec> objs{corner_sphere(0.10)};
    for (int i = 0; i < 3; ++i) {
        const RefineRound r = plan_object_round(gs, objs, false);
        if (r.empty()) break;
        gs.apply_refine_round(r);
        EXPECT_TRUE(gs.two_to_one_ok()) << "round " << i;
    }
    // Regardless of the exact cascade, the invariant held throughout (checked
    // above); also ensure we did reach level 3 blocks only near the corner.
    for (const auto& [key, owner] : gs.leaves()) {
        if (key.level == 3) {
            const Box b = gs.box(key);
            EXPECT_LT(b.lo.x, 0.3);
        }
    }
}

TEST(Structure, ImbalanceMetric) {
    const Config cfg = base_config(2, 1, 1);
    GlobalStructure gs(cfg);
    EXPECT_DOUBLE_EQ(gs.imbalance(), 0.0);
    // Refine one rank-0 block: rank 0 now has 8+7 blocks, rank 1 has 8.
    RefineRound round;
    round.refine.push_back(BlockKey{0, {0, 0, 0}});
    gs.apply_refine_round(round);
    const double avg = (15.0 + 8.0) / 2.0;
    EXPECT_NEAR(gs.imbalance(), (15.0 - avg) / avg, 1e-12);
}

TEST(Structure, RcbBalancesCounts) {
    Config cfg = base_config(2, 2, 1);  // 4 ranks
    cfg.num_refine = 2;
    GlobalStructure gs(cfg);
    std::vector<ObjectSpec> objs{corner_sphere(0.3)};
    for (int i = 0; i < 3; ++i) {
        const RefineRound r = plan_object_round(gs, objs, false);
        if (r.empty()) break;
        gs.apply_refine_round(r);
    }
    ASSERT_GT(gs.imbalance(), 0.2) << "corner refinement should imbalance the corner rank";

    const auto new_owners = gs.rcb_partition();
    gs.set_owners(new_owners);
    const auto counts = gs.blocks_per_rank();
    std::int64_t mn = counts[0], mx = counts[0];
    for (auto c : counts) {
        mn = std::min(mn, c);
        mx = std::max(mx, c);
    }
    EXPECT_LE(mx - mn, 2) << "RCB should nearly equalize counts";
}

TEST(Structure, RcbIsDeterministic) {
    Config cfg = base_config(2, 2, 2);
    GlobalStructure gs(cfg);
    gs.apply_refine_round([&] {
        RefineRound r;
        r.refine.push_back(BlockKey{0, {0, 0, 0}});
        return r;
    }());
    const auto a = gs.rcb_partition();
    const auto b = gs.rcb_partition();
    EXPECT_EQ(a, b);
}

TEST(Structure, BlocksOfMatchesOwners) {
    const Config cfg = base_config(2, 1, 1);
    GlobalStructure gs(cfg);
    std::size_t total = 0;
    for (int r = 0; r < cfg.num_ranks(); ++r) {
        for (const BlockKey& key : gs.blocks_of(r)) {
            EXPECT_EQ(gs.owner(key), r);
            ++total;
        }
    }
    EXPECT_EQ(total, gs.num_blocks());
}

// Property: random object walks never break the 2:1 invariant and never
// exceed the level limits.
TEST(StructureProperty, RandomWalkKeepsInvariants) {
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        Config cfg = base_config(1, 1, 1);
        cfg.num_refine = 3;
        GlobalStructure gs(cfg);
        ObjectSpec obj;
        obj.type = ObjectType::SpheroidSurface;
        obj.center = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
        obj.size = {rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)};
        obj.move = {rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)};
        obj.bounce = true;
        std::vector<ObjectSpec> objs{obj};
        for (int step = 0; step < 12; ++step) {
            for (int round_idx = 0; round_idx < 2; ++round_idx) {
                const RefineRound r = plan_object_round(gs, objs, false);
                if (r.empty()) break;
                gs.apply_refine_round(r);
            }
            ASSERT_TRUE(gs.two_to_one_ok()) << "trial " << trial << " step " << step;
            for (const auto& [key, owner] : gs.leaves()) {
                ASSERT_GE(key.level, 0);
                ASSERT_LE(key.level, cfg.num_refine);
            }
            objs[0].step();
        }
    }
}

}  // namespace
}  // namespace dfamr::amr
