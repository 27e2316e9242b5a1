// Property tests for the ghost-exchange machinery: a constant field must be
// an exact fixpoint of (exchange + stencil) across refinement levels — this
// exercises same-level copies, restriction, prolongation, reflection, and
// both stencils end to end on a single rank.
#include <gtest/gtest.h>

#include "amr/comm_plan.hpp"
#include "amr/mesh.hpp"
#include "object_round.hpp"

namespace dfamr::amr {
namespace {

Config refined_config() {
    Config cfg;
    cfg.npx = cfg.npy = cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 2;
    cfg.num_refine = 2;
    return cfg;
}

/// Builds a single-rank mesh with a refined corner, filled with `value`.
Mesh make_refined_mesh(double value) {
    const Config cfg = refined_config();
    Mesh mesh(cfg, 0);
    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0, 0, 0};
    sphere.size = {0.3, 0.3, 0.3};
    for (int i = 0; i < 2; ++i) {
        const RefineRound round = plan_object_round(mesh.structure(), {sphere}, false);
        if (round.empty()) break;
        mesh.structure().apply_refine_round(round);
    }
    mesh.init_blocks();
    for (const BlockKey& key : mesh.owned_keys()) {
        Block& b = mesh.block(key);
        for (std::size_t i = 0; i < b.data_size(); ++i) b.data()[i] = value;
    }
    return mesh;
}

void exchange_all(Mesh& mesh, const CommPlan& plan, int gb, int ge) {
    for (int dir = 0; dir < 3; ++dir) {
        const DirectionPlan& dp = plan.direction(dir);
        EXPECT_TRUE(dp.neighbors.empty()) << "single rank: no remote traffic";
        for (const IntraCopy& copy : dp.copies) {
            mesh.block(copy.dst).copy_face_from(mesh.block(copy.src), copy.geom, gb, ge);
        }
        for (const auto& [key, sense] : dp.boundary) {
            mesh.block(key).reflect_face(dir, sense, gb, ge);
        }
    }
}

TEST(GhostExchange, MeshHasMixedLevels) {
    Mesh mesh = make_refined_mesh(1.0);
    int levels[3] = {0, 0, 0};
    for (const BlockKey& key : mesh.owned_keys()) ++levels[key.level];
    EXPECT_GT(levels[1] + levels[2], 0) << "refinement must have happened";
    EXPECT_GT(levels[0], 0) << "coarse blocks must remain";
}

class StencilFixpoint : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Stencils, StencilFixpoint, ::testing::Values(7, 27),
                         [](const auto& pinfo) {
                             return "points" + std::to_string(pinfo.param);
                         });

TEST_P(StencilFixpoint, ConstantFieldIsExactFixpoint) {
    const double kValue = 3.25;
    Mesh mesh = make_refined_mesh(kValue);
    const Config& cfg = mesh.config();
    CommPlan plan(mesh.structure(), mesh.shape(), 0, CommPlanOptions{});

    for (int sweep = 0; sweep < 3; ++sweep) {
        exchange_all(mesh, plan, 0, cfg.num_vars);
        for (const BlockKey& key : mesh.owned_keys()) {
            mesh.block(key).apply_stencil(GetParam(), 0, cfg.num_vars);
        }
    }
    for (const BlockKey& key : mesh.owned_keys()) {
        const Block& b = mesh.block(key);
        for (int v = 0; v < cfg.num_vars; ++v) {
            for (int x = 1; x <= cfg.nx; ++x) {
                for (int y = 1; y <= cfg.ny; ++y) {
                    for (int z = 1; z <= cfg.nz; ++z) {
                        ASSERT_DOUBLE_EQ(b.at(v, x, y, z), kValue)
                            << "level " << key.level << " cell (" << x << ',' << y << ',' << z
                            << ')';
                    }
                }
            }
        }
    }
}

TEST(GhostExchange, SevenPointConservesTotalOnUniformLevels) {
    // On a mesh without level mismatches, reflection makes the 7-point
    // average exactly conservative (DESIGN.md §4): the global sum of a
    // RANDOM field is preserved to round-off.
    Config cfg = refined_config();
    cfg.num_refine = 0;
    Mesh mesh(cfg, 0);
    mesh.init_blocks();
    CommPlan plan(mesh.structure(), mesh.shape(), 0, CommPlanOptions{});

    const double before = mesh.local_checksum(0, cfg.num_vars);
    for (int sweep = 0; sweep < 5; ++sweep) {
        exchange_all(mesh, plan, 0, cfg.num_vars);
        for (const BlockKey& key : mesh.owned_keys()) {
            mesh.block(key).stencil7(0, cfg.num_vars);
        }
    }
    EXPECT_NEAR(mesh.local_checksum(0, cfg.num_vars), before, 1e-9 * std::abs(before));
}

TEST(GhostExchange, MixedLevelDriftStaysWithinTolerance) {
    // With coarse-fine faces the scheme is only approximately conservative;
    // the drift per sweep must stay well inside the validation tolerance.
    Mesh mesh = make_refined_mesh(0.0);
    const Config& cfg = mesh.config();
    for (const BlockKey& key : mesh.owned_keys()) {
        mesh.block(key).init_cells(mesh.structure().box(key), cfg.seed);
    }
    CommPlan plan(mesh.structure(), mesh.shape(), 0, CommPlanOptions{});

    double prev = mesh.local_checksum(0, cfg.num_vars);
    for (int sweep = 0; sweep < 5; ++sweep) {
        exchange_all(mesh, plan, 0, cfg.num_vars);
        for (const BlockKey& key : mesh.owned_keys()) {
            mesh.block(key).stencil7(0, cfg.num_vars);
        }
        const double now = mesh.local_checksum(0, cfg.num_vars);
        EXPECT_LT(std::abs(now - prev), 0.01 * std::abs(prev)) << "sweep " << sweep;
        prev = now;
    }
}

}  // namespace
}  // namespace dfamr::amr
