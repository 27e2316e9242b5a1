// Scenario subsystem tests: refinement-condition scoring (estimator edge
// cases), problem-generator workloads, the advection kernel against a
// cell-by-cell reference, cross-variant bit-identity of estimator-driven
// runs, deref hysteresis across checkpoint/restore, and the checkpoint
// version gate protecting the hysteresis state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amr/flux_register.hpp"
#include "common/bytecodec.hpp"
#include "common/error.hpp"
#include "core/variants.hpp"
#include "resilience/checkpoint.hpp"
#include "scenario/flux_form.hpp"
#include "scenario/problem_generator.hpp"
#include "scenario/refinement_condition.hpp"

namespace dfamr {
namespace {

using amr::Block;
using amr::BlockKey;
using amr::BlockShape;
using amr::Config;
using amr::Variant;
using core::RunResult;
using core::run_variant;
using scenario::find_condition;
using scenario::find_generator;
using scenario::RefinementCondition;
using scenario::ScoreContext;

/// Two ranks, deep enough refinement and a tight enough threshold that the
/// gaussian pulse actually drives splits and later coarsening.
Config scenario_config(const std::string& scenario, const std::string& estimator) {
    Config cfg;
    cfg.npx = 2;
    cfg.npy = 1;
    cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;
    cfg.scenario = scenario;
    cfg.estimator = estimator;
    cfg.refine_threshold = 0.1;
    cfg.deref_count = 3;
    return cfg;
}

void expect_checksums_identical(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.checksums.size(), b.checksums.size());
    for (std::size_t i = 0; i < a.checksums.size(); ++i) {
        EXPECT_EQ(a.checksums[i], b.checksums[i]) << "checksum stage " << i;
    }
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, ConditionsAndGeneratorsResolveByName) {
    for (const std::string& name : scenario::condition_names()) {
        const RefinementCondition* c = find_condition(name);
        ASSERT_NE(c, nullptr) << name;
        EXPECT_EQ(c->name(), name);
    }
    for (const std::string& name : scenario::generator_names()) {
        ASSERT_NE(find_generator(name), nullptr) << name;
    }
    EXPECT_EQ(find_condition("no_such_condition"), nullptr);
    EXPECT_EQ(find_generator("no_such_generator"), nullptr);
    // "synthetic" selects the legacy stencil path, not a generator.
    EXPECT_EQ(find_generator("synthetic"), nullptr);
}

TEST(ScenarioRegistry, UnknownEstimatorOrScenarioIsRejectedByTheDriver) {
    Config cfg = scenario_config("gaussian", "gradient");
    cfg.estimator = "bogus";
    EXPECT_THROW(run_variant(cfg, Variant::MpiOnly), Error);
    cfg = scenario_config("bogus", "gradient");
    EXPECT_THROW(run_variant(cfg, Variant::MpiOnly), Error);
}

// ---------------------------------------------------------------------------
// Estimator edge cases
// ---------------------------------------------------------------------------

Block uniform_block(double value, const BlockShape& shape) {
    Block blk(BlockKey{}, shape);
    for (int v = 0; v < shape.num_vars; ++v) {
        for (int x = 0; x <= shape.nx + 1; ++x) {
            for (int y = 0; y <= shape.ny + 1; ++y) {
                for (int z = 0; z <= shape.nz + 1; ++z) blk.at(v, x, y, z) = value;
            }
        }
    }
    return blk;
}

TEST(Estimators, UniformFieldScoresExactlyZero) {
    const BlockShape shape{4, 4, 4, 1};
    const Block blk = uniform_block(3.25, shape);
    const Box box{{0, 0, 0}, {1, 1, 1}};
    const ScoreContext ctx;
    // Score 0 < any positive threshold: a uniform field never refines, no
    // matter how tight the threshold is.
    EXPECT_EQ(find_condition("gradient")->score(&blk, box, ctx), 0.0);
    EXPECT_EQ(find_condition("curvature")->score(&blk, box, ctx), 0.0);
}

TEST(Estimators, LinearRampHasGradientButZeroCurvature) {
    const BlockShape shape{4, 4, 4, 1};
    Block blk = uniform_block(0.0, shape);
    for (int x = 0; x <= shape.nx + 1; ++x) {
        for (int y = 0; y <= shape.ny + 1; ++y) {
            for (int z = 0; z <= shape.nz + 1; ++z) blk.at(0, x, y, z) = 0.5 * x;
        }
    }
    const Box box{{0, 0, 0}, {1, 1, 1}};
    const ScoreContext ctx;
    EXPECT_DOUBLE_EQ(find_condition("gradient")->score(&blk, box, ctx), 0.5);
    EXPECT_EQ(find_condition("curvature")->score(&blk, box, ctx), 0.0);
}

TEST(Estimators, GradientScoreIsTheMaxUndividedDifference) {
    const BlockShape shape{4, 4, 4, 2};
    Block blk = uniform_block(1.0, shape);
    blk.at(0, 2, 3, 2) = 1.75;  // one bump: max |diff| = 0.75 around it
    blk.at(1, 2, 2, 2) = 9.0;   // other variables must not contribute
    const Box box{{0, 0, 0}, {1, 1, 1}};
    const ScoreContext ctx;
    EXPECT_DOUBLE_EQ(find_condition("gradient")->score(&blk, box, ctx), 0.75);
}

TEST(Estimators, ScoreExactlyAtThresholdDoesNotRefine) {
    // The threshold comparison is strict (score > threshold). The objects
    // condition scores exactly 1.0 on touched blocks, so refine_threshold
    // 1.0 puts every score exactly at the boundary: nothing may split.
    Config cfg = scenario_config("synthetic", "objects");
    cfg.uniform_refine = true;  // every block scores exactly 1.0
    cfg.refine_threshold = 1.0;
    const RunResult at = run_variant(cfg, Variant::MpiOnly);
    EXPECT_EQ(at.counters.blocks_split, 0);

    // Nudge the threshold below the score: now everything splits.
    cfg.refine_threshold = 0.999;
    const RunResult below = run_variant(cfg, Variant::MpiOnly);
    EXPECT_GT(below.counters.blocks_split, 0);
}

TEST(Estimators, ObjectsConditionReproducesLegacyRunBitForBit) {
    // The defaults (objects / 0.5 / 1) route the legacy criterion through
    // the unified scoring path; an explicit spelling must change nothing.
    Config legacy = scenario_config("synthetic", "objects");
    legacy.refine_threshold = 0.5;
    legacy.deref_count = 1;
    amr::ObjectSpec sphere;
    sphere.type = amr::ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    legacy.objects.push_back(sphere);

    const RunResult a = run_variant(legacy, Variant::MpiOnly);
    const RunResult b = run_variant(legacy, Variant::TampiOss);
    expect_checksums_identical(a, b);
    EXPECT_EQ(a.counters.blocks_refined_by_estimator, 0)
        << "object-driven splits must not count as estimator-driven";
}

// ---------------------------------------------------------------------------
// Problem generators
// ---------------------------------------------------------------------------

TEST(Generators, AnalyticScenariosReportAnErrorNorm) {
    const RunResult r = run_variant(scenario_config("gaussian", "gradient"), Variant::MpiOnly);
    EXPECT_TRUE(r.validation_ok);
    EXPECT_TRUE(r.has_error_norm);
    EXPECT_GT(r.error_norm, 0.0);
    EXPECT_LT(r.error_norm, 0.1) << "advected pulse should track the analytic solution";
    EXPECT_GT(r.counters.blocks_refined_by_estimator, 0);
}

TEST(Generators, FrontScenarioHasNoReference) {
    const RunResult r = run_variant(scenario_config("front", "gradient"), Variant::MpiOnly);
    EXPECT_TRUE(r.validation_ok);
    EXPECT_FALSE(r.has_error_norm);
}

TEST(Generators, SyntheticRunsReportNoErrorNorm) {
    const RunResult r = run_variant(scenario_config("synthetic", "objects"), Variant::MpiOnly);
    EXPECT_FALSE(r.has_error_norm);
    EXPECT_EQ(r.error_norm, 0.0);
}

TEST(Generators, TighterThresholdReducesTheErrorNorm) {
    Config loose = scenario_config("gaussian", "gradient");
    loose.refine_threshold = 0.5;  // nothing ever refines at this scale
    Config tight = scenario_config("gaussian", "gradient");
    tight.refine_threshold = 0.02;
    const RunResult a = run_variant(loose, Variant::MpiOnly);
    const RunResult b = run_variant(tight, Variant::MpiOnly);
    ASSERT_TRUE(a.has_error_norm);
    ASSERT_TRUE(b.has_error_norm);
    EXPECT_LT(b.error_norm, a.error_norm)
        << "resolving the pulse better must track the analytic solution better";
    EXPECT_GT(b.final_blocks, a.final_blocks);
}

TEST(Generators, GoldenRunsDoNotThrash) {
    for (const char* scenario : {"gaussian", "slotted_cylinder", "front"}) {
        for (const char* estimator : {"gradient", "curvature"}) {
            const RunResult r =
                run_variant(scenario_config(scenario, estimator), Variant::MpiOnly);
            EXPECT_TRUE(r.validation_ok) << scenario << "/" << estimator;
            EXPECT_EQ(r.counters.refine_coarsen_thrash, 0)
                << scenario << "/" << estimator
                << ": hysteresis must keep refine->coarsen flapping at zero";
        }
    }
}

// ---------------------------------------------------------------------------
// Advection kernel oracle
// ---------------------------------------------------------------------------

/// The flux-form kernel one cell at a time: every face flux through the
/// virtual ProblemGenerator::face_flux, every cell through Block::at, and
/// every update from a snapshot of the input. The per-cell expression, the
/// face positions and the register writes are the contract advance() must
/// keep bit for bit.
void ref_advance(const scenario::ProblemGenerator& gen, Block& blk, const Box& box,
                 int var_begin, int var_end, double dt, amr::FluxRegister* reg) {
    const BlockShape& s = blk.shape();
    Block in(blk.key(), s);
    std::copy_n(blk.data(), blk.data_size(), in.data());
    const Vec3d ext = box.extent();
    const double hx = ext.x / s.nx, hy = ext.y / s.ny, hz = ext.z / s.nz;
    const auto face_coord = [](double lo, double hi, double h, int i, int n) {
        if (i == 0) return lo;
        if (i == n) return hi;
        return lo + i * h;
    };
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= s.nx; ++x) {
            const double pxc = box.lo.x + (x - 0.5) * hx;
            const double xl = face_coord(box.lo.x, box.hi.x, hx, x - 1, s.nx);
            const double xh = face_coord(box.lo.x, box.hi.x, hx, x, s.nx);
            for (int y = 1; y <= s.ny; ++y) {
                const double pyc = box.lo.y + (y - 0.5) * hy;
                const double yl = face_coord(box.lo.y, box.hi.y, hy, y - 1, s.ny);
                const double yh = face_coord(box.lo.y, box.hi.y, hy, y, s.ny);
                for (int z = 1; z <= s.nz; ++z) {
                    const double pzc = box.lo.z + (z - 0.5) * hz;
                    const double zl = face_coord(box.lo.z, box.hi.z, hz, z - 1, s.nz);
                    const double zh = face_coord(box.lo.z, box.hi.z, hz, z, s.nz);
                    const double u = in.at(v, x, y, z);
                    const double fxl = gen.face_flux(0, {xl, pyc, pzc}, in.at(v, x - 1, y, z), u);
                    const double fxh = gen.face_flux(0, {xh, pyc, pzc}, u, in.at(v, x + 1, y, z));
                    const double fyl = gen.face_flux(1, {pxc, yl, pzc}, in.at(v, x, y - 1, z), u);
                    const double fyh = gen.face_flux(1, {pxc, yh, pzc}, u, in.at(v, x, y + 1, z));
                    const double fzl = gen.face_flux(2, {pxc, pyc, zl}, in.at(v, x, y, z - 1), u);
                    const double fzh = gen.face_flux(2, {pxc, pyc, zh}, u, in.at(v, x, y, z + 1));
                    blk.at(v, x, y, z) =
                        u - dt * ((fxh - fxl) / hx + (fyh - fyl) / hy + (fzh - fzl) / hz);
                    if (reg == nullptr) continue;
                    if (x == 1) reg->at(0, -1, v, y, z) = fxl;
                    if (x == s.nx) reg->at(0, +1, v, y, z) = fxh;
                    if (y == 1) reg->at(1, -1, v, x, z) = fyl;
                    if (y == s.ny) reg->at(1, +1, v, x, z) = fyh;
                    if (z == 1) reg->at(2, -1, v, x, y) = fzl;
                    if (z == s.nz) reg->at(2, +1, v, x, y) = fzh;
                }
            }
        }
    }
}

/// Velocity reads every coordinate of the face position and the state. The
/// registry generators read neither a face's normal coordinate nor (but
/// for the front, which has its own flux) the state, so only this one pins
/// the face positions and the default flux's state average.
class PositionProbe final : public scenario::FluxForm<PositionProbe> {
public:
    const char* name() const override { return "position_probe"; }
    double max_speed() const override { return 2.0; }
    double initial(const Vec3d&) const override { return 0.0; }
    Vec3d velocity(const Vec3d& p, double u) const override {
        return {p.x - 0.5 + u, p.y - 0.25 - u, 0.625 - p.z + u};
    }
};

/// Pseudo-random values in [-0.5, 0.5) everywhere, ghosts included, with
/// +0.0 and -0.0 sprinkled in: negative states, both zeros and neighbour
/// pairs straddling 0 (the front's transonic branch).
void fill_signed(std::span<double> out, std::uint64_t seed) {
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < out.size(); ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        out[i] = static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
        if (i % 5 == 0) out[i] = 0.0;
        if (i % 7 == 0) out[i] = -0.0;
    }
}

TEST(AdvectionKernel, MatchesCellByCellReferenceBitForBit) {
    const BlockShape shape{6, 4, 8, 3};
    constexpr int kVarBegin = 1, kVarEnd = 3;
    const double dt = 0.0371;
    const PositionProbe probe;
    std::vector<const scenario::ProblemGenerator*> gens{&probe};
    for (const std::string& name : scenario::generator_names()) gens.push_back(find_generator(name));
    // Faces on the domain bounds, and an interior box whose bounds are not
    // dyadic: on every axis lo + n * h is not hi, so face_coord's i == n
    // case shows.
    const Box domain{{0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
    const Box interior{{0.3, 0.15, 0.2}, {0.9, 0.45, 0.9}};
    const std::pair<Box, const char*> boxes[] = {{domain, "domain box"},
                                                 {interior, "interior box"}};
    const Vec3d ext = interior.extent();
    ASSERT_TRUE(interior.lo.x + shape.nx * (ext.x / shape.nx) != interior.hi.x &&
                interior.lo.y + shape.ny * (ext.y / shape.ny) != interior.hi.y &&
                interior.lo.z + shape.nz * (ext.z / shape.nz) != interior.hi.z);
    const auto same_storage = [](std::span<const double> a, std::span<const double> b) {
        return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
    };
    for (const scenario::ProblemGenerator* gen : gens) {
        for (const auto& [box, where] : boxes) {
            for (const bool with_reg : {true, false}) {
                const std::string what = std::string(gen->name()) + ", " + where +
                                         (with_reg ? "" : ", no register");
                Block got(BlockKey{}, shape), ref(BlockKey{}, shape);
                fill_signed({got.data(), got.data_size()}, 17);
                fill_signed({ref.data(), ref.data_size()}, 17);
                amr::FluxRegister got_reg(shape), ref_reg(shape);
                fill_signed(got_reg.slice(0, shape.num_vars), 23);
                fill_signed(ref_reg.slice(0, shape.num_vars), 23);
                const std::int64_t flops = gen->advance(got, box, kVarBegin, kVarEnd, dt,
                                                        with_reg ? &got_reg : nullptr);
                ref_advance(*gen, ref, box, kVarBegin, kVarEnd, dt, with_reg ? &ref_reg : nullptr);
                EXPECT_EQ(flops, 33 * 6 * 4 * 8 * (kVarEnd - kVarBegin)) << what;
                EXPECT_TRUE(same_storage({got.data(), got.data_size()},
                                         {ref.data(), ref.data_size()}))
                    << what << ": block storage differs";
                EXPECT_TRUE(same_storage(got_reg.slice(0, shape.num_vars),
                                         ref_reg.slice(0, shape.num_vars)))
                    << what << ": flux registers differ";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conservation: flux-form transport + Berger-Colella refluxing
// ---------------------------------------------------------------------------

TEST(Conservation, SameLevelSharedFaceFluxesAreBitwiseIdentical) {
    // Two abutting same-level blocks evaluate their shared face from
    // bitwise-identical inputs (exchanged ghosts + canonical face
    // coordinates), so the interface telescopes to exactly zero with no
    // correction: left's +x register must equal right's -x register bit
    // for bit.
    const scenario::ProblemGenerator* gen = find_generator("gaussian");
    ASSERT_NE(gen, nullptr);
    const amr::BlockShape shape{4, 4, 4, 1};
    amr::Block left(BlockKey{}, shape), right(BlockKey{}, shape);
    const Box box_l{{0.0, 0.0, 0.0}, {0.5, 0.5, 0.5}};
    const Box box_r{{0.5, 0.0, 0.0}, {1.0, 0.5, 0.5}};
    gen->init_block(left, box_l);
    gen->init_block(right, box_r);
    left.copy_face_from(right, amr::FaceGeom{0, +1, amr::FaceRel::Same, 0}, 0, 1);
    right.copy_face_from(left, amr::FaceGeom{0, -1, amr::FaceRel::Same, 0}, 0, 1);

    amr::FluxRegister reg_l(shape), reg_r(shape);
    const double dt = 0.01;
    gen->advance(left, box_l, 0, 1, dt, &reg_l);
    gen->advance(right, box_r, 0, 1, dt, &reg_r);

    bool any_nonzero = false;
    for (int u = 1; u <= 4; ++u) {
        for (int v = 1; v <= 4; ++v) {
            EXPECT_EQ(reg_l.at(0, +1, 0, u, v), reg_r.at(0, -1, 0, u, v))
                << "(" << u << "," << v << ")";
            any_nonzero = any_nonzero || reg_l.at(0, +1, 0, u, v) != 0.0;
        }
    }
    EXPECT_TRUE(any_nonzero) << "the gaussian pulse must actually flux through the face";
}

TEST(Conservation, CoarseFineFaceTelescopesAfterRestriction) {
    // One coarse block with a half-size fine neighbor on its -x side (quad
    // 0 of the face), so the gaussian's +x velocity upwinds on the FINE
    // side: the coarse kernel fluxes v * (restricted ghost average) while
    // each fine kernel fluxes v * (its own boundary cell) — different
    // rounding, a genuine pre-correction disagreement. The Berger-Colella
    // replacement installs the restricted fine flux on the coarse side,
    // after which the area-weighted interface budget cancels bitwise:
    // quarter-face averaging and the 4x area ratio are exact power-of-two
    // operations.
    const scenario::ProblemGenerator* gen = find_generator("gaussian");
    ASSERT_NE(gen, nullptr);
    const amr::BlockShape shape{4, 4, 4, 1};
    amr::Block coarse(BlockKey{}, shape), fine(BlockKey{}, shape);
    const Box box_c{{0.5, 0.0, 0.0}, {1.0, 0.5, 0.5}};     // h = 0.125
    const Box box_f{{0.25, 0.0, 0.0}, {0.5, 0.25, 0.25}};  // h = 0.0625
    gen->init_block(coarse, box_c);
    gen->init_block(fine, box_f);
    coarse.copy_face_from(fine, amr::FaceGeom{0, -1, amr::FaceRel::Finer, 0}, 0, 1);
    fine.copy_face_from(coarse, amr::FaceGeom{0, +1, amr::FaceRel::Coarser, 0}, 0, 1);

    amr::FluxRegister reg_c(shape), reg_f(shape);
    const double dt = 0.01;
    gen->advance(coarse, box_c, 0, 1, dt, &reg_c);
    gen->advance(fine, box_f, 0, 1, dt, &reg_f);

    // Restrict the fine side's +x registers exactly as the flux plan ships
    // them to the coarse neighbor.
    std::vector<double> restricted(static_cast<std::size_t>(shape.face_values_mixed(0, 1)));
    reg_f.pack_restricted(0, +1, 0, 1, restricted);
    ASSERT_EQ(restricted.size(), 4u);

    const double area_f = 0.0625 * 0.0625;
    const double area_c = 4.0 * area_f;
    bool any_mismatch = false;
    std::size_t o = 0;
    for (int u = 1; u <= 2; ++u) {  // quad 0: lower half in u and v
        for (int v = 1; v <= 2; ++v, ++o) {
            const double coarse_flux = reg_c.at(0, -1, 0, u, v);
            const double fine_hat = restricted[o];
            any_mismatch = any_mismatch || coarse_flux != fine_hat;
            // After the reflux replacement the coarse side's area-weighted
            // flux equals the fine side's sum exactly.
            double fine_sum = 0;
            for (int du = 1; du <= 2; ++du) {
                for (int dv = 1; dv <= 2; ++dv) {
                    fine_sum += reg_f.at(0, +1, 0, 2 * (u - 1) + du, 2 * (v - 1) + dv);
                }
            }
            EXPECT_EQ(fine_hat * area_c, fine_sum * area_f) << "(" << u << "," << v << ")";
        }
    }
    EXPECT_TRUE(any_mismatch)
        << "pre-correction coarse and restricted fine fluxes should disagree somewhere — "
           "otherwise this face exercises nothing";
}

TEST(Conservation, MassBudgetClosesForEveryGenerator) {
    for (const char* scenario : {"gaussian", "slotted_cylinder", "front"}) {
        Config cfg = scenario_config(scenario, "gradient");
        cfg.num_tsteps = 3;  // enough for refine AND coarsen activity
        const RunResult r = run_variant(cfg, Variant::MpiOnly);
        EXPECT_TRUE(r.validation_ok) << scenario;
        // The reflux residual telescopes to exactly zero: the coarse flux
        // is replaced by the restricted fine flux, so the |difference|
        // tally only ever sums bitwise zeros. Any other value means a
        // coarse-fine face escaped the correction pass.
        EXPECT_EQ(r.mass_drift, 0.0) << scenario;
        // And the budget closes: the change in total mass is exactly the
        // signed mass that left through the domain boundary, to rounding.
        const double residual = r.final_mass - r.initial_mass + r.boundary_outflux;
        EXPECT_LE(std::abs(residual), 1e-12 * std::max(1.0, std::abs(r.initial_mass)))
            << scenario << ": initial " << r.initial_mass << " final " << r.final_mass
            << " outflux " << r.boundary_outflux;
    }
}

TEST(Conservation, RefluxCorrectionsFireAcrossRefineCoarsenCycles) {
    Config cfg = scenario_config("gaussian", "gradient");
    cfg.num_tsteps = 3;
    const RunResult r = run_variant(cfg, Variant::MpiOnly);
    EXPECT_GT(r.counters.blocks_refined_by_estimator, 0);
    EXPECT_GT(r.counters.reflux_corrections, 0)
        << "estimator-driven splits create coarse-fine faces that must reflux";
    EXPECT_EQ(r.mass_drift, 0.0);
}

TEST(Conservation, SlottedCylinderFullTurnL1Regression) {
    // One full solid-body rotation (omega = 1, period 2*pi) on a
    // single-rank mesh deep enough to sustain coarse-fine interfaces all
    // the way around: 84 timesteps x 6 stages at the CFL-limited
    // dt = 0.0125 advance sim_time to 6.3 ~ 2*pi, so the cylinder sweeps
    // every coarse-fine configuration (~129k reflux corrections). The L1
    // bound is loose in absolute terms (first-order upwind smears the
    // slot) but pins down regressions in the transport kernel; the mass
    // budget must still close to rounding (measured residual ~8e-17).
    Config cfg = scenario_config("slotted_cylinder", "gradient");
    cfg.npx = 1;
    cfg.num_vars = 1;
    cfg.num_refine = 2;
    cfg.num_tsteps = 84;
    cfg.stages_per_ts = 6;
    cfg.checksum_freq = 20;
    cfg.workers = 1;
    const RunResult r = run_variant(cfg, Variant::MpiOnly);
    EXPECT_TRUE(r.validation_ok);
    ASSERT_TRUE(r.has_error_norm);
    EXPECT_LT(r.error_norm, 0.15) << "full-turn L1 error regressed (expected ~0.095)";
    EXPECT_GT(r.counters.reflux_corrections, 0);
    EXPECT_EQ(r.mass_drift, 0.0);
    const double residual = r.final_mass - r.initial_mass + r.boundary_outflux;
    EXPECT_LE(std::abs(residual), 1e-12 * std::max(1.0, std::abs(r.initial_mass)));
}

// ---------------------------------------------------------------------------
// Cross-variant / transport-independent bit-identity
// ---------------------------------------------------------------------------

class ScenarioVariants : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioVariants, AllVariantsBitIdentical) {
    for (const char* estimator : {"gradient", "curvature"}) {
        const Config cfg = scenario_config(GetParam(), estimator);
        // --zero_copy sends the flux exchange through transport frames too.
        Config zero_copy = cfg;
        zero_copy.zero_copy = true;
        const RunResult mpi = run_variant(cfg, Variant::MpiOnly);
        EXPECT_TRUE(mpi.validation_ok) << estimator;
        EXPECT_EQ(mpi.mass_drift, 0.0) << estimator;
        const std::pair<const char*, RunResult> others[] = {
            {"fork_join", run_variant(cfg, Variant::ForkJoin)},
            {"tampi_oss", run_variant(cfg, Variant::TampiOss)},
            {"mpi_only --zero_copy", run_variant(zero_copy, Variant::MpiOnly)},
            {"fork_join --zero_copy", run_variant(zero_copy, Variant::ForkJoin)},
        };
        for (const auto& [name, r] : others) {
            SCOPED_TRACE(std::string(estimator) + ", " + name);
            expect_checksums_identical(mpi, r);
            EXPECT_EQ(mpi.final_blocks, r.final_blocks);
            EXPECT_EQ(mpi.error_norm, r.error_norm);
            // The conservation ledger is part of the bit-identity contract:
            // the outflux tally is accumulated in one deterministic order in
            // every variant, and the reflux residual is zero everywhere.
            EXPECT_EQ(r.mass_drift, 0.0);
            EXPECT_EQ(mpi.boundary_outflux, r.boundary_outflux);
            EXPECT_EQ(mpi.counters.reflux_corrections, r.counters.reflux_corrections);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioVariants,
                         ::testing::Values("gaussian", "slotted_cylinder", "front"));

// ---------------------------------------------------------------------------
// Hysteresis state across checkpoint/restore
// ---------------------------------------------------------------------------

TEST(ScenarioCheckpoint, RestoredRunReproducesHysteresisDecisionsBitForBit) {
    const std::string path = temp_path("dfamr_scenario_ckpt.bin");

    // A run whose coarsening decisions straddle the checkpoint boundary:
    // with deref_count 3 and a refinement check every timestep, counters
    // accumulated before the checkpoint decide merges after it.
    Config cfg = scenario_config("gaussian", "gradient");
    cfg.num_tsteps = 4;
    const RunResult full = run_variant(cfg, Variant::MpiOnly);

    Config partial = cfg;
    partial.num_tsteps = 2;
    partial.checkpoint_every = 2;
    partial.checkpoint_path = path;
    run_variant(partial, Variant::MpiOnly);

    // The checkpoint must carry the streak counters (version 2 section).
    const resilience::CheckpointState st = resilience::read_checkpoint_state(path);
    EXPECT_EQ(st.ts_completed, 2);

    Config restored_cfg = cfg;
    restored_cfg.restore_path = path;
    const RunResult restored = run_variant(restored_cfg, Variant::MpiOnly);
    EXPECT_TRUE(restored.validation_ok);
    expect_checksums_identical(full, restored);
    EXPECT_EQ(full.final_blocks, restored.final_blocks);
    // The v3 state (sim_time + conservation ledger) must round-trip: the
    // restored run reports the same error norm (reference sampled at the
    // same simulated time) and the same mass budget as the full run.
    EXPECT_EQ(full.error_norm, restored.error_norm);
    EXPECT_EQ(full.initial_mass, restored.initial_mass);
    EXPECT_EQ(full.final_mass, restored.final_mass);
    // The outflux tally regroups across the restore (pre-checkpoint
    // contributions collapse into one stored sum), so it agrees to
    // rounding, not bitwise.
    EXPECT_NEAR(full.boundary_outflux, restored.boundary_outflux, 1e-12);
    EXPECT_EQ(full.counters.reflux_corrections, restored.counters.reflux_corrections);
    EXPECT_EQ(restored.mass_drift, 0.0);
    std::remove(path.c_str());
}

TEST(ScenarioCheckpoint, DerefCountsRoundTripThroughTheImage) {
    const std::string path = temp_path("dfamr_scenario_ckpt_counts.bin");
    Config cfg = scenario_config("gaussian", "gradient");
    cfg.num_tsteps = 2;
    cfg.checkpoint_every = 2;
    cfg.checkpoint_path = path;
    run_variant(cfg, Variant::MpiOnly);

    const resilience::CheckpointState st = resilience::read_checkpoint_state(path);
    // A streak at or past deref_count can survive when the sibling group or
    // the 2:1 constraint vetoed the merge, so only the lower bound and the
    // leaves-only pruning are invariants.
    for (const auto& [key, count] : st.deref_counts) {
        EXPECT_TRUE(st.owners.count(key)) << "streaks must only cover current leaves";
        EXPECT_GE(count, 1);
    }
    EXPECT_FALSE(st.deref_counts.empty())
        << "the gaussian run is expected to accumulate coarsen-willing streaks";
    std::remove(path.c_str());
}

TEST(ScenarioCheckpoint, VersionOneImagesAreRejectedWithAClearError) {
    // Craft a minimal version-1 header: magic + version. The reader must
    // reject it before touching anything else.
    bytes::Writer w;
    const char magic[8] = {'D', 'F', 'A', 'M', 'R', 'C', 'K', 'P'};
    w.raw(magic, sizeof magic);
    w.u32(1);
    const std::string path = temp_path("dfamr_v1.ckpt");
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(w.bytes.data()),
                  static_cast<std::streamsize>(w.bytes.size()));
    }
    try {
        resilience::read_checkpoint_state(path);
        FAIL() << "version-1 image must be rejected";
    } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unsupported version 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("hysteresis"), std::string::npos)
            << "the error should say what version 1 is missing: " << msg;
    }
    std::remove(path.c_str());
}

TEST(ScenarioCheckpoint, VersionTwoImagesAreRejectedWithAClearError) {
    // Version 2 predates the conservative-transport state (sim_time + the
    // mass ledger); restoring one would silently reset the simulated clock
    // and the conservation accounting. The reader must name what's missing.
    bytes::Writer w;
    const char magic[8] = {'D', 'F', 'A', 'M', 'R', 'C', 'K', 'P'};
    w.raw(magic, sizeof magic);
    w.u32(2);
    const std::string path = temp_path("dfamr_v2.ckpt");
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(w.bytes.data()),
                  static_cast<std::streamsize>(w.bytes.size()));
    }
    try {
        resilience::read_checkpoint_state(path);
        FAIL() << "version-2 image must be rejected";
    } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unsupported version 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("conservative-transport"), std::string::npos)
            << "the error should say what version 2 is missing: " << msg;
    }
    std::remove(path.c_str());
}

TEST(ScenarioCheckpoint, FingerprintCoversScenarioSelection) {
    // Restoring a gaussian/gradient checkpoint into a different scenario,
    // estimator, threshold or deref_count must be rejected: field data and
    // refinement decisions would silently disagree.
    const std::string path = temp_path("dfamr_scenario_fp.ckpt");
    Config cfg = scenario_config("gaussian", "gradient");
    cfg.num_tsteps = 1;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = path;
    run_variant(cfg, Variant::MpiOnly);

    Config other = cfg;
    other.checkpoint_every = 0;
    other.restore_path = path;
    other.scenario = "front";
    EXPECT_THROW(run_variant(other, Variant::MpiOnly), Error);
    other.scenario = cfg.scenario;
    other.estimator = "curvature";
    EXPECT_THROW(run_variant(other, Variant::MpiOnly), Error);
    other.estimator = cfg.estimator;
    other.refine_threshold = 0.2;
    EXPECT_THROW(run_variant(other, Variant::MpiOnly), Error);
    other.refine_threshold = cfg.refine_threshold;
    other.deref_count = 1;
    EXPECT_THROW(run_variant(other, Variant::MpiOnly), Error);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace dfamr
