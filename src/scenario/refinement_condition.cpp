#include "scenario/refinement_condition.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dfamr::scenario {

namespace {

/// The reference miniAMR criterion as a condition instance: score 1 when an
/// object touches the block (or uniform refinement is forced), 0 otherwise.
/// With the default refine_threshold 0.5 and deref_count 1 the planner
/// refines every block an object touches and coarsens every other at once.
class ObjectCondition final : public RefinementCondition {
public:
    const char* name() const override { return "objects"; }
    bool needs_field_data() const override { return false; }
    double score(const amr::Block*, const Box& box, const ScoreContext& ctx) const override {
        if (ctx.uniform_refine) return 1.0;
        if (ctx.objects != nullptr) {
            for (const amr::ObjectSpec& obj : *ctx.objects) {
                if (obj.touches(box)) return 1.0;
            }
        }
        return 0.0;
    }
};

/// Maximum undivided first difference of variable 0 over the block interior
/// (all three axes). Undivided — not divided by the cell width — so the
/// score of a smooth feature *shrinks* as the mesh refines around it and
/// refinement converges instead of running away to the level cap.
class GradientCondition final : public RefinementCondition {
public:
    const char* name() const override { return "gradient"; }
    bool needs_field_data() const override { return true; }
    double score(const amr::Block* blk, const Box&, const ScoreContext&) const override {
        DFAMR_REQUIRE(blk != nullptr, "gradient condition needs block data");
        const amr::BlockShape& s = blk->shape();
        double m = 0.0;
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    const double u = blk->at(0, x, y, z);
                    if (x < s.nx) m = std::max(m, std::abs(blk->at(0, x + 1, y, z) - u));
                    if (y < s.ny) m = std::max(m, std::abs(blk->at(0, x, y + 1, z) - u));
                    if (z < s.nz) m = std::max(m, std::abs(blk->at(0, x, y, z + 1) - u));
                }
            }
        }
        return m;
    }
};

/// Maximum undivided second difference of variable 0 over the block
/// interior: |u[i-1] - 2 u[i] + u[i+1]| per axis. Flags curvature (fronts,
/// extrema) while staying zero on linear ramps the gradient condition would
/// refine.
class CurvatureCondition final : public RefinementCondition {
public:
    const char* name() const override { return "curvature"; }
    bool needs_field_data() const override { return true; }
    double score(const amr::Block* blk, const Box&, const ScoreContext&) const override {
        DFAMR_REQUIRE(blk != nullptr, "curvature condition needs block data");
        const amr::BlockShape& s = blk->shape();
        double m = 0.0;
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    const double u2 = 2.0 * blk->at(0, x, y, z);
                    if (x > 1 && x < s.nx) {
                        m = std::max(m,
                                     std::abs(blk->at(0, x - 1, y, z) - u2 + blk->at(0, x + 1, y, z)));
                    }
                    if (y > 1 && y < s.ny) {
                        m = std::max(m,
                                     std::abs(blk->at(0, x, y - 1, z) - u2 + blk->at(0, x, y + 1, z)));
                    }
                    if (z > 1 && z < s.nz) {
                        m = std::max(m,
                                     std::abs(blk->at(0, x, y, z - 1) - u2 + blk->at(0, x, y, z + 1)));
                    }
                }
            }
        }
        return m;
    }
};

const ObjectCondition g_objects;
const GradientCondition g_gradient;
const CurvatureCondition g_curvature;
const RefinementCondition* const g_conditions[] = {&g_objects, &g_gradient, &g_curvature};

}  // namespace

const RefinementCondition* find_condition(const std::string& name) {
    for (const RefinementCondition* c : g_conditions) {
        if (name == c->name()) return c;
    }
    return nullptr;
}

std::vector<std::string> condition_names() {
    std::vector<std::string> names;
    for (const RefinementCondition* c : g_conditions) names.emplace_back(c->name());
    return names;
}

}  // namespace dfamr::scenario
