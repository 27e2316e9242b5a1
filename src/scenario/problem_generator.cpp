#include "scenario/problem_generator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "scenario/flux_form.hpp"

namespace dfamr::scenario {

namespace {

/// CFL number for the 3D upwind update: dt * sum_axis |v_axis| / h must
/// stay below 1; with per-axis speeds bounded by max_speed() this keeps the
/// three-term sum at or under 3 * kCfl.
constexpr double kCfl = 0.2;

/// Advected Gaussian pulse: the classic smooth-transport benchmark. The
/// pulse starts near a lower corner and drifts diagonally; velocities and
/// run lengths keep it away from the reflective domain boundary.
class GaussianPulse final : public FluxForm<GaussianPulse> {
public:
    const char* name() const override { return "gaussian"; }
    double max_speed() const override { return 0.4; }  // largest component
    double initial(const Vec3d& p) const override { return reference(p, 0.0); }
    Vec3d velocity(const Vec3d&, double) const override { return {0.4, 0.3, 0.2}; }
    bool has_reference() const override { return true; }
    double reference(const Vec3d& p, double t) const override {
        constexpr double kSigma = 0.1;
        const Vec3d c{0.3 + 0.4 * t, 0.3 + 0.3 * t, 0.3 + 0.2 * t};
        const double dx = p.x - c.x, dy = p.y - c.y, dz = p.z - c.z;
        const double r2 = dx * dx + dy * dy + dz * dz;
        return std::exp(-r2 / (2.0 * kSigma * kSigma));
    }
};

/// Zalesak-style slotted cylinder in solid-body rotation about the domain
/// center (z-invariant): a discontinuous profile that stresses the
/// estimators and the coarse-fine transfer operators. Exactly returns to
/// its initial position every full turn.
class SlottedCylinder final : public FluxForm<SlottedCylinder> {
public:
    const char* name() const override { return "slotted_cylinder"; }
    double max_speed() const override { return 0.5; }  // omega * max |p - center|
    double initial(const Vec3d& p) const override { return profile(p.x, p.y); }
    Vec3d velocity(const Vec3d& p, double) const override {
        return {-(p.y - 0.5), p.x - 0.5, 0.0};  // omega = 1
    }
    bool has_reference() const override { return true; }
    double reference(const Vec3d& p, double t) const override {
        // Rotate the sample point backwards by omega * t around the center.
        const double c = std::cos(t), s = std::sin(t);
        const double x = p.x - 0.5, y = p.y - 0.5;
        return profile(0.5 + c * x + s * y, 0.5 - s * x + c * y);
    }

private:
    static double profile(double x, double y) {
        const double dx = x - 0.5, dy = y - 0.75;
        if (dx * dx + dy * dy > 0.15 * 0.15) return 0.0;
        if (std::abs(dx) < 0.025 && y < 0.85) return 0.0;  // the slot
        return 1.0;
    }
};

/// Steepening shock-like front: the inviscid Burgers equation u_t + u u_x =
/// 0 with a positive tanh ramp. Faster fluid behind catches slower fluid
/// ahead and the ramp steepens into a moving shock — no closed-form
/// reference after shock formation, so has_reference() is false.
class SteepeningFront final : public FluxForm<SteepeningFront> {
public:
    const char* name() const override { return "front"; }
    double max_speed() const override { return 1.2; }  // initial max u (a priori bound)
    /// The wave speed IS the field: reflux corrections and refinement can
    /// nudge the local max, so dt is recomputed from the live field each
    /// timestep rather than frozen at the initial bound.
    bool cfl_from_field() const override { return true; }
    double initial(const Vec3d& p) const override {
        return 0.8 + 0.4 * std::tanh((0.35 - p.x) / 0.08);
    }
    Vec3d velocity(const Vec3d&, double u) const override { return {u, 0.0, 0.0}; }
    /// Godunov flux for f(u) = u^2/2 along x; the transverse axes carry
    /// nothing. Exact for the convex Burgers flux, including transonic
    /// rarefactions (the ul <= 0 <= ur case).
    double face_flux(int axis, const Vec3d&, double ul, double ur) const override {
        if (axis != 0) return 0.0;
        const double fl = 0.5 * ul * ul;
        const double fr = 0.5 * ur * ur;
        if (ul <= ur) {
            if (ul <= 0.0 && 0.0 <= ur) return 0.0;
            return std::min(fl, fr);
        }
        return std::max(fl, fr);
    }
};

const GaussianPulse g_gaussian;
const SlottedCylinder g_slotted;
const SteepeningFront g_front;
const ProblemGenerator* const g_generators[] = {&g_gaussian, &g_slotted, &g_front};

}  // namespace

double ProblemGenerator::reference(const Vec3d&, double) const {
    throw Error(std::string("scenario '") + name() + "' has no analytic reference");
}

void ProblemGenerator::init_block(amr::Block& blk, const Box& box) const {
    const amr::BlockShape& s = blk.shape();
    const Vec3d ext = box.extent();
    const Vec3d h{ext.x / s.nx, ext.y / s.ny, ext.z / s.nz};
    for (int v = 0; v < s.num_vars; ++v) {
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    const Vec3d pos{box.lo.x + (x - 0.5) * h.x, box.lo.y + (y - 0.5) * h.y,
                                    box.lo.z + (z - 0.5) * h.z};
                    blk.at(v, x, y, z) = initial(pos);
                }
            }
        }
    }
}

double ProblemGenerator::stable_dt(const amr::Config& cfg) const {
    return dt_for_speed(cfg, max_speed());
}

double ProblemGenerator::dt_for_speed(const amr::Config& cfg, double speed) const {
    // Finest cell any run of this config can create: level-0 blocks per
    // dimension, each splittable num_refine times, nx/ny/nz cells per block.
    const double side = static_cast<double>(std::int64_t{1} << cfg.num_refine);
    const double fx = cfg.npx * cfg.init_x * side * cfg.nx;
    const double fy = cfg.npy * cfg.init_y * side * cfg.ny;
    const double fz = cfg.npz * cfg.init_z * side * cfg.nz;
    const double h_min = std::min({1.0 / fx, 1.0 / fy, 1.0 / fz});
    return kCfl * h_min / speed;
}

const ProblemGenerator* find_generator(const std::string& name) {
    for (const ProblemGenerator* g : g_generators) {
        if (name == g->name()) return g;
    }
    return nullptr;
}

std::vector<std::string> generator_names() {
    std::vector<std::string> names;
    for (const ProblemGenerator* g : g_generators) names.emplace_back(g->name());
    return names;
}

}  // namespace dfamr::scenario
