// Problem-generator registry: genuine workloads that replace the synthetic
// stencil sweep with a real per-timestep update kernel over the existing
// ghost machinery.
//
// A generator defines an initial profile, a (time-independent) velocity
// field, and — for analytic scenarios — the exact reference solution. The
// per-stage update is first-order finite-volume upwind advection in FLUX
// FORM: every cell face gets one upwind numerical flux and the update is
// the divergence of those fluxes,
//
//   u -= dt * [ (Fx_hi - Fx_lo)/hx + (Fy_hi - Fy_lo)/hy + (Fz_hi - Fz_lo)/hz ]
//
// Both cells adjacent to an interior face recompute the identical flux from
// identical inputs, and abutting same-level blocks evaluate their shared
// face at bitwise-identical coordinates (integer anchor arithmetic in
// GlobalStructure::box), so every same-level interface telescopes to zero
// exactly. At coarse-fine interfaces the two sides disagree; the kernel
// records its boundary-plane fluxes into a per-block FluxRegister and the
// drivers run a Berger–Colella reflux pass after each stage (DESIGN.md §18)
// so total mass is conserved to rounding there too.
//
// The kernel is a pure function of (block data, block box, dt): identical
// across variants, decompositions and transports by construction, so the
// cross-variant bit-identity guarantees of the synthetic stencil carry
// over. dt is CFL-stable against the finest cell the run could ever create
// (a deterministic function of the Config alone); generators whose speed is
// the advected field itself (cfl_from_field) have dt recomputed from the
// allreduced live field max each timestep instead.
//
// Every variable carries the same advected field: the update is uniform
// over the variable-group loop exactly like the synthetic stencil, so the
// drivers' staging/tasking structure is unchanged.
//
// The kernel itself lives in scenario/flux_form.hpp: each generator derives
// from FluxForm<itself>, which implements face_flux's default and advance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "amr/block.hpp"
#include "amr/config.hpp"
#include "common/geometry.hpp"

namespace dfamr::amr {
class FluxRegister;
}

namespace dfamr::scenario {

class ProblemGenerator {
public:
    virtual ~ProblemGenerator() = default;
    virtual const char* name() const = 0;
    /// Upper bound on the velocity magnitude anywhere in the unit cube —
    /// the CFL bound stable_dt() divides by.
    virtual double max_speed() const = 0;
    /// Initial profile at physical position p.
    virtual double initial(const Vec3d& p) const = 0;
    /// Velocity at position p given the local value u (time-independent;
    /// only the shock-front scenario uses u).
    virtual Vec3d velocity(const Vec3d& p, double u) const = 0;
    /// Upwind numerical flux through a face orthogonal to `axis` at position
    /// p, with left (lower-coordinate) and right cell states ul / ur. The
    /// default (FluxForm) upwinds on the face velocity evaluated at the
    /// state average; nonlinear scenarios (Burgers front) override it with a
    /// Godunov flux.
    virtual double face_flux(int axis, const Vec3d& p, double ul, double ur) const = 0;
    /// True when the CFL speed is the advected field itself, so dt must be
    /// recomputed from the live field max each timestep (the drivers
    /// allreduce the max, keeping dt identical on every rank).
    virtual bool cfl_from_field() const { return false; }
    /// Analytic solution at (p, t); only meaningful when has_reference().
    virtual bool has_reference() const { return false; }
    virtual double reference(const Vec3d& p, double t) const;

    /// Fills every variable's interior cells from the initial profile.
    void init_block(amr::Block& blk, const Box& box) const;
    /// One flux-form upwind advection step of dt over [var_begin, var_end).
    /// Records the block's six boundary-plane fluxes into `reg` when given
    /// (the drivers' reflux pass consumes them; tests may pass null).
    /// Returns the FLOPs done (throughput bookkeeping, like apply_stencil).
    /// Thread-safe: hybrid variants call it from worker threads.
    virtual std::int64_t advance(amr::Block& blk, const Box& box, int var_begin, int var_end,
                                 double dt, amr::FluxRegister* reg = nullptr) const = 0;
    /// CFL-stable step against the finest possible cell of `cfg`.
    double stable_dt(const amr::Config& cfg) const;
    /// Same CFL bound for an externally supplied speed (the live field max
    /// when cfl_from_field()).
    double dt_for_speed(const amr::Config& cfg, double speed) const;
};

/// Registry lookup by CLI name: "gaussian", "slotted_cylinder" or "front".
/// Returns null for unknown names ("synthetic" is not in the registry —
/// it selects the legacy stencil sweep and is handled by the caller).
const ProblemGenerator* find_generator(const std::string& name);

/// Registered generator names, for error messages and help text.
std::vector<std::string> generator_names();

}  // namespace dfamr::scenario
