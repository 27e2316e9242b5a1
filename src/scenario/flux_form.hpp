// The flux-form advection kernel, written once and instantiated per
// concrete generator.
//
// A generator G derives from FluxForm<G> and is final. advance() is then
// one virtual call per block and variable group; inside it every face flux
// and velocity is a G-qualified call, direct and inlinable, and cells are
// read through raw row pointers (Block::update_rows). The per-cell
// arithmetic is the contract that keeps every result bit-identical:
//
//   u - dt * ((fxh - fxl) / hx + (fyh - fyl) / hy + (fzh - fzl) / hz)
//
// with fluxes from G::face_flux at the face positions face_coord() gives.
// tests/scenario_test.cpp pins it against a cell-by-cell reference.
#pragma once

#include <cstdint>

#include "amr/block.hpp"
#include "amr/flux_register.hpp"
#include "common/geometry.hpp"
#include "scenario/problem_generator.hpp"

namespace dfamr::scenario {

/// Coordinate of face i in 0..n along an axis of a box [lo, hi] cut into n
/// cells of width h. The two boundary faces take the box bounds verbatim:
/// abutting blocks derive those from the same integer anchor arithmetic
/// (GlobalStructure::box), so both sides of a same-level interface
/// evaluate velocity at bitwise-identical positions.
inline double face_coord(double lo, double hi, double h, int i, int n) {
    if (i == 0) return lo;
    if (i == n) return hi;
    return lo + i * h;
}

template <class G>
class FluxForm : public ProblemGenerator {
public:
    /// The default upwind flux: the face velocity at the state average picks
    /// the upwind state.
    double face_flux(int axis, const Vec3d& p, double ul, double ur) const override {
        const double v = self().G::velocity(p, 0.5 * (ul + ur))[axis];
        return v >= 0.0 ? v * ul : v * ur;
    }

    std::int64_t advance(amr::Block& blk, const Box& box, int var_begin, int var_end, double dt,
                         amr::FluxRegister* reg) const final;

private:
    const G& self() const { return static_cast<const G&>(*this); }
};

template <class G>
std::int64_t FluxForm<G>::advance(amr::Block& blk, const Box& box, int var_begin, int var_end,
                                  double dt, amr::FluxRegister* reg) const {
    // Each cell evaluates all six of its face fluxes, so every interior face
    // is evaluated twice from identical inputs: that is what makes the
    // telescoping sum cancel bitwise.
    const G& g = self();
    const amr::BlockShape& s = blk.shape();
    const Vec3d ext = box.extent();
    const double hx = ext.x / s.nx, hy = ext.y / s.ny, hz = ext.z / s.nz;
    const std::int64_t sx = s.stride_x(), sy = s.stride_y();
    struct Fluxes {
        double xl, xh, yl, yh, zl, zh;
    };
    blk.update_rows(var_begin, var_end, [&](int v, int x, int y, const double* in, double* out) {
        const double pxc = box.lo.x + (x - 0.5) * hx;
        const double xl = face_coord(box.lo.x, box.hi.x, hx, x - 1, s.nx);
        const double xh = face_coord(box.lo.x, box.hi.x, hx, x, s.nx);
        const double pyc = box.lo.y + (y - 0.5) * hy;
        const double yl = face_coord(box.lo.y, box.hi.y, hy, y - 1, s.ny);
        const double yh = face_coord(box.lo.y, box.hi.y, hy, y, s.ny);
        const auto cell = [&](int k) {  // in[k] is cell z = k + 1
            const int z = k + 1;
            const double pzc = box.lo.z + (z - 0.5) * hz;
            const double zl = face_coord(box.lo.z, box.hi.z, hz, z - 1, s.nz);
            const double zh = face_coord(box.lo.z, box.hi.z, hz, z, s.nz);
            const double u = in[k];
            const Fluxes f{g.G::face_flux(0, {xl, pyc, pzc}, in[k - sx], u),
                           g.G::face_flux(0, {xh, pyc, pzc}, u, in[k + sx]),
                           g.G::face_flux(1, {pxc, yl, pzc}, in[k - sy], u),
                           g.G::face_flux(1, {pxc, yh, pzc}, u, in[k + sy]),
                           g.G::face_flux(2, {pxc, pyc, zl}, in[k - 1], u),
                           g.G::face_flux(2, {pxc, pyc, zh}, u, in[k + 1])};
            out[k] = u - dt * ((f.xh - f.xl) / hx + (f.yh - f.yl) / hy + (f.zh - f.zl) / hz);
            return f;
        };
        // The register writes stay out of the per-cell loop: rows on an x or
        // y boundary face record a run along z there (null pointer: not on
        // that face), and every row records its first cell's low z flux and
        // its last cell's high z flux.
        double* const rxl = reg != nullptr && x == 1 ? &reg->at(0, -1, v, y, 1) : nullptr;
        double* const rxh = reg != nullptr && x == s.nx ? &reg->at(0, +1, v, y, 1) : nullptr;
        double* const ryl = reg != nullptr && y == 1 ? &reg->at(1, -1, v, x, 1) : nullptr;
        double* const ryh = reg != nullptr && y == s.ny ? &reg->at(1, +1, v, x, 1) : nullptr;
        Fluxes f = cell(0);
        const double fzl = f.zl;
        if (rxl != nullptr || rxh != nullptr || ryl != nullptr || ryh != nullptr) {
            const auto record = [&](int k) {
                if (rxl != nullptr) rxl[k] = f.xl;
                if (rxh != nullptr) rxh[k] = f.xh;
                if (ryl != nullptr) ryl[k] = f.yl;
                if (ryh != nullptr) ryh[k] = f.yh;
            };
            record(0);
            for (int k = 1; k < s.nz; ++k) {
                f = cell(k);
                record(k);
            }
        } else {
            for (int k = 1; k < s.nz; ++k) f = cell(k);
        }
        if (reg != nullptr) {
            reg->at(2, -1, v, x, y) = fzl;
            reg->at(2, +1, v, x, y) = f.zh;
        }
    });
    // Bookkeeping like apply_stencil: ~33 floating-point operations per cell
    // (six upwind fluxes plus the three-term divergence).
    return 33 * static_cast<std::int64_t>(s.nx) * s.ny * s.nz * (var_end - var_begin);
}

}  // namespace dfamr::scenario
