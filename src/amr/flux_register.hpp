// Per-block flux registers for Berger–Colella refluxing at coarse-fine
// interfaces.
//
// The flux-form advection kernel records the per-area upwind flux it used at
// every cell face on each of the block's six boundary planes. Across a
// same-level interface both blocks compute the face flux from bitwise
// identical inputs, so the telescoping sum over the interface cancels
// exactly and the registers are pure bookkeeping. Across a coarse-fine
// interface the two sides disagree (the coarse side fluxed against a
// restricted ghost, the fine side against prolonged ghosts); the fine
// side's registers are restricted (area-weighted quarter-face average) and
// shipped to the coarse side, which replaces its own flux with the fine
// sum — after the correction every interface again telescopes to zero and
// total mass is conserved to rounding.
//
// Registers are transient per-stage state: the kernel overwrites them on
// every advance and the reflux pass consumes them in the same stage, so
// they are never checkpointed and are rebuilt whenever the comm plan is.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "amr/block.hpp"

namespace dfamr::amr {

class FluxRegister {
public:
    FluxRegister() = default;
    explicit FluxRegister(const BlockShape& shape);

    const BlockShape& shape() const { return shape_; }

    /// Flux at the face plane orthogonal to `axis` on the `sense` side
    /// (+1 high, -1 low), variable `var`, in-plane cell (u, v) with the
    /// same 1-based convention as Block::at and pack_face.
    double& at(int axis, int sense, int var, int u, int v) {
        return data_[static_cast<std::size_t>(index(axis, sense, var, u, v))];
    }
    double at(int axis, int sense, int var, int u, int v) const {
        return data_[static_cast<std::size_t>(index(axis, sense, var, u, v))];
    }

    /// Contiguous storage of variables [var_begin, var_end) — registers are
    /// var-major so task dependencies can be declared per variable group,
    /// mirroring Block::group_span.
    std::span<double> slice(int var_begin, int var_end);
    std::span<const double> slice(int var_begin, int var_end) const;

    /// Restricts one face's registers for a coarser receiver: each output
    /// value is the area-weighted average (0.25 x 2x2 sum) of the four fine
    /// face fluxes it covers, in exactly the order Block::pack_face uses for
    /// FaceRel::Coarser so the flux stream pairs element-wise with the ghost
    /// plan's transfer lists. `out` must hold face_values_mixed(axis, vars).
    void pack_restricted(int axis, int sense, int var_begin, int var_end,
                         std::span<double> out) const;

private:
    std::int64_t index(int axis, int sense, int var, int u, int v) const {
        const auto [ua, va] = shape_.plane_axes(axis);
        const int face = axis * 2 + (sense > 0 ? 1 : 0);
        return var * per_var_ + face_offset_[static_cast<std::size_t>(face)] +
               static_cast<std::int64_t>(u - 1) * shape_.dim(va) + (v - 1);
    }

    BlockShape shape_;
    std::array<std::int64_t, 6> face_offset_{};  // face = axis * 2 + (sense > 0)
    std::int64_t per_var_ = 0;
    std::vector<double> data_;
};

}  // namespace dfamr::amr
