#include "amr/flux_register.hpp"

#include "common/error.hpp"

namespace dfamr::amr {

FluxRegister::FluxRegister(const BlockShape& shape) : shape_(shape) {
    std::int64_t offset = 0;
    for (int axis = 0; axis < 3; ++axis) {
        const auto [ua, va] = shape_.plane_axes(axis);
        const std::int64_t plane = static_cast<std::int64_t>(shape_.dim(ua)) * shape_.dim(va);
        face_offset_[static_cast<std::size_t>(axis * 2)] = offset;
        face_offset_[static_cast<std::size_t>(axis * 2 + 1)] = offset + plane;
        offset += 2 * plane;
    }
    per_var_ = offset;
    data_.assign(static_cast<std::size_t>(per_var_ * shape_.num_vars), 0.0);
}

std::span<double> FluxRegister::slice(int var_begin, int var_end) {
    return std::span<double>(data_).subspan(
        static_cast<std::size_t>(var_begin * per_var_),
        static_cast<std::size_t>((var_end - var_begin) * per_var_));
}

std::span<const double> FluxRegister::slice(int var_begin, int var_end) const {
    return std::span<const double>(data_).subspan(
        static_cast<std::size_t>(var_begin * per_var_),
        static_cast<std::size_t>((var_end - var_begin) * per_var_));
}

void FluxRegister::pack_restricted(int axis, int sense, int var_begin, int var_end,
                                   std::span<double> out) const {
    const auto [ua, va] = shape_.plane_axes(axis);
    const int U = shape_.dim(ua);
    const int V = shape_.dim(va);
    DFAMR_REQUIRE(out.size() ==
                      static_cast<std::size_t>(shape_.face_values_mixed(axis, var_end - var_begin)),
                  "flux_register: pack_restricted output size mismatch");
    std::size_t o = 0;
    for (int var = var_begin; var < var_end; ++var) {
        for (int u = 0; u < U / 2; ++u) {
            for (int v = 0; v < V / 2; ++v) {
                double sum = 0;
                for (int du = 1; du <= 2; ++du) {
                    for (int dv = 1; dv <= 2; ++dv) {
                        sum += at(axis, sense, var, 2 * u + du, 2 * v + dv);
                    }
                }
                out[o++] = 0.25 * sum;
            }
        }
    }
}

}  // namespace dfamr::amr
