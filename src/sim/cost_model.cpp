#include "sim/cost_model.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "amr/block.hpp"
#include "common/timing.hpp"

namespace dfamr::sim {

CostModel calibrate(int block_cells, int vars) {
    CostModel model;

    amr::BlockShape shape{block_cells, block_cells, block_cells, vars};
    amr::Block block(amr::BlockKey{}, shape);
    block.init_cells(dfamr::Box{{0, 0, 0}, {1, 1, 1}}, 7);

    const std::int64_t cells =
        static_cast<std::int64_t>(block_cells) * block_cells * block_cells;

    // Stencil: repeat until we have a stable per-cell-var figure.
    {
        const int reps = 20;
        const std::int64_t t0 = now_ns();
        for (int r = 0; r < reps; ++r) block.stencil7(0, vars);
        const std::int64_t dt = now_ns() - t0;
        model.stencil_ns_per_cell_var =
            std::max(0.2, static_cast<double>(dt) / (static_cast<double>(reps) * cells * vars));
    }

    // Copy cost from the kernel behind the DES's IntraCopy/Pack/Unpack
    // tasks: Block::copy_face_from over the six same-level faces, per face
    // byte (8 per value). The fastest of several rounds, so one preemption
    // cannot inflate it.
    {
        amr::Block neighbor(amr::BlockKey{}, shape);
        neighbor.init_cells(dfamr::Box{{1, 0, 0}, {2, 1, 1}}, 7);
        std::vector<amr::FaceGeom> faces;
        std::int64_t bytes = 0;
        for (int axis = 0; axis < 3; ++axis) {
            for (const int sense : {-1, +1}) {
                faces.push_back(amr::FaceGeom{axis, sense, amr::FaceRel::Same, 0});
                bytes += block.face_value_count(faces.back(), vars) *
                         static_cast<std::int64_t>(sizeof(double));
            }
        }
        const int rounds = 5, reps = 20;
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (int round = 0; round < rounds; ++round) {
            const std::int64_t t0 = now_ns();
            for (int r = 0; r < reps; ++r) {
                for (const amr::FaceGeom& g : faces) block.copy_face_from(neighbor, g, 0, vars);
            }
            best = std::min(best, now_ns() - t0);
        }
        model.copy_ns_per_byte =
            std::max(0.005, static_cast<double>(best) / (static_cast<double>(reps) * bytes));
    }

    // Checksum.
    {
        const int reps = 20;
        double sink = 0;
        const std::int64_t t0 = now_ns();
        for (int r = 0; r < reps; ++r) sink += block.checksum(0, vars);
        const std::int64_t dt = now_ns() - t0;
        model.checksum_ns_per_cell_var =
            std::max(0.1, static_cast<double>(dt) / (static_cast<double>(reps) * cells * vars));
        (void)sink;
    }
    return model;
}

}  // namespace dfamr::sim
