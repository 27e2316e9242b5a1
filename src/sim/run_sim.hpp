// Simulated (DES) execution of the three miniAMR variants on a virtual
// cluster — regenerates the paper's scaling experiments at 4..256 nodes on
// a development machine. The mesh evolution (refinement decisions, load
// balancing, communication patterns) is computed exactly by the program the
// real drivers run (amr/program.hpp); only kernel execution is replaced by
// the calibrated cost model.
#pragma once

#include "amr/config.hpp"
#include "amr/program.hpp"
#include "amr/trace.hpp"
#include "common/geometry.hpp"
#include "sim/simulator.hpp"

namespace dfamr::sim {

struct SimResult {
    double total_s = 0;
    double refine_s = 0;
    double non_refine_s() const { return total_s - refine_s; }
    std::int64_t total_flops = 0;
    double gflops() const { return total_s > 0 ? static_cast<double>(total_flops) / total_s * 1e-9 : 0; }
    std::int64_t final_blocks = 0;
    /// The program's counters over every rank, folded as the drivers' are.
    amr::RunCounters counters;
    SimStats stats;
};

/// Near-cubic factorization of n into three factors (descending-balanced).
Vec3i factor3(int n);
/// A rank grid with product `nranks` whose components divide `blocks`.
/// Throws ConfigError when impossible.
Vec3i rank_grid_dividing(Vec3i blocks, int nranks);
/// Configures cfg's rank grid (npx..) and per-rank initial blocks (init_*)
/// so that the global level-0 block grid is exactly `block_grid` while
/// running on `total_ranks` ranks — the paper's weak-scaling constraint
/// that every variant simulates the same mesh (§V-C).
void arrange(amr::Config& cfg, Vec3i block_grid, int total_ranks);

/// Runs the full mini-app under the DES. `app`'s rank grid must match
/// cluster.total_ranks(); cfg.workers is ignored (cluster decides cores per
/// rank). An optional tracer records simulated per-core timelines (Fig 1-3).
SimResult run_simulated(const amr::Config& app, amr::Variant variant, const ClusterSpec& cluster,
                        const CostModel& costs, amr::Tracer* tracer = nullptr);

}  // namespace dfamr::sim
