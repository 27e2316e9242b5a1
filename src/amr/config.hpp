// miniAMR configuration: every option of the reference mini-app that this
// reproduction honours, plus the three options introduced by the paper
// (--send_faces already existed; --separate_buffers and --max_comm_tasks are
// new in §IV-A).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "amr/object.hpp"
#include "common/cli.hpp"

namespace dfamr::amr {

/// Which hybrid variant executes the mini-app (§V).
enum class Variant {
    MpiOnly,   // reference MPI-only, one rank per core
    ForkJoin,  // MPI + fork-join worksharing, master-only MPI
    TampiOss,  // the paper's data-flow taskification (TAMPI + OmpSs-2)
};

std::string to_string(Variant v);

struct Config {
    // --- domain decomposition -------------------------------------------
    int npx = 1, npy = 1, npz = 1;          // ranks per dimension
    int init_x = 1, init_y = 1, init_z = 1; // initial blocks per rank per dim
    int nx = 10, ny = 10, nz = 10;          // cells per block per dim (even)

    // --- variables and grouping ------------------------------------------
    int num_vars = 40;   // variables per cell
    int comm_vars = 0;   // variables per communication group (0 = all at once)
    int stencil = 7;     // stencil points: 7 (default) or 27

    // --- time stepping ----------------------------------------------------
    int num_tsteps = 20;      // timesteps to simulate
    int stages_per_ts = 20;   // stages (comm+stencil sweeps) per timestep
    int checksum_freq = 5;    // stages between checksum validations (0 = off)
    // Relative drift tolerated between consecutive checksums. The 7-point
    // average is exactly conservative with reflective domain ghosts, but the
    // restriction/prolongation at coarse-fine faces is not, so a small drift
    // per stage is legitimate (the reference mini-app's validation is also
    // tolerance-based for this reason).
    double tol = 0.05;

    // --- refinement --------------------------------------------------------
    int num_refine = 5;       // maximum refinement level
    int refine_freq = 5;      // timesteps between refinement phases (0 = off)
    int block_change = 0;     // max level changes per block per refinement (0 = num_refine)
    bool uniform_refine = false;  // refine everything everywhere (stress mode)

    // --- load balancing ----------------------------------------------------
    bool lb_opt = true;           // perform RCB load balancing inside refinement
    double inbalance = 0.05;      // trigger threshold: (max-avg)/avg above this rebalances

    // --- scenario subsystem (estimator-driven refinement) --------------------
    // Problem generator: "synthetic" keeps the reference stencil sweep over
    // hashed cell data; a registered generator name (gaussian,
    // slotted_cylinder, front) initializes the fields from its profile and
    // replaces the sweep with its advection kernel. Names are validated
    // against the registry by the driver (the amr layer cannot see it).
    std::string scenario = "synthetic";
    // Refinement condition: "objects" (the reference miniAMR criterion) or
    // a field-based estimator ("gradient", "curvature").
    std::string estimator = "objects";
    // A block refines iff its estimator score is strictly above this.
    double refine_threshold = 0.5;
    // Consecutive coarsen-willing checks before a block actually coarsens
    // (hysteresis; 1 = coarsen immediately, the legacy behaviour).
    int deref_count = 1;

    // --- objects ------------------------------------------------------------
    std::vector<ObjectSpec> objects;

    // --- communication options (paper §IV-A) --------------------------------
    bool send_faces = false;      // one MPI message per face (default: aggregate
                                  // all faces per direction+neighbor)
    bool separate_buffers = false;  // per-direction comm buffers (kills false deps)
    int max_comm_tasks = 0;       // with send_faces: max messages per direction and
                                  // neighbor; 0 = one per face (§IV-A)
    // Zero-copy pack/unpack: faces are packed directly into the transport
    // frame and unpacked straight out of the received frame, eliminating
    // both staging copies. Honoured by the MpiOnly and ForkJoin variants;
    // TampiOss ignores it (its task dependencies are declared on the
    // persistent staging buffers, which per-message transient frames would
    // invalidate — the same reason --separate_buffers exists).
    bool zero_copy = false;

    // --- TAMPI+OSS specific ---------------------------------------------------
    bool delayed_checksum = false;  // §IV-C taskwait-with-deps optimization
    // Ablation switch for the §IV-B claim ("our taskification removes ~80%
    // of the total refinement time"): false = keep the refinement data
    // operations sequential, as before the paper's work.
    bool taskify_refinement = true;

    int workers = 1;  // cores per rank for hybrid variants (OpenMP/OmpSs-2 threads)

    std::uint64_t seed = 42;  // seeds initial cell data

    // --- resilience (fault injection / checkpoint-restart) --------------------
    int checkpoint_every = 0;  // timesteps between checkpoints (0 = off)
    std::string checkpoint_path = "dfamr.ckpt";
    std::string restore_path;     // restore simulation state from this file
    double comm_timeout_s = 10;   // hardened comm completion deadline (seconds)
    int comm_max_attempts = 5;    // send attempts before CommTimeout

    // ---- derived -------------------------------------------------------------
    int num_ranks() const { return npx * npy * npz; }
    int vars_per_group() const { return comm_vars > 0 ? comm_vars : num_vars; }
    int num_groups() const {
        const int g = vars_per_group();
        return (num_vars + g - 1) / g;
    }
    /// Variables [group_begin(g), group_end(g)); the last group may be narrower.
    int group_begin(int group) const { return group * vars_per_group(); }
    int group_end(int group) const { return std::min(num_vars, (group + 1) * vars_per_group()); }
    int max_block_change() const { return block_change > 0 ? block_change : num_refine; }
    /// Cells including the one-deep ghost shell.
    std::int64_t cells_with_ghosts() const {
        return static_cast<std::int64_t>(nx + 2) * (ny + 2) * (nz + 2);
    }
    std::int64_t cells_interior() const { return static_cast<std::int64_t>(nx) * ny * nz; }

    /// Throws ConfigError on invalid combinations (odd block sizes, etc.).
    void validate() const;

    /// Registers all options on a CLI parser (shared by examples/benches).
    static void register_cli(CliParser& cli);
    /// Builds a Config from parsed CLI values: starts from `base` and
    /// overrides exactly the options present on the command line (so
    /// examples can ship problem-specific defaults).
    static Config from_cli(const CliParser& cli, Config base);
    static Config from_cli(const CliParser& cli);
};

/// The input of Rico et al. (2019): one big sphere entering the mesh from a
/// lower corner, producing early imbalance (§V, first input problem).
Config single_sphere_input();

/// The input of Vaughan et al. (2015): four spheres crossing the mesh along
/// the X axis without colliding (§V, second input problem).
Config four_spheres_input();

}  // namespace dfamr::amr
