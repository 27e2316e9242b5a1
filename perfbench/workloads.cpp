#include "workloads.hpp"

#include "common/error.hpp"

namespace perfbench {

using dfamr::amr::Config;
using dfamr::amr::Variant;

const Layout& find_layout(const std::string& name) {
    // The hybrids run 2 ranks x 2 cores rather than 1 x 4: one rank sends
    // no messages, which would bypass the MPI and TAMPI layers entirely.
    static const Layout all[] = {
        {"serial", Variant::MpiOnly, 1, 1},
        {"mpi_only", Variant::MpiOnly, 4, 1},
        {"fork_join", Variant::ForkJoin, 2, 2},
        {"tampi_oss", Variant::TampiOss, 2, 2},
    };
    for (const Layout& l : all) {
        if (name == l.name) return l;
    }
    throw dfamr::ConfigError("unknown layout '" + name + "'");
}

namespace {

/// The paper's single-sphere input (Rico et al.) on 4x2x2 level-0 blocks of
/// 12^3 cells x 20 vars, refined every timestep to level 2.
Config sphere_amr() {
    Config cfg = dfamr::amr::single_sphere_input();
    cfg.init_x = 4;
    cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 12;
    cfg.num_vars = 20;
    cfg.num_tsteps = 4;
    cfg.stages_per_ts = 6;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.block_change = 1;
    // The sphere reaches the mesh centre by the last timestep whatever the
    // run length.
    const double rate = 0.8 / cfg.num_tsteps;
    cfg.objects[0].move = {rate, rate, rate};
    return cfg;
}

/// The same stencil on 4x4x2 level-0 blocks of 16^3 x 20 vars, never
/// refined: every face is same-level and tasks are large.
Config uniform_static() {
    Config cfg;
    cfg.init_x = 4;
    cfg.init_y = 4;
    cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 16;
    cfg.num_vars = 20;
    cfg.num_tsteps = 10;
    cfg.stages_per_ts = 8;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;  // structure depth only: refine_freq 0 never refines
    cfg.refine_freq = 0;
    return cfg;
}

/// The slotted-cylinder scenario: flux-form advection with Berger-Colella
/// refluxing, refined every timestep by the gradient estimator.
Config cylinder_reflux() {
    Config cfg;
    cfg.init_x = 4;
    cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 8;
    cfg.num_vars = 8;
    cfg.num_tsteps = 4;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.scenario = "slotted_cylinder";
    cfg.estimator = "gradient";
    cfg.refine_threshold = 0.1;
    cfg.deref_count = 3;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    return cfg;
}

}  // namespace

Config make_config(const std::string& workload, const Layout& layout, std::uint64_t seed) {
    Config cfg;
    if (workload == "sphere_amr") {
        cfg = sphere_amr();
    } else if (workload == "uniform_static") {
        cfg = uniform_static();
    } else if (workload == "cylinder_reflux") {
        cfg = cylinder_reflux();
    } else {
        throw dfamr::ConfigError("unknown workload '" + workload + "'");
    }
    // Ranks split the level-0 blocks along x (4 wide in every workload).
    cfg.npx = layout.ranks;
    cfg.init_x /= layout.ranks;
    cfg.workers = layout.workers;
    cfg.seed = seed;
    if (layout.variant == Variant::TampiOss) {
        // The paper's section IV options.
        cfg.send_faces = true;
        cfg.separate_buffers = true;
        cfg.max_comm_tasks = 8;
        cfg.delayed_checksum = true;
    }
    cfg.validate();
    return cfg;
}

}  // namespace perfbench
