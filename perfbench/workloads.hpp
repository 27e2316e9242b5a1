// Benchmark workloads and layouts: the fixed meshes and the four ways of
// running each on 4 cores (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "amr/config.hpp"

namespace perfbench {

/// One way of spending the cores on a workload: variant, ranks and cores
/// per rank.
struct Layout {
    const char* name;
    dfamr::amr::Variant variant;
    int ranks;    // ranks along x
    int workers;  // cores per rank: the rank thread plus workers - 1 runtime workers
};

/// serial, mpi_only, fork_join or tampi_oss.
const Layout& find_layout(const std::string& name);

/// The workload's configuration for `layout`: the same global mesh for
/// every layout, decomposed along x. `seed` goes to cfg.seed.
dfamr::amr::Config make_config(const std::string& workload, const Layout& layout,
                               std::uint64_t seed);

}  // namespace perfbench
