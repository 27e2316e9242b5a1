// Layer probes: time each layer's public functions on the workload's own
// block shape and refined structure, outside any variant driver.
#pragma once

namespace perfbench {

/// `probes <workload> <seed>`: prints one JSON line of probe metrics.
int run_probes(int argc, char** argv);

}  // namespace perfbench
