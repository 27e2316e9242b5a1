// Cost model for the discrete-event cluster simulation (the MareNostrum4
// substitute). Per-task costs are derived from the real kernels measured on
// the build host (calibrate()); network parameters default to values typical
// of a fat-tree EDR cluster like the paper's testbed.
//
// Honesty note (DESIGN.md §7): the data-flow variant's higher IPC — the
// paper attributes it to OmpSs-2's immediate-successor policy reusing warm
// caches — is modeled as `locality_speedup` applied to stencil tasks of the
// TAMPI+OSS variant. bench/locality_ablation reports the scaling results
// with the factor disabled.
#pragma once

#include <cstdint>

namespace dfamr::sim {

struct CostModel {
    // --- compute kernels (calibrated) -----------------------------------
    // The stencil sweep is memory-bound (~4 x 8B accesses per cell-var);
    // 6 ns/cell/var matches a ~5 GB/s-per-core effective stream, in line
    // with a fully-populated Xeon 8160 node and with calibrate() on typical
    // development hosts.
    double stencil_ns_per_cell_var = 6.0;
    // Face transfers (pack, unpack, intra-rank copy) and split/merge block
    // copies; calibrate() times Block::copy_face_from.
    double copy_ns_per_byte = 0.05;
    double checksum_ns_per_cell_var = 1.5;

    // --- runtime/MPI overheads -------------------------------------------
    // Per-task overhead of the work-stealing tasking runtime on a worker's
    // critical path. Submission overlaps execution, and the
    // immediate-successor path hands a finished task's successor over
    // without touching any queue, so only the completion + dispatch slice
    // of the runtime's per-task cost is charged. perfbench's
    // tasking.ns_per_task.{chain,fanout} probes measure the whole per-task
    // cost, submit through taskwait, on the build host.
    double tasking_overhead_ns = 150;
    double mpi_call_ns = 300;        // posting an Isend/Irecv
    double control_ns_per_block = 2500;  // refinement marking/control per block
    double rcb_ns_per_block = 400;       // load-balance partitioning per block

    // --- network (LogGP-ish) ----------------------------------------------
    double alpha_ns = 1500;           // per-message latency
    double bytes_per_ns = 12.5;       // per-NIC bandwidth (12.5 B/ns = 12.5 GB/s)
    // Per-message occupancy of the sender NIC (the LogGP "gap"): makes many
    // small messages strictly worse than one aggregated message — the
    // Table II "all" penalty.
    double nic_gap_ns = 500;
    // Messages between ranks of the same node bypass the NIC but pay the
    // shared-memory MPI path (two copies + synchronization) — slower than
    // the direct memcpy the hybrid variants use for intra-rank faces.
    double intra_node_alpha_ns = 600;
    double intra_node_bytes_per_ns = 8.0;

    // --- modeled effects ----------------------------------------------------
    // IPC advantage of data-flow stencil tasks (immediate-successor
    // locality; the paper calls the increase "significant" — §V-B cause 4).
    double locality_speedup = 1.18;
    // Memory-bound kernel slowdown when a rank spans both NUMA domains.
    double numa_penalty = 1.30;

    /// Wire time of a message (added on top of the sender's egress queue).
    std::int64_t wire_ns(std::int64_t bytes, bool same_node) const {
        const double a = same_node ? intra_node_alpha_ns : alpha_ns;
        const double bw = same_node ? intra_node_bytes_per_ns : bytes_per_ns;
        return static_cast<std::int64_t>(a + static_cast<double>(bytes) / bw);
    }
    /// Binomial-tree collective across P ranks carrying `bytes` per rank.
    std::int64_t collective_ns(int participants, std::int64_t bytes) const {
        int rounds = 0;
        for (int p = 1; p < participants; p *= 2) ++rounds;
        return static_cast<std::int64_t>(
            rounds * (alpha_ns + static_cast<double>(bytes) / bytes_per_ns + mpi_call_ns));
    }
};

/// Measures the real stencil / copy / checksum kernels on this machine and
/// returns a CostModel with the calibrated compute constants (network and
/// overhead constants keep their defaults).
CostModel calibrate(int block_cells = 12, int vars = 8);

}  // namespace dfamr::sim
