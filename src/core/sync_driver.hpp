// The two bulk-synchronous variants (§V): the MPI-only reference (§II-A,
// Algorithms 1 and 2) and the MPI+OpenMP fork-join hybrid, the official
// hybrid miniAMR approach. They run the same program and differ only in
// for_each: a plain loop for MPI-only (one rank per core), and a static
// worksharing loop over all `workers` cores of the rank for fork-join, with
// the implicit barrier of an OpenMP parallel region at its end. Every MPI
// call and every change to the mesh map stays on the rank's main thread
// (the master). As in the paper, the fork-join variant also workshares the
// split/coarsen copies of the refinement phase to make the comparison fair.
#pragma once

#include <functional>

#include "core/driver_base.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::core {

class SyncDriver final : public DriverBase {
public:
    /// `variant` is MpiOnly or ForkJoin; only fork-join creates a runtime.
    SyncDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
               std::shared_ptr<amr::BlockArena> arena, amr::Variant variant);
    ~SyncDriver() override;  // out-of-line: verifier_ is incomplete here

protected:
    void communicate_stage(int group) override;
    void stencil_stage(int group) override;
    void reflux_stage(int group) override;
    void checksum_stage() override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;

private:
    /// Runs fn(i) for i in [0, n) and returns when all have run: in order on
    /// this thread for MPI-only, as a tasking::parallel_for over the team
    /// for fork-join.
    void for_each(std::int64_t n, const std::function<void(std::int64_t)>& fn);

    /// A plan's per-neighbour staging streams for one direction.
    using Stream = std::function<std::span<double>(std::size_t neighbor_index)>;
    /// Algorithm 2 for one direction of a plan, ghost or flux: post every
    /// receive, pack and send each chunk, run the `local_items` same-rank
    /// items, apply each message as it arrives (Waitany), then wait for the
    /// sends. Messages live in the staging streams, or under --zero_copy in
    /// transport frames. `pack(face, out)` fills a face's section of an
    /// outgoing message; `apply(face, in)` consumes one of an incoming one.
    template <class Pack, class Apply>
    void exchange(int gvars, const std::vector<amr::NeighborExchange>& neighbors,
                  const Stream& send_stream, const Stream& recv_stream, const Pack& pack,
                  const Apply& apply, std::int64_t local_items,
                  const std::function<void(std::int64_t)>& local);

    /// Populated for fork-join in DFAMR_VERIFY builds or under
    /// DFAMR_DEPLINT=1; declared before rt_ (shutdown hook).
    std::unique_ptr<verify::Verifier> verifier_;
    /// Fork-join only: workers - 1 pool threads. With the master (this
    /// thread) they form the team of `workers` cores every for_each is split
    /// over; the master runs its chunk while it waits at the barrier.
    std::unique_ptr<tasking::Runtime> rt_;
};

}  // namespace dfamr::core
