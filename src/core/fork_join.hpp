// MPI+OpenMP fork-join variant driver (§V "MPI+OMP fork-join"): the official
// hybrid miniAMR approach. Worksharing loops with static scheduling over all
// `workers` cores of the rank parallelize stencil, pack/unpack,
// intra-process copies and local checksums; every MPI call stays on the
// master thread; each parallel region ends with an implicit barrier. As in
// the paper, we additionally parallelize the split/coarsen copies of the
// refinement phase to make the comparison fair.
#pragma once

#include "core/driver_base.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::verify {
class Verifier;
}

namespace dfamr::core {

class ForkJoinDriver final : public DriverBase {
public:
    ForkJoinDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer);
    ~ForkJoinDriver() override;  // out-of-line: verifier_ is incomplete here

protected:
    void communicate_stage(int group) override;
    void stencil_stage(int group) override;
    void reflux_stage(int group) override;
    void checksum_stage() override;
    SchedulerCounters scheduler_counters() const override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;
    void transfer_block_data(const std::vector<BlockMove>& sends,
                             const std::vector<BlockMove>& recvs) override;
    int worker_index() override;

private:
    void exchange_direction(int dir, int gb, int ge);
    /// --zero_copy fast path: workshared pack straight into transport
    /// frames, workshared unpack straight out of received frames.
    void exchange_direction_zero_copy(int dir, int gb, int ge);
    /// Intra-process face copies and boundary reflection of one direction
    /// as a single worksharing region.
    void copy_and_reflect(int dir, const amr::DirectionPlan& dp, int gb, int ge);
    /// parallel-for with the implicit barrier of an OpenMP region.
    void pfor(std::int64_t n, const std::function<void(std::int64_t)>& fn);

    /// Populated in DFAMR_VERIFY builds or under DFAMR_DEPLINT=1; declared
    /// before rt_ (shutdown hook).
    std::unique_ptr<verify::Verifier> verifier_;
    /// workers - 1 pool threads. With the master (this thread) they form
    /// the team of `workers` cores every worksharing loop is split over;
    /// the master runs its chunk while it waits at the barrier.
    tasking::Runtime rt_;
};

}  // namespace dfamr::core
