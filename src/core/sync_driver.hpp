// The two bulk-synchronous variants (§V): the MPI-only reference (§II-A,
// Algorithms 1 and 2) and the MPI+OpenMP fork-join hybrid, the official
// hybrid miniAMR approach. Both run the task graph the data-flow variant
// submits (amr/task_graph.hpp) through its loop rule, graph::LoopRule, and
// differ only in how a loop runs: a plain loop for MPI-only (one rank per
// core), and a static worksharing loop over all `workers` cores of the rank
// for fork-join, with the implicit barrier of an OpenMP parallel region at
// its end. Every MPI call and every change to the mesh map stays on the
// rank's main thread (the master). As in the paper, the fork-join variant
// also workshares the split/coarsen copies of the refinement phase to make
// the comparison fair: their items take their blocks from the arena inside
// the loop.
#pragma once

#include <array>
#include <deque>

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
    void communicate_stage(int group) override { exchange_stage(group, false); }
    void stencil_stage(int group) override;
    void reflux_stage(int group) override { exchange_stage(group, true); }
    void checksum_stage() override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;

private:
    /// The ghost exchange, or the reflux (DESIGN.md §18) over the flux plan.
    void exchange_stage(int group, bool flux);

    // ---- the backend of the loop rule (see graph::LoopRule) -----------------
    // item() takes a split's parent or a merge's children out of the mesh;
    // loop() runs the items, in order on this thread for MPI-only and as a
    // tasking::parallel_for over the team for fork-join, then adopts the
    // blocks they filled. Messages live in the staging streams, or under
    // --zero_copy in transport frames: post() posts a receive, send() packs
    // a message and sends it, wait_any() is Waitany over the receives and
    // end_exchange() waits for the sends.
    friend class amr::graph::LoopRule<SyncDriver>;
    struct Item {  // a task's kind, payload and first two targets
        amr::graph::Kind kind;
        amr::graph::Payload payload;
        std::array<amr::graph::Target, 2> targets;
    };
    Item item(const amr::graph::Task& task);
    void loop(std::span<Item> items);
    void post(const amr::graph::Task& task);
    template <class RunPacks>
    void send(const amr::graph::Task& task, const RunPacks& run_packs);
    int wait_any();
    void end_exchange();
    /// Runs item `i` of a loop (on any member of the team).
    void run_item(const Item& item, std::size_t i);
    /// The span a kernel reads or writes of target `t` (DriverBase::bind):
    /// under --zero_copy a message section lies in its message's frame.
    std::span<const double> input(const amr::graph::Target& t);
    std::span<double> output(const amr::graph::Target& t);

    /// Populated for fork-join in DFAMR_VERIFY builds or under
    /// DFAMR_DEPLINT=1; declared before rt_ (shutdown hook).
    std::unique_ptr<verify::Verifier> verifier_;
    /// Fork-join only: workers - 1 pool threads. With the master (this
    /// thread) they form the team of `workers` cores every loop is split
    /// over; the master runs its chunk while it waits at the barrier.
    std::unique_ptr<tasking::Runtime> rt_;
    amr::graph::LoopRule<SyncDriver> loops_{*this};

    // ---- the exchange in flight ----------------------------------------------
    std::vector<mpi::Request> recv_reqs_, send_reqs_;
    std::vector<std::int64_t> recv_first_;  // each receive's offset in its stream
    /// --zero_copy: the frames of the receives, addressed by the delivery
    /// path until matched (a deque never moves its elements), and the frame
    /// of the message being applied or packed, with its offset in its stream.
    std::deque<mpi::RxView> views_;
    std::span<const double> rx_frame_;
    std::span<double> tx_frame_;
    std::int64_t frame_first_ = 0;

    // ---- refinement items ------------------------------------------------------
    std::shared_ptr<const Block> split_parent_;  // the parent of the splits being taken
    std::vector<std::shared_ptr<const Block>> parents_;            // per split item
    std::vector<std::array<std::unique_ptr<Block>, 8>> children_;  // per merge item
    std::vector<std::unique_ptr<Block>> made_;  // the block each item fills
};

}  // namespace dfamr::core
