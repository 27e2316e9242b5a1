// The paper's contribution (§IV): the complete data-flow taskification of
// miniAMR on OmpSs-2-style tasks + TAMPI.
//
//  * communicate (Algorithm 3) and reflux: one submitter, submit_exchange,
//    serves both plans. Per direction it submits receive tasks (TAMPI_Irecv,
//    out-dependency on the receive-buffer section), pack tasks (in: the
//    source block face or register / out: send-buffer section), send tasks
//    (TAMPI_Isend, in-dependency — with aggregated messages a single region
//    dependency over the chunk's contiguous sections plays the role of the
//    paper's multidependency), one same-rank task per destination block
//    (its intra-rank copies, then its boundary reflections, or its
//    intra-rank refluxes) and apply tasks (in: section / inout: block). No
//    MPI_Waitany anywhere.
//  * stencil: one task per block and variable group (inout on the block's
//    group range — the paper's §IV-D dependency granularity).
//  * checksum (§IV-C): local-reduction tasks per (block, group), a reduce
//    task per group, one taskwait per checksum stage — or, with
//    --delayed_checksum, a taskwait-with-dependencies that validates the
//    *previous* checksum stage so the pipeline keeps flowing.
//  * refinement (§IV-B): split/merge copy tasks; the block exchange keeps
//    its control messages sequential on the main thread while pack/send/
//    recv/unpack of block payloads are tasks bound through TAMPI.
#pragma once

#include <atomic>

#include "core/driver_base.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::core {

class TampiOssDriver final : public DriverBase {
public:
    TampiOssDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                   std::shared_ptr<amr::BlockArena> arena);
    ~TampiOssDriver() override;

protected:
    void communicate_stage(int group) override;
    void stencil_stage(int group) override;
    void reflux_stage(int group) override;
    void checksum_stage() override;
    void quiesce() override;
    void final_sync() override;
    void sync_before_refine() override;
    void sync_refine_step() override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;
    void transfer_block_data(const std::vector<BlockMove>& sends,
                             const std::vector<BlockMove>& recvs) override;

private:
    /// The ghost exchange and the reflux of one direction and variable
    /// group, as submit_exchange sees them: the plan's items, the staging
    /// streams, the face kernels and the regions each kernel reads and
    /// writes (defined in tampi_oss.cpp).
    struct GhostFaces;
    struct FluxFaces;
    /// Algorithm 3 for one direction of either plan, shaped like
    /// SyncDriver::exchange: one receive task per incoming message, one pack
    /// task per outgoing face, one send task per message, one task per
    /// destination block for the same-rank items (in: each source, inout:
    /// the destination), then one apply task per incoming face.
    template <class Faces>
    void submit_exchange(const Faces& faces);
    /// Waits for every submitted task, then validates the deferred checksum
    /// stages still pending, older first.
    void drain_checksums();

    /// DepLint + access checker, populated in DFAMR_VERIFY builds or when
    /// DFAMR_DEPLINT=1 opts a default build in (multi-process race proofs).
    /// Declared before rt_: the runtime's shutdown fires into the hook.
    std::unique_ptr<verify::Verifier> verifier_;
    tasking::Runtime rt_;
    tampi::Tampi tampi_;
    std::atomic<std::int64_t> flops_{0};

    /// Double-buffered checksum state for the §IV-C delayed validation.
    struct ChecksumSlot {
        std::vector<double> partials;    // [group][block]
        std::vector<double> group_sums;  // one per group
        bool pending = false;
    };
    ChecksumSlot slots_[2];
    int slot_index_ = 0;
};

}  // namespace dfamr::core
