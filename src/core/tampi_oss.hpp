// The paper's contribution (§IV): the complete data-flow taskification of
// miniAMR on OmpSs-2-style tasks + TAMPI. The tasks of every phase (the
// ghost exchange and the reflux of Algorithm 3, stencil, checksum with the
// §IV-C delayed validation, and refinement) come from amr/task_graph.hpp,
// which the DES consumes too. This driver is the runtime's sink: it resolves
// each access to the span of a block, register, staging stream or checksum
// slot, binds the kernel and submits the task. MPI calls run inside tasks
// bound through TAMPI; no MPI_Waitany anywhere. Refinement keeps its
// control messages sequential on the main thread (§IV-B).
#pragma once

#include <array>
#include <memory>
#include <span>

#include "amr/task_graph.hpp"
#include "core/driver_base.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::core {

class TampiOssDriver final : public DriverBase {
public:
    TampiOssDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                   std::shared_ptr<amr::BlockArena> arena);
    ~TampiOssDriver() override;

    // ---- the sink of amr/task_graph.hpp's emit functions ------------------
    /// Takes the blocks `task` fills from the arena, resolves its accesses
    /// to spans and submits its kernel.
    void submit(const amr::graph::Task& task);
    /// Waits on `access` or on every task, then validates checksum `slot`.
    void wait(const amr::graph::Access& access, int slot);
    void drain(int slot);
    /// Waits for every task; a transfer join then waits at a barrier.
    void join(amr::graph::Join kind);

protected:
    /// Algorithm 3 and the reflux only instantiate tasks: the dependency
    /// system finds whether directions overlap (--separate_buffers), and the
    /// inout on a coarse block and its register orders its corrections
    /// 0 -> 1 -> 2, like the synchronous variants.
    void communicate_stage(int group) override { emit_exchanges(*this, group, false, [] {}); }
    void stencil_stage(int group) override;
    void reflux_stage(int group) override { emit_exchanges(*this, group, true, [] {}); }
    void checksum_stage() override;
    void quiesce() override;
    void drain_checksums() override;
    void do_splits(const std::vector<BlockKey>& parents) override;
    void do_merges(const std::vector<BlockKey>& parents) override;
    bool transfer_tasks(const std::vector<BlockMove>& moves) override;

private:
    static tasking::Dep dep(const amr::graph::Access& access, std::span<double> span);
    /// Binds `out` to the body of `task` on its first two accesses' spans:
    /// messages and refinement here, the rest by DriverBase::bind.
    void bind(tasking::TaskBody& out, const amr::graph::Task& task,
              const std::array<std::span<double>, 2>& spans);
    /// DepLint + access checker, populated in DFAMR_VERIFY builds or when
    /// DFAMR_DEPLINT=1 opts a default build in (multi-process race proofs).
    /// Declared before rt_: the runtime's shutdown fires into the hook.
    std::unique_ptr<verify::Verifier> verifier_;
    tasking::Runtime rt_;
    tampi::Tampi tampi_;
    /// The parent whose 8 split tasks are being submitted.
    std::shared_ptr<const Block> split_parent_;
};

}  // namespace dfamr::core
