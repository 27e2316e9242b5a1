#include "core/tampi_oss.hpp"

#include "common/error.hpp"
#include "common/timing.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

namespace graph = amr::graph;
using tasking::Dep;

static_assert(static_cast<int>(graph::Mode::In) == static_cast<int>(tasking::DepKind::In) &&
              static_cast<int>(graph::Mode::Out) == static_cast<int>(tasking::DepKind::Out) &&
              static_cast<int>(graph::Mode::InOut) == static_cast<int>(tasking::DepKind::InOut));

TampiOssDriver::TampiOssDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                               std::shared_ptr<amr::BlockArena> arena)
    : DriverBase(cfg, comm, tracer, std::move(arena)), rt_(cfg.workers - 1), tampi_(rt_) {
    runtime_ = &rt_;
    // Task-bound communication uses the same retry/timeout budget as the
    // driver-level hardened operations; a timed-out request surfaces as a
    // CommTimeout at the next taskwait instead of hanging the worker pool.
    tampi_.configure_resilience(hcomm_.policy(), tracer);
    // Fast-fail on sibling-rank crashes: once the world aborts, the
    // progress engine flushes every bound request and blocking waits bail
    // out, so the rank unwinds in milliseconds instead of riding out a
    // full comm_timeout per in-flight transfer.
    tampi_.set_abort_probe([&comm] { return comm.aborted(); });
    verifier_ = attach_verifier(rt_);
}

TampiOssDriver::~TampiOssDriver() {
    // Drain everything before members (tampi_, rt_) unwind.
    try {
        rt_.taskwait();
    } catch (...) {
    }
}

Dep TampiOssDriver::dep(const graph::Access& access, std::span<double> span) {
    return Dep{static_cast<tasking::DepKind>(access.mode),
               tasking::Region(span.data(), span.size_bytes())};
}

void TampiOssDriver::submit(const graph::Task& task) {
    const graph::Payload& p = task.payload;
    // The main thread takes every block a task fills from the arena before
    // the task's accesses resolve to it.
    if (task.kind.op == graph::Op::Split) {
        mesh_.adopt(mesh_.make_block(p.key.child(p.octant, mesh_.structure().max_level())));
    } else if (task.kind.op == graph::Op::Merge || task.kind.op == graph::Op::BlockRecv) {
        mesh_.adopt(mesh_.make_block(p.key));
    }
    // The accesses and the body go straight into the runtime's task node.
    tasking::Runtime::NewTask t = rt_.new_task(task.kind.label);
    std::array<std::span<double>, 2> spans{};  // the first accesses, which the kernels use
    for (std::size_t i = 0; i < task.accesses.size(); ++i) {
        const std::span<double> span = resolve(task.accesses[i].target);
        if (i < spans.size()) spans[i] = span;
        t.deps().push_back(dep(task.accesses[i], span));
    }
    bind(t.body(), task, spans);
    rt_.submit(std::move(t));
}

void TampiOssDriver::bind(tasking::TaskBody& out, const graph::Task& task,
                          const std::array<std::span<double>, 2>& s) {
    const graph::Payload& p = task.payload;
    const int max_level = mesh_.structure().max_level();
    const auto traced_body = [this, &task](auto fn) {
        return traced(this, task.kind.phase, std::move(fn));
    };
    switch (task.kind.op) {
        case graph::Op::Recv:
        case graph::Op::BlockRecv:
            // TAMPI_Irecv binds the task's completion to the arrival (the
            // body itself returns immediately).
            out = traced_body([msg = s[0], peer = p.peer, tag = p.tag](TampiOssDriver& d) {
                d.tampi_.irecv(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::Send:
            out = traced_body([msg = s[0], peer = p.peer, tag = p.tag](TampiOssDriver& d) {
                d.tampi_.isend(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::BlockSend:
            // A sent block leaves the mesh; the task frees it when it
            // completes, which TAMPI holds off until the send is done.
            out = traced_body([sent = mesh_.release(p.key), msg = s[0], peer = p.peer,
                          tag = p.tag](TampiOssDriver& d) {
                d.tampi_.isend(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::Split: {
            // A parent's 8 children come in a row: the first takes it out of
            // the mesh and the last hands over the driver's reference, so the
            // parent is freed when the last of its 8 tasks completes.
            if (p.octant == 0) split_parent_ = mesh_.release(p.key);
            std::shared_ptr<const Block> parent =
                p.octant == 7 ? std::move(split_parent_) : split_parent_;
            out = traced_body([parent = std::move(parent), octant = p.octant,
                          child = &mesh_.block(p.key.child(p.octant, max_level))](
                             TampiOssDriver&) { child->fill_from_parent(*parent, octant); });
            return;
        }
        case graph::Op::Merge: {
            // The task owns the 8 children it absorbs and frees them when it
            // completes.
            std::array<std::unique_ptr<Block>, 8> children;
            for (int octant = 0; octant < 8; ++octant) {
                children[static_cast<std::size_t>(octant)] =
                    mesh_.release(p.key.child(octant, max_level));
            }
            out = traced_body([children = std::move(children),
                          parent = &mesh_.block(p.key)](TampiOssDriver&) {
                for (int octant = 0; octant < 8; ++octant) {
                    parent->absorb_child(*children[static_cast<std::size_t>(octant)], octant);
                }
            });
            return;
        }
        default: DriverBase::bind(out, task.kind, p, s[0], s[1]);
    }
}

void TampiOssDriver::stencil_stage(int group) {
    graph::emit_stencil(*this, mesh_.owned_keys(), cfg_.group_begin(group), cfg_.group_end(group),
                        generator_ != nullptr);
}

void TampiOssDriver::checksum_stage() {
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    const int slot = open_checksum(keys);
    graph::emit_checksum(*this, cfg_, keys, slot, slots_[1 - slot].pending,
                         cfg_.delayed_checksum);
}

void TampiOssDriver::wait(const graph::Access& access, int slot) {
    rt_.taskwait_on({dep(access, resolve(access.target))});
    validate(slot);
}

void TampiOssDriver::drain(int slot) {
    rt_.taskwait();
    validate(slot);
}

void TampiOssDriver::join(graph::Join kind) {
    // A plain taskwait: no sentinel task, so the task count stays the
    // graph's. It completes this rank's sends (a TAMPI-bound send completes
    // on delivery, or once a rendezvous is granted, which the wire
    // transports do on the request's arrival, not on a posted receive), so
    // the barrier cannot deadlock.
    rt_.taskwait();
    if (kind == graph::Join::Transfers) comm_.barrier();
}

void TampiOssDriver::quiesce() {
    // Drain in-flight tasks so the main thread may read field state (live
    // CFL recomputation) without racing the stencil/reflux pipeline.
    rt_.taskwait();
}

void TampiOssDriver::drain_checksums() {
    rt_.taskwait();
    for (int i = 0; i < 2; ++i) {
        const int slot = 1 - slot_index_;  // older first
        if (slots_[slot].pending) validate(slot);
        slot_index_ = 1 - slot_index_;
    }
}

void TampiOssDriver::final_sync() { drain_checksums(); }

void TampiOssDriver::sync_before_refine() {
    // A deferred checksum crossing a refinement boundary must be resolved
    // now: the collective is ordered with other ranks' refinement phases.
    drain_checksums();
}

void TampiOssDriver::sync_refine_step() { rt_.taskwait(); }

void TampiOssDriver::do_splits(const std::vector<BlockKey>& parents) {
    if (!cfg_.taskify_refinement) {
        // Ablation (--serial_refinement): pre-paper sequential refinement.
        for (const BlockKey& key : parents) {
            const std::int64_t t0 = now_ns();
            mesh_.split_block(key);
            trace(0, t0, now_ns(), PhaseKind::RefineSplit);
        }
        return;
    }
    graph::emit_splits(*this, parents, mesh_.structure().max_level(), cfg_.num_vars,
                       static_cast<std::size_t>(graph::kSplitWaveParentsPerCore * cfg_.workers));
}

void TampiOssDriver::do_merges(const std::vector<BlockKey>& parents) {
    if (!cfg_.taskify_refinement) {
        for (const BlockKey& key : parents) {
            const std::int64_t t0 = now_ns();
            mesh_.merge_children(key);
            trace(0, t0, now_ns(), PhaseKind::RefineMerge);
        }
        return;
    }
    graph::emit_merges(*this, parents, mesh_.structure().max_level(), cfg_.num_vars);
}

void TampiOssDriver::transfer_block_data(const std::vector<BlockMove>& moves) {
    if (!cfg_.taskify_refinement) {
        DriverBase::transfer_block_data(moves);
        return;
    }
    graph::emit_block_transfers(*this, moves, rank_, cfg_.num_vars);
}

}  // namespace dfamr::core
