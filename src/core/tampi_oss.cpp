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

std::span<double> TampiOssDriver::resolve(const graph::Target& t) {
    const auto vb = static_cast<int>(t.first), ve = static_cast<int>(t.first + t.count);
    const auto section = [&t](std::span<double> s) {
        return s.subspan(static_cast<std::size_t>(t.first), static_cast<std::size_t>(t.count));
    };
    switch (t.object) {
        case graph::Object::Vars: return mesh_.block(t.key).group_span(vb, ve);
        case graph::Object::Flux: return flux_register(t.key).slice(vb, ve);
        case graph::Object::Send: return section(buffers_.send_storage(t.index));
        case graph::Object::Recv: return section(buffers_.recv_storage(t.index));
        case graph::Object::FluxSend: return section(flux_buffers_.send_storage(t.index));
        case graph::Object::FluxRecv: return section(flux_buffers_.recv_storage(t.index));
        case graph::Object::Partials: return section(slots_[t.index].partials);
        case graph::Object::Sums: return section(slots_[t.index].group_sums);
        case graph::Object::Outflux: return {&boundary_outflux_, 1};
    }
    throw Error("unknown task-graph object");
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
    std::array<std::span<double>, 3> spans{};  // the first accesses, which the kernels use
    for (std::size_t i = 0; i < task.accesses.size(); ++i) {
        const std::span<double> span = resolve(task.accesses[i].target);
        if (i < spans.size()) spans[i] = span;
        t.deps().push_back(dep(task.accesses[i], span));
    }
    bind(t.body(), task, spans);
    rt_.submit(std::move(t));
}

void TampiOssDriver::bind(tasking::TaskBody& out, const graph::Task& task,
                          const std::array<std::span<double>, 3>& s) {
    const graph::Payload& p = task.payload;
    const graph::Op op = task.kind.op;
    const int vb = p.var_begin, ve = p.var_end;
    const int max_level = mesh_.structure().max_level();
    // Most bodies are one interval of the task's phase on the trace. `fn`
    // takes the driver, so the closure holds the driver and the phase once.
    const auto traced = [this, phase = task.kind.phase](auto fn) {
        return [self = this, phase, fn = std::move(fn)]() mutable {
            const std::int64_t t0 = now_ns();
            fn(*self);
            self->trace(self->worker_index(), t0, now_ns(), phase);
        };
    };
    switch (op) {
        case graph::Op::Recv:
        case graph::Op::BlockRecv:
            // TAMPI_Irecv binds the task's completion to the arrival (the
            // body itself returns immediately).
            out = traced([msg = s[0], peer = p.peer, tag = p.tag](TampiOssDriver& d) {
                d.tampi_.irecv(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::Send:
            out = traced([msg = s[0], peer = p.peer, tag = p.tag](TampiOssDriver& d) {
                d.tampi_.isend(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::BlockSend:
            // A sent block leaves the mesh; the task frees it when it
            // completes, which TAMPI holds off until the send is done.
            out = traced([sent = mesh_.release(p.key), msg = s[0], peer = p.peer,
                          tag = p.tag](TampiOssDriver& d) {
                d.tampi_.isend(d.comm_, msg.data(), msg.size_bytes(), peer, tag);
            });
            return;
        case graph::Op::Pack:
        case graph::Op::FluxPack:
            out = traced([face = p.face, src = s[0], sec = s[1], vb, ve,
                          flux = op == graph::Op::FluxPack](TampiOssDriver& d) {
                DFAMR_CHECK_READ(src.data(), src.size_bytes());
                DFAMR_CHECK_WRITE(sec.data(), sec.size_bytes());
                if (flux) {
                    d.flux_register(face->mine)
                        .pack_restricted(face->geom.axis, face->geom.sense, vb, ve, sec);
                } else {
                    d.mesh_.block(face->mine).pack_face(face->geom, vb, ve, sec);
                }
            });
            return;
        case graph::Op::Unpack:
        case graph::Op::Reflux:
            out = traced([face = p.face, sec = s[0], blk = s[1], reg = s[2], vb, ve,
                          flux = op == graph::Op::Reflux](TampiOssDriver& d) {
                DFAMR_CHECK_READ(sec.data(), sec.size_bytes());
                DFAMR_CHECK_WRITE(blk.data(), blk.size_bytes());
                DFAMR_CHECK_WRITE(reg.data(), reg.size_bytes());
                if (flux) {
                    d.apply_flux_correction(*face, vb, ve, sec);
                } else {
                    d.mesh_.block(face->mine).unpack_face(face->geom, vb, ve, sec);
                }
            });
            return;
        case graph::Op::Copy:
        case graph::Op::RefluxIntra:
            // Each copy or reflux is traced on its own; reflections are not.
            out = [this, copies = p.copies, boundary = p.boundary, dir = p.dir, vb, ve,
                   flux = op == graph::Op::RefluxIntra] {
                for (const amr::IntraCopy& c : copies) {
                    const std::int64_t t0 = now_ns();
                    if (flux) {
                        apply_intra_flux(c, vb, ve);
                    } else {
                        mesh_.block(c.dst).copy_face_from(mesh_.block(c.src), c.geom, vb, ve);
                    }
                    trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
                }
                for (const auto& [key, sense] : boundary) {
                    mesh_.block(key).reflect_face(dir, sense, vb, ve);
                }
            };
            return;
        case graph::Op::Outflux:
            out = traced([dir = p.dir, vb, ve](TampiOssDriver& d) {
                DFAMR_CHECK_WRITE(&d.boundary_outflux_, sizeof d.boundary_outflux_);
                d.accumulate_boundary_outflux(dir, vb, ve);
            });
            return;
        case graph::Op::Stencil:
            out = traced([key = p.key, vb, ve](TampiOssDriver& d) {
                auto blk = d.mesh_.block(key).group_span(vb, ve);
                DFAMR_CHECK_READ(blk.data(), blk.size_bytes());
                DFAMR_CHECK_WRITE(blk.data(), blk.size_bytes());
                if (d.generator_ != nullptr) {
                    auto reg = d.flux_register(key).slice(vb, ve);
                    DFAMR_CHECK_WRITE(reg.data(), reg.size_bytes());
                }
                d.flops_ += d.update_block(d.mesh_.block(key), vb, ve);
            });
            return;
        case graph::Op::ChecksumLocal:
            out = traced([key = p.key, vb, ve, cell = s[1].data()](TampiOssDriver& d) {
                auto blk = d.mesh_.block(key).group_span(vb, ve);
                DFAMR_CHECK_READ(blk.data(), blk.size_bytes());
                DFAMR_CHECK_WRITE(cell, sizeof(double));
                // Cell-volume weight for scenario runs (mass gate); 1.0 — a
                // bitwise identity — for the synthetic workload.
                *cell = d.checksum_weight(key) * d.mesh_.block(key).checksum(vb, ve);
            });
            return;
        case graph::Op::ChecksumReduce:
            out = [row = s[0], sum = s[1].data()] {
                // Element-wise checked access on the partials row: every
                // load is validated against the declared in-region.
                auto crow = DFAMR_CHECKED_SPAN((std::span<const double>{row}));
                double acc = 0;
                for (std::size_t i = 0; i < row.size(); ++i) acc += crow[i];
                DFAMR_CHECK_WRITE(sum, sizeof(double));
                *sum = acc;
            };
            return;
        case graph::Op::Split: {
            // A parent's 8 children come in a row: the first takes it out of
            // the mesh and the last hands over the driver's reference, so the
            // parent is freed when the last of its 8 tasks completes.
            if (p.octant == 0) split_parent_ = mesh_.release(p.key);
            std::shared_ptr<const Block> parent =
                p.octant == 7 ? std::move(split_parent_) : split_parent_;
            out = traced([parent = std::move(parent), octant = p.octant,
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
            out = traced([children = std::move(children),
                          parent = &mesh_.block(p.key)](TampiOssDriver&) {
                for (int octant = 0; octant < 8; ++octant) {
                    parent->absorb_child(*children[static_cast<std::size_t>(octant)], octant);
                }
            });
            return;
        }
    }
    throw Error("unknown task-graph op");
}

void TampiOssDriver::communicate_stage(int group) {
    // Algorithm 3: tasks are instantiated for each direction; whether the
    // directions can actually run concurrently depends on the buffers
    // (--separate_buffers) — the dependency system works it out.
    for (int dir = 0; dir < 3; ++dir) {
        const amr::DirectionPlan& dp = plan_.direction(dir);
        graph::emit_exchange(*this, dp, false, dir, dp.boundary, buffers_.layout(),
                             cfg_.group_begin(group), cfg_.group_end(group));
    }
}

void TampiOssDriver::reflux_stage(int group) {
    // Like communicate_stage, this only instantiates tasks; the dependency
    // system orders each direction's corrections after the kernels that
    // recorded the registers and before anything that re-reads the blocks.
    // The inout on each coarse block and its register serializes the
    // corrections of different directions on the same block in submission
    // order (dir 0 -> 1 -> 2, matching the synchronous variants' loop).
    const int gb = cfg_.group_begin(group), ge = cfg_.group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        graph::emit_exchange(*this, flux_plan_.direction(dir), true, dir,
                             plan_.direction(dir).boundary, flux_buffers_.layout(), gb, ge);
    }
}

void TampiOssDriver::stencil_stage(int group) {
    graph::emit_stencil(*this, mesh_.owned_keys(), cfg_.group_begin(group), cfg_.group_end(group),
                        generator_ != nullptr);
}

void TampiOssDriver::checksum_stage() {
    ChecksumSlot& slot = slots_[slot_index_];
    DFAMR_REQUIRE(!slot.pending, "checksum slot reused before validation");
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    slot.partials.assign(keys.size() * static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    slot.group_sums.assign(static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    slot.pending = true;
    graph::emit_checksum(*this, cfg_, keys, slot_index_, slots_[1 - slot_index_].pending);
    slot_index_ = 1 - slot_index_;
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

void TampiOssDriver::validate(int slot) {
    reduce_and_validate(slots_[slot].group_sums);
    slots_[slot].pending = false;
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

void TampiOssDriver::final_sync() {
    drain_checksums();
    result_.stencil_flops = flops_.load();
}

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
                       cfg_.workers);
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
