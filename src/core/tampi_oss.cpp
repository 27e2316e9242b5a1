#include "core/tampi_oss.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "core/sched_telemetry.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

using tasking::Dep;
using tasking::in;
using tasking::inout;
using tasking::out;

TampiOssDriver::TampiOssDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                               std::shared_ptr<amr::BlockArena> arena)
    : DriverBase(cfg, comm, tracer, std::move(arena)), rt_(cfg.workers - 1), tampi_(rt_) {
    // Task-bound communication uses the same retry/timeout budget as the
    // driver-level hardened operations; a timed-out request surfaces as a
    // CommTimeout at the next taskwait instead of hanging the worker pool.
    tampi_.configure_resilience(hcomm_.policy(), tracer);
    // Fast-fail on sibling-rank crashes: once the world aborts, the
    // progress engine flushes every bound request and blocking waits bail
    // out, so the rank unwinds in milliseconds instead of riding out a
    // full comm_timeout per in-flight transfer.
    tampi_.set_abort_probe([&comm] { return comm.aborted(); });
#if defined(DFAMR_VERIFY)
    verifier_ = std::make_unique<verify::Verifier>();
    verifier_->attach(rt_);
#else
    // Opt-in race prover for default builds: DFAMR_DEPLINT=1 attaches the
    // verifier so multi-process golden runs (dfamr_mpirun rank processes)
    // prove their task graphs free of unordered conflicts — a dirty proof
    // aborts the rank and the launcher propagates the failure. Costs
    // nothing unless the variable is set.
    if (const char* e = std::getenv("DFAMR_DEPLINT"); e != nullptr && e[0] == '1') {
        verifier_ = std::make_unique<verify::Verifier>();
        verifier_->deplint().set_check_on_shutdown(true);
        verifier_->attach(rt_);
    }
#endif
}

TampiOssDriver::~TampiOssDriver() {
    // Drain everything before members (tampi_, rt_) unwind.
    try {
        rt_.taskwait();
    } catch (...) {
    }
}

Dep TampiOssDriver::block_dep_in(const BlockKey& key, int gb, int ge) {
    auto span = mesh_.block(key).group_span(gb, ge);
    return in(span.data(), span.size_bytes());
}

Dep TampiOssDriver::block_dep_inout(const BlockKey& key, int gb, int ge) {
    auto span = mesh_.block(key).group_span(gb, ge);
    return inout(span.data(), span.size_bytes());
}

Dep TampiOssDriver::reg_dep_in(const BlockKey& key, int gb, int ge) {
    auto span = flux_register(key).slice(gb, ge);
    return in(span.data(), span.size_bytes());
}

Dep TampiOssDriver::reg_dep_inout(const BlockKey& key, int gb, int ge) {
    auto span = flux_register(key).slice(gb, ge);
    return inout(span.data(), span.size_bytes());
}

void TampiOssDriver::communicate_stage(int group) {
    // Algorithm 3: tasks are instantiated for each direction; whether the
    // directions can actually run concurrently depends on the buffers
    // (--separate_buffers) — the dependency system works it out.
    for (int dir = 0; dir < 3; ++dir) {
        submit_direction(dir, group);
    }
}

void TampiOssDriver::submit_direction(int dir, int group) {
    const int gb = group_begin(group), ge = group_end(group);
    const int gvars = ge - gb;
    const amr::DirectionPlan& dp = plan_.direction(dir);

    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = dp.neighbors[ni];
        auto recv_stream = buffers_->recv_stream(dir, static_cast<int>(ni));
        auto send_stream = buffers_->send_stream(dir, static_cast<int>(ni));

        // Receive tasks: one per message chunk, out-dependency on the
        // chunk's buffer section; TAMPI_Irecv binds the task's completion
        // to the arrival (the task body itself returns immediately).
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            auto span = recv_stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                            static_cast<std::size_t>(chunk.value_count * gvars));
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, span, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.irecv(comm_, span.data(), span.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Recv);
                },
                {out(span.data(), span.size_bytes())}, "recv");
        }

        // Pack tasks (one per face) + send task per chunk. The send task's
        // single region dependency covers every packed section of its chunk
        // (contiguous by construction) — the multidependency of §IV-A.
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.sends[static_cast<std::size_t>(f)];
                auto section =
                    send_stream.subspan(static_cast<std::size_t>(face->value_offset * gvars),
                                        static_cast<std::size_t>(face->value_count * gvars));
                rt_.submit(
                    [this, face, section, gb, ge] {
                        const std::int64_t t0 = now_ns();
                        auto blk = mesh_.block(face->mine).group_span(gb, ge);
                        DFAMR_CHECK_READ(blk.data(), blk.size_bytes());
                        DFAMR_CHECK_WRITE(section.data(), section.size_bytes());
                        mesh_.block(face->mine).pack_face(face->geom, gb, ge, section);
                        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
                    },
                    {block_dep_in(face->mine, gb, ge), out(section.data(), section.size_bytes())},
                    "pack");
            }
            auto span = send_stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                            static_cast<std::size_t>(chunk.value_count * gvars));
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, span, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.isend(comm_, span.data(), span.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Send);
                },
                {in(span.data(), span.size_bytes())}, "send");
        }

        // Unpack tasks: one per face, gated by the receive task through the
        // buffer section, writing into the block's group range.
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.recvs[static_cast<std::size_t>(f)];
                auto section =
                    recv_stream.subspan(static_cast<std::size_t>(face->value_offset * gvars),
                                        static_cast<std::size_t>(face->value_count * gvars));
                rt_.submit(
                    [this, face, section, gb, ge] {
                        const std::int64_t t0 = now_ns();
                        auto blk = mesh_.block(face->mine).group_span(gb, ge);
                        DFAMR_CHECK_READ(section.data(), section.size_bytes());
                        DFAMR_CHECK_WRITE(blk.data(), blk.size_bytes());
                        mesh_.block(face->mine).unpack_face(face->geom, gb, ge, section);
                        trace(worker_index(), t0, now_ns(), PhaseKind::Unpack);
                    },
                    {in(section.data(), section.size_bytes()),
                     block_dep_inout(face->mine, gb, ge)},
                    "unpack");
            }
        }
    }

    // Intra-process copies (the taskification inherited from Rico et al.).
    for (const amr::IntraCopy& copy_ref : dp.copies) {
        const amr::IntraCopy* copy = &copy_ref;
        rt_.submit(
            [this, copy, gb, ge] {
                const std::int64_t t0 = now_ns();
                mesh_.block(copy->dst).copy_face_from(mesh_.block(copy->src), copy->geom, gb, ge);
                trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
            },
            {block_dep_in(copy->src, gb, ge), block_dep_inout(copy->dst, gb, ge)}, "intra_copy");
    }
    for (const auto& [key, sense] : dp.boundary) {
        const int sense_copy = sense;
        rt_.submit(
            [this, key, dir, sense_copy, gb, ge] {
                mesh_.block(key).reflect_face(dir, sense_copy, gb, ge);
            },
            {block_dep_inout(key, gb, ge)}, "reflect");
    }
}

void TampiOssDriver::stencil_stage(int group) {
    const int gb = group_begin(group), ge = group_end(group);
    for (const BlockKey& key : mesh_.owned_keys()) {
        // Scenario runs also write the block's flux register inside
        // update_block; declaring it inout orders the reflux pass's
        // pack/apply tasks after the kernel.
        std::vector<Dep> deps{block_dep_inout(key, gb, ge)};
        if (generator_ != nullptr) deps.push_back(reg_dep_inout(key, gb, ge));
        rt_.submit(
            [this, key, gb, ge] {
                const std::int64_t t0 = now_ns();
                auto blk = mesh_.block(key).group_span(gb, ge);
                DFAMR_CHECK_READ(blk.data(), blk.size_bytes());
                DFAMR_CHECK_WRITE(blk.data(), blk.size_bytes());
                if (generator_ != nullptr) {
                    auto reg = flux_register(key).slice(gb, ge);
                    DFAMR_CHECK_WRITE(reg.data(), reg.size_bytes());
                }
                flops_ += update_block(mesh_.block(key), gb, ge);
                trace(worker_index(), t0, now_ns(), PhaseKind::Stencil);
            },
            std::move(deps), "stencil");
    }
}

void TampiOssDriver::reflux_stage(int group) {
    // Like communicate_stage, this only instantiates tasks; the dependency
    // system orders each direction's corrections after the kernels that
    // recorded the registers and before anything that re-reads the blocks.
    for (int dir = 0; dir < 3; ++dir) {
        submit_reflux_direction(dir, group);
    }
}

void TampiOssDriver::submit_reflux_direction(int dir, int group) {
    const int gb = group_begin(group), ge = group_end(group);
    const int gvars = ge - gb;
    const amr::FluxPlan::Direction& fd = flux_plan_.direction(dir);
    auto& send_bufs = flux_send_[static_cast<std::size_t>(dir)];
    auto& recv_bufs = flux_recv_[static_cast<std::size_t>(dir)];

    for (std::size_t ni = 0; ni < fd.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = fd.neighbors[ni];
        std::span<double> recv_stream(recv_bufs[ni]);
        std::span<double> send_stream(send_bufs[ni]);

        // Receive tasks: TAMPI-bound, out-dependency on the stream section.
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            auto span = recv_stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                            static_cast<std::size_t>(chunk.value_count * gvars));
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, span, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.irecv(comm_, span.data(), span.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Recv);
                },
                {out(span.data(), span.size_bytes())}, "flux_recv");
        }

        // Restriction (pack) tasks per fine face + one send task per chunk.
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.sends[static_cast<std::size_t>(f)];
                auto section =
                    send_stream.subspan(static_cast<std::size_t>(face->value_offset * gvars),
                                        static_cast<std::size_t>(face->value_count * gvars));
                rt_.submit(
                    [this, face, section, gb, ge] {
                        const std::int64_t t0 = now_ns();
                        auto reg = flux_register(face->mine).slice(gb, ge);
                        DFAMR_CHECK_READ(reg.data(), reg.size_bytes());
                        DFAMR_CHECK_WRITE(section.data(), section.size_bytes());
                        flux_register(face->mine)
                            .pack_restricted(face->geom.axis, face->geom.sense, gb, ge, section);
                        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
                    },
                    {reg_dep_in(face->mine, gb, ge), out(section.data(), section.size_bytes())},
                    "flux_pack");
            }
            auto span = send_stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                            static_cast<std::size_t>(chunk.value_count * gvars));
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, span, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.isend(comm_, span.data(), span.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Send);
                },
                {in(span.data(), span.size_bytes())}, "flux_send");
        }

        // Apply tasks: one per received coarse-side face. The inout on the
        // block's group span serializes corrections of different directions
        // on the same block in submission order (dir 0 -> 1 -> 2, matching
        // the synchronous variants' sequential loop).
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.recvs[static_cast<std::size_t>(f)];
                auto section =
                    recv_stream.subspan(static_cast<std::size_t>(face->value_offset * gvars),
                                        static_cast<std::size_t>(face->value_count * gvars));
                rt_.submit(
                    [this, face, section, gb, ge] {
                        const std::int64_t t0 = now_ns();
                        DFAMR_CHECK_READ(section.data(), section.size_bytes());
                        auto blk = mesh_.block(face->mine).group_span(gb, ge);
                        DFAMR_CHECK_WRITE(blk.data(), blk.size_bytes());
                        auto reg = flux_register(face->mine).slice(gb, ge);
                        DFAMR_CHECK_WRITE(reg.data(), reg.size_bytes());
                        apply_flux_correction(*face, gb, ge,
                                              std::span<const double>(section));
                        trace(worker_index(), t0, now_ns(), PhaseKind::Unpack);
                    },
                    {in(section.data(), section.size_bytes()), block_dep_inout(face->mine, gb, ge),
                     reg_dep_inout(face->mine, gb, ge)},
                    "reflux");
            }
        }
    }

    // Intra-rank refluxes: restrict the fine source register on the fly.
    for (const amr::IntraCopy& copy_ref : fd.copies) {
        const amr::IntraCopy* copy = &copy_ref;
        rt_.submit(
            [this, copy, gb, ge] {
                const std::int64_t t0 = now_ns();
                apply_intra_flux(*copy, gb, ge);
                trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
            },
            {reg_dep_in(copy->src, gb, ge), block_dep_inout(copy->dst, gb, ge),
             reg_dep_inout(copy->dst, gb, ge)},
            "reflux_intra");
    }

    // One boundary-outflux task per direction: in on every boundary block's
    // register, inout on the scalar accumulator — the latter serializes the
    // three directions in submission order so the tally is bitwise identical
    // to the synchronous variants'.
    const amr::DirectionPlan& dp = plan_.direction(dir);
    if (!dp.boundary.empty()) {
        std::vector<Dep> deps;
        for (const auto& [key, sense] : dp.boundary) {
            (void)sense;
            deps.push_back(reg_dep_in(key, gb, ge));
        }
        deps.push_back(inout(&boundary_outflux_, sizeof boundary_outflux_));
        rt_.submit(
            [this, dir, gb, ge] {
                const std::int64_t t0 = now_ns();
                DFAMR_CHECK_WRITE(&boundary_outflux_, sizeof boundary_outflux_);
                accumulate_boundary_outflux(dir, gb, ge);
                trace(worker_index(), t0, now_ns(), PhaseKind::ChecksumLocal);
            },
            std::move(deps), "boundary_outflux");
    }
}

void TampiOssDriver::checksum_stage() {
    ChecksumSlot& slot = slots_[slot_index_];
    DFAMR_REQUIRE(!slot.pending, "checksum slot reused before validation");
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    const int groups = cfg_.num_groups();
    slot.partials.assign(keys.size() * static_cast<std::size_t>(groups), 0.0);
    slot.group_sums.assign(static_cast<std::size_t>(groups), 0.0);

    for (int g = 0; g < groups; ++g) {
        const int gb = group_begin(g), ge = group_end(g);
        double* row = slot.partials.data() + static_cast<std::size_t>(g) * keys.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const BlockKey key = keys[i];
            double* cell = row + i;
            rt_.submit(
                [this, key, gb, ge, cell] {
                    const std::int64_t t0 = now_ns();
                    auto blk = mesh_.block(key).group_span(gb, ge);
                    DFAMR_CHECK_READ(blk.data(), blk.size_bytes());
                    DFAMR_CHECK_WRITE(cell, sizeof(double));
                    // Cell-volume weight for scenario runs (mass gate);
                    // 1.0 — a bitwise identity — for the synthetic workload.
                    *cell = checksum_weight(key) * mesh_.block(key).checksum(gb, ge);
                    trace(worker_index(), t0, now_ns(), PhaseKind::ChecksumLocal);
                },
                {block_dep_in(key, gb, ge), out(cell, sizeof(double))}, "checksum_local");
        }
        double* sum_cell = &slot.group_sums[static_cast<std::size_t>(g)];
        const std::size_t nkeys = keys.size();
        rt_.submit(
            [row, nkeys, sum_cell] {
                // Element-wise checked access on the partials row: every
                // load is validated against the declared in-region.
                auto crow = DFAMR_CHECKED_SPAN((std::span<const double>{row, nkeys}));
                double s = 0;
                for (std::size_t i = 0; i < nkeys; ++i) s += crow[i];
                DFAMR_CHECK_WRITE(sum_cell, sizeof(double));
                *sum_cell = s;
            },
            {in(row, nkeys * sizeof(double)), out(sum_cell, sizeof(double))}, "checksum_reduce");
    }
    slot.pending = true;

    if (cfg_.delayed_checksum) {
        // §IV-C: wait only until the PREVIOUS stage's sums are consumable
        // (taskwait with dependencies); the current stage keeps flowing.
        ChecksumSlot& prev = slots_[1 - slot_index_];
        if (prev.pending) {
            rt_.taskwait_on(
                {in(prev.group_sums.data(), prev.group_sums.size() * sizeof(double))});
            reduce_and_validate(prev.group_sums);
            prev.pending = false;
        }
    } else {
        // Base strategy: one taskwait per checksum stage (after the whole
        // stage, not per group), then the global reduction.
        rt_.taskwait();
        reduce_and_validate(slot.group_sums);
        slot.pending = false;
    }
    slot_index_ = 1 - slot_index_;
}

SchedulerCounters TampiOssDriver::scheduler_counters() const {
    return to_scheduler_counters(rt_.stats());
}

void TampiOssDriver::quiesce() {
    // Drain in-flight tasks so the main thread may read field state (live
    // CFL recomputation) without racing the stencil/reflux pipeline.
    rt_.taskwait();
}

int TampiOssDriver::worker_index() {
    // Lane 0 is the main thread; runtime worker w maps to lane w + 1, so
    // tasks record under the worker that executed them, not the spawner.
    const int w = rt_.worker_index_of_calling_thread();
    return w >= 0 ? w + 1 : 0;
}

void TampiOssDriver::final_sync() {
    rt_.taskwait();
    result_.stencil_flops = flops_.load();
    // Validate a deferred checksum stage, if one is still pending.
    for (int i = 0; i < 2; ++i) {
        ChecksumSlot& slot = slots_[1 - slot_index_];  // older first
        if (slot.pending) {
            reduce_and_validate(slot.group_sums);
            slot.pending = false;
        }
        slot_index_ = 1 - slot_index_;
    }
}

void TampiOssDriver::sync_before_refine() {
    rt_.taskwait();
    // A deferred checksum crossing a refinement boundary must be resolved
    // now: the collective is ordered with other ranks' refinement phases.
    for (int i = 0; i < 2; ++i) {
        ChecksumSlot& slot = slots_[1 - slot_index_];
        if (slot.pending) {
            reduce_and_validate(slot.group_sums);
            slot.pending = false;
        }
        slot_index_ = 1 - slot_index_;
    }
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
    const int all = cfg_.num_vars;
    for (const BlockKey& key : parents) {
        std::shared_ptr<Block> parent(mesh_.release(key));
        for (int octant = 0; octant < 8; ++octant) {
            auto child = mesh_.make_block(key.child(octant, mesh_.structure().max_level()));
            Block* raw = child.get();
            mesh_.adopt(std::move(child));
            rt_.submit(
                [this, parent, raw, octant] {
                    const std::int64_t t0 = now_ns();
                    raw->fill_from_parent(*parent, octant);
                    trace(worker_index(), t0, now_ns(), PhaseKind::RefineSplit);
                },
                {out(raw->group_span(0, all).data(), raw->group_span(0, all).size_bytes())},
                "refine_split");
        }
    }
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
    const int all = cfg_.num_vars;
    for (const BlockKey& key : parents) {
        auto children = std::make_shared<std::array<std::unique_ptr<Block>, 8>>();
        std::vector<Dep> deps;
        for (int octant = 0; octant < 8; ++octant) {
            (*children)[static_cast<std::size_t>(octant)] =
                mesh_.release(key.child(octant, mesh_.structure().max_level()));
            Block& c = *(*children)[static_cast<std::size_t>(octant)];
            deps.push_back(in(c.group_span(0, all).data(), c.group_span(0, all).size_bytes()));
        }
        auto parent = mesh_.make_block(key);
        Block* raw = parent.get();
        mesh_.adopt(std::move(parent));
        deps.push_back(out(raw->group_span(0, all).data(), raw->group_span(0, all).size_bytes()));
        rt_.submit(
            [this, children, raw] {
                const std::int64_t t0 = now_ns();
                for (int octant = 0; octant < 8; ++octant) {
                    raw->absorb_child(*(*children)[static_cast<std::size_t>(octant)], octant);
                }
                trace(worker_index(), t0, now_ns(), PhaseKind::RefineMerge);
            },
            std::move(deps), "refine_merge");
    }
}

void TampiOssDriver::transfer_block_data(const std::vector<BlockMove>& sends,
                                         const std::vector<BlockMove>& recvs) {
    if (!cfg_.taskify_refinement) {
        DriverBase::transfer_block_data(sends, recvs);
        return;
    }
    const int all = cfg_.num_vars;
    // Taskified payload transfers bound through TAMPI (§IV-B); the data
    // message is tagged with the block id both sides agreed on via the
    // control messages.
    for (const BlockMove& mv : sends) {
        std::shared_ptr<Block> b(mesh_.release(mv.key));
        auto span = b->group_span(0, all);
        const int to = mv.to;
        const int tag = kBlockDataTagBase + mv.id;
        rt_.submit(
            [this, b, span, to, tag] {
                const std::int64_t t0 = now_ns();
                tampi_.isend(comm_, span.data(), span.size_bytes(), to, tag);
                trace(worker_index(), t0, now_ns(), PhaseKind::RefineExchange);
            },
            {in(span.data(), span.size_bytes())}, "block_send");
    }
    for (const BlockMove& mv : recvs) {
        auto b = mesh_.make_block(mv.key);
        auto span = b->group_span(0, all);
        mesh_.adopt(std::move(b));
        const int from = mv.from;
        const int tag = kBlockDataTagBase + mv.id;
        rt_.submit(
            [this, span, from, tag] {
                const std::int64_t t0 = now_ns();
                tampi_.irecv(comm_, span.data(), span.size_bytes(), from, tag);
                trace(worker_index(), t0, now_ns(), PhaseKind::RefineExchange);
            },
            {out(span.data(), span.size_bytes())}, "block_recv");
    }
}

}  // namespace dfamr::core
