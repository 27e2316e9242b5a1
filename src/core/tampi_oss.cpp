#include "core/tampi_oss.hpp"

#include <array>
#include <span>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

using tasking::Dep;
using tasking::in;
using tasking::inout;
using tasking::out;

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

namespace {

/// Task labels of one exchange, for DepLint reports.
struct ExchangeLabels {
    const char* recv;
    const char* pack;
    const char* send;
    const char* apply;
    const char* local;
};

}  // namespace

/// The ghost exchange: packs and copies read the source block's group span,
/// unpacks, copies and reflections write the destination's.
struct TampiOssDriver::GhostFaces {
    static constexpr ExchangeLabels kLabels{"recv", "pack", "send", "unpack", "intra_copy"};
    TampiOssDriver* d;
    int dir, gb, ge;

    const amr::DirectionPlan& plan() const { return d->plan_.direction(dir); }
    std::span<const std::pair<BlockKey, int>> boundary() const { return plan().boundary; }
    std::span<double> send_stream(std::size_t ni) const {
        return d->buffers_->send_stream(dir, static_cast<int>(ni));
    }
    std::span<double> recv_stream(std::size_t ni) const {
        return d->buffers_->recv_stream(dir, static_cast<int>(ni));
    }
    std::span<double> source(const BlockKey& key) const {
        return d->mesh_.block(key).group_span(gb, ge);
    }
    std::array<std::span<double>, 1> targets(const BlockKey& key) const { return {source(key)}; }
    void pack(const amr::FaceTransfer& face, std::span<double> out) const {
        d->mesh_.block(face.mine).pack_face(face.geom, gb, ge, out);
    }
    void apply(const amr::FaceTransfer& face, std::span<const double> in) const {
        d->mesh_.block(face.mine).unpack_face(face.geom, gb, ge, in);
    }
    void copy(const amr::IntraCopy& c) const {
        d->mesh_.block(c.dst).copy_face_from(d->mesh_.block(c.src), c.geom, gb, ge);
    }
    void reflect(const BlockKey& key, int sense) const {
        d->mesh_.block(key).reflect_face(dir, sense, gb, ge);
    }
};

/// The reflux (DESIGN.md §18): packs and intra-rank refluxes read the fine
/// source's flux register; applies and intra-rank refluxes correct the
/// coarse destination block and its register. The flux plan has no
/// boundary faces: the boundary-outflux task tallies those.
struct TampiOssDriver::FluxFaces {
    static constexpr ExchangeLabels kLabels{"flux_recv", "flux_pack", "flux_send", "reflux",
                                            "reflux_intra"};
    TampiOssDriver* d;
    int dir, gb, ge;

    const amr::FluxPlan::Direction& plan() const { return d->flux_plan_.direction(dir); }
    std::span<const std::pair<BlockKey, int>> boundary() const { return {}; }
    std::span<double> send_stream(std::size_t ni) const {
        return d->flux_send_[static_cast<std::size_t>(dir)][ni];
    }
    std::span<double> recv_stream(std::size_t ni) const {
        return d->flux_recv_[static_cast<std::size_t>(dir)][ni];
    }
    std::span<double> source(const BlockKey& key) const {
        return d->flux_register(key).slice(gb, ge);
    }
    std::array<std::span<double>, 2> targets(const BlockKey& key) const {
        return {d->mesh_.block(key).group_span(gb, ge), source(key)};
    }
    void pack(const amr::FaceTransfer& face, std::span<double> out) const {
        d->flux_register(face.mine).pack_restricted(face.geom.axis, face.geom.sense, gb, ge, out);
    }
    void apply(const amr::FaceTransfer& face, std::span<const double> in) const {
        d->apply_flux_correction(face, gb, ge, in);
    }
    void copy(const amr::IntraCopy& c) const { d->apply_intra_flux(c, gb, ge); }
    void reflect(const BlockKey&, int) const {}
};

template <class Faces>
void TampiOssDriver::submit_exchange(const Faces& faces) {
    const int gvars = faces.ge - faces.gb;
    const auto section = [gvars](std::span<double> stream, std::int64_t offset,
                                 std::int64_t count) {
        return stream.subspan(static_cast<std::size_t>(offset * gvars),
                              static_cast<std::size_t>(count * gvars));
    };
    const std::vector<amr::NeighborExchange>& neighbors = faces.plan().neighbors;

    // 1) Receive tasks: TAMPI_Irecv binds the task's completion to the
    //    arrival (the task body itself returns immediately).
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            const auto msg = section(faces.recv_stream(ni), chunk.value_offset, chunk.value_count);
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, msg, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.irecv(comm_, msg.data(), msg.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Recv);
                },
                {out(msg)}, Faces::kLabels.recv);
        }
    }

    // 2) Pack tasks per face + one send task per message. The send task's
    //    single region dependency covers every packed section of its
    //    message (contiguous by construction) — the multidependency of §IV-A.
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        const std::span<double> stream = faces.send_stream(ni);
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.sends[static_cast<std::size_t>(f)];
                const auto sec = section(stream, face->value_offset, face->value_count);
                const auto src = faces.source(face->mine);
                rt_.submit(
                    [this, faces, face, sec, src] {
                        const std::int64_t t0 = now_ns();
                        DFAMR_CHECK_READ(src.data(), src.size_bytes());
                        DFAMR_CHECK_WRITE(sec.data(), sec.size_bytes());
                        faces.pack(*face, sec);
                        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
                    },
                    {in(src.data(), src.size_bytes()), out(sec)}, Faces::kLabels.pack);
            }
            const auto msg = section(stream, chunk.value_offset, chunk.value_count);
            const int peer = ex.peer;
            const int tag = chunk.tag;
            rt_.submit(
                [this, msg, peer, tag] {
                    const std::int64_t t0 = now_ns();
                    tampi_.isend(comm_, msg.data(), msg.size_bytes(), peer, tag);
                    trace(worker_index(), t0, now_ns(), PhaseKind::Send);
                },
                {in(msg.data(), msg.size_bytes())}, Faces::kLabels.send);
        }
    }

    // 3) Same-rank items while the messages are in flight: one task per
    //    destination block (the taskification inherited from Rico et al.,
    //    coarsened). Each copy is traced on its own; reflections are not.
    amr::for_each_destination(
        faces.plan().copies, faces.boundary(),
        [&](const BlockKey& dst, std::span<const amr::IntraCopy> copies,
            std::span<const std::pair<BlockKey, int>> boundary) {
            std::vector<Dep> deps;
            for (const amr::IntraCopy& c : copies) {
                const auto src = faces.source(c.src);
                deps.push_back(in(src.data(), src.size_bytes()));
            }
            for (const std::span<double> target : faces.targets(dst)) deps.push_back(inout(target));
            rt_.submit(
                [this, faces, copies, boundary] {
                    for (const amr::IntraCopy& c : copies) {
                        const std::int64_t t0 = now_ns();
                        faces.copy(c);
                        trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
                    }
                    for (const auto& [key, sense] : boundary) faces.reflect(key, sense);
                },
                std::move(deps), Faces::kLabels.local);
        });

    // 4) Apply tasks: one per incoming face, gated by the receive task
    //    through the stream section.
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        const std::span<double> stream = faces.recv_stream(ni);
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const amr::FaceTransfer* face = &ex.recvs[static_cast<std::size_t>(f)];
                const auto sec = section(stream, face->value_offset, face->value_count);
                const auto targets = faces.targets(face->mine);
                std::vector<Dep> deps{in(sec.data(), sec.size_bytes())};
                for (const std::span<double> target : targets) deps.push_back(inout(target));
                rt_.submit(
                    [this, faces, face, sec, targets] {
                        const std::int64_t t0 = now_ns();
                        DFAMR_CHECK_READ(sec.data(), sec.size_bytes());
                        for (const std::span<double> target : targets) {
                            DFAMR_CHECK_WRITE(target.data(), target.size_bytes());
                        }
                        faces.apply(*face, sec);
                        trace(worker_index(), t0, now_ns(), PhaseKind::Unpack);
                    },
                    std::move(deps), Faces::kLabels.apply);
            }
        }
    }
}

void TampiOssDriver::communicate_stage(int group) {
    // Algorithm 3: tasks are instantiated for each direction; whether the
    // directions can actually run concurrently depends on the buffers
    // (--separate_buffers) — the dependency system works it out.
    const int gb = group_begin(group), ge = group_end(group);
    for (int dir = 0; dir < 3; ++dir) submit_exchange(GhostFaces{this, dir, gb, ge});
}

void TampiOssDriver::reflux_stage(int group) {
    // Like communicate_stage, this only instantiates tasks; the dependency
    // system orders each direction's corrections after the kernels that
    // recorded the registers and before anything that re-reads the blocks.
    // The inout on each coarse block and its register serializes the
    // corrections of different directions on the same block in submission
    // order (dir 0 -> 1 -> 2, matching the synchronous variants' loop).
    const int gb = group_begin(group), ge = group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        submit_exchange(FluxFaces{this, dir, gb, ge});

        // One boundary-outflux task per direction: in on every boundary
        // block's register, inout on the scalar accumulator — the latter
        // serializes the three directions in submission order so the tally
        // is bitwise identical to the synchronous variants'.
        const amr::DirectionPlan& dp = plan_.direction(dir);
        if (dp.boundary.empty()) continue;
        std::vector<Dep> deps;
        for (const auto& [key, sense] : dp.boundary) {
            (void)sense;
            const auto reg = flux_register(key).slice(gb, ge);
            deps.push_back(in(reg.data(), reg.size_bytes()));
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

void TampiOssDriver::stencil_stage(int group) {
    const int gb = group_begin(group), ge = group_end(group);
    for (const BlockKey& key : mesh_.owned_keys()) {
        // Scenario runs also write the block's flux register inside
        // update_block; declaring it inout orders the reflux pass's
        // pack/apply tasks after the kernel.
        std::vector<Dep> deps{inout(mesh_.block(key).group_span(gb, ge))};
        if (generator_ != nullptr) deps.push_back(inout(flux_register(key).slice(gb, ge)));
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
            const auto data = mesh_.block(key).group_span(gb, ge);
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
                {in(data.data(), data.size_bytes()), out(cell, sizeof(double))}, "checksum_local");
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

void TampiOssDriver::quiesce() {
    // Drain in-flight tasks so the main thread may read field state (live
    // CFL recomputation) without racing the stencil/reflux pipeline.
    rt_.taskwait();
}

void TampiOssDriver::drain_checksums() {
    rt_.taskwait();
    for (int i = 0; i < 2; ++i) {
        ChecksumSlot& slot = slots_[1 - slot_index_];  // older first
        if (slot.pending) {
            reduce_and_validate(slot.group_sums);
            slot.pending = false;
        }
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
