#include "core/fork_join.hpp"

#include <atomic>
#include <cstdlib>
#include <deque>

#include "common/timing.hpp"
#include "core/sched_telemetry.hpp"
#include "tasking/parallel_for.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

ForkJoinDriver::ForkJoinDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer)
    : DriverBase(cfg, comm, tracer), rt_(cfg.workers - 1) {
#if defined(DFAMR_VERIFY)
    verifier_ = std::make_unique<verify::Verifier>();
    verifier_->attach(rt_);
#else
    // Opt-in race prover: see TampiOssDriver — DFAMR_DEPLINT=1 attaches
    // DepLint in default builds for the multi-process golden tests.
    if (const char* e = std::getenv("DFAMR_DEPLINT"); e != nullptr && e[0] == '1') {
        verifier_ = std::make_unique<verify::Verifier>();
        verifier_->deplint().set_check_on_shutdown(true);
        verifier_->attach(rt_);
    }
#endif
}

ForkJoinDriver::~ForkJoinDriver() = default;

void ForkJoinDriver::pfor(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
    tasking::parallel_for(rt_, 0, n, fn);
}

void ForkJoinDriver::communicate_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        exchange_direction(dir, gb, ge);
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void ForkJoinDriver::exchange_direction(int dir, int gb, int ge) {
    if (cfg_.zero_copy) {
        exchange_direction_zero_copy(dir, gb, ge);
        return;
    }
    const amr::DirectionPlan& dp = plan_.direction(dir);
    const int gvars = ge - gb;

    // Master posts all receives.
    std::vector<mpi::Request> recv_reqs;
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = dp.neighbors[ni];
        auto stream = buffers_->recv_stream(dir, static_cast<int>(ni));
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            auto span = stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                       static_cast<std::size_t>(chunk.value_count * gvars));
            recv_reqs.push_back(hcomm_.irecv(span.data(), span.size_bytes(), ex.peer, chunk.tag));
        }
    }

    // Worksharing loop over all faces to pack (implicit barrier at the end).
    struct PackJob {
        const amr::NeighborExchange* ex;
        const amr::FaceTransfer* face;
        int neighbor_index;
    };
    std::vector<PackJob> pack_jobs;
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        for (const amr::FaceTransfer& face : dp.neighbors[ni].sends) {
            pack_jobs.push_back(PackJob{&dp.neighbors[ni], &face, static_cast<int>(ni)});
        }
    }
    pfor(static_cast<std::int64_t>(pack_jobs.size()), [&](std::int64_t i) {
        const PackJob& job = pack_jobs[static_cast<std::size_t>(i)];
        auto stream = buffers_->send_stream(dir, job.neighbor_index);
        auto section =
            stream.subspan(static_cast<std::size_t>(job.face->value_offset * gvars),
                           static_cast<std::size_t>(job.face->value_count * gvars));
        const std::int64_t t0 = now_ns();
        DFAMR_CHECK_READ(mesh_.block(job.face->mine).group_span(gb, ge).data(),
                         mesh_.block(job.face->mine).group_span(gb, ge).size_bytes());
        DFAMR_CHECK_WRITE(section.data(), section.size_bytes());
        mesh_.block(job.face->mine).pack_face(job.face->geom, gb, ge, section);
        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
    });

    // Master sends every chunk (all MPI stays on the master thread).
    std::vector<mpi::Request> send_reqs;
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = dp.neighbors[ni];
        auto stream = buffers_->send_stream(dir, static_cast<int>(ni));
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            auto span = stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                       static_cast<std::size_t>(chunk.value_count * gvars));
            const std::int64_t t0 = now_ns();
            send_reqs.push_back(hcomm_.isend(span.data(), span.size_bytes(), ex.peer, chunk.tag));
            trace(0, t0, now_ns(), PhaseKind::Send);
        }
    }

    copy_and_reflect(dir, dp, gb, ge);

    // Master waits for ALL receives (fork-join cannot overlap per-message),
    // then a workshared loop unpacks everything.
    const std::int64_t t0 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(recv_reqs));
    trace(0, t0, now_ns(), PhaseKind::CommWait);

    struct UnpackJob {
        const amr::FaceTransfer* face;
        int neighbor_index;
    };
    std::vector<UnpackJob> unpack_jobs;
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        for (const amr::FaceTransfer& face : dp.neighbors[ni].recvs) {
            unpack_jobs.push_back(UnpackJob{&face, static_cast<int>(ni)});
        }
    }
    pfor(static_cast<std::int64_t>(unpack_jobs.size()), [&](std::int64_t i) {
        const UnpackJob& job = unpack_jobs[static_cast<std::size_t>(i)];
        auto stream = buffers_->recv_stream(dir, job.neighbor_index);
        auto section =
            stream.subspan(static_cast<std::size_t>(job.face->value_offset * gvars),
                           static_cast<std::size_t>(job.face->value_count * gvars));
        const std::int64_t t1 = now_ns();
        DFAMR_CHECK_READ(section.data(), section.size_bytes());
        DFAMR_CHECK_WRITE(mesh_.block(job.face->mine).group_span(gb, ge).data(),
                          mesh_.block(job.face->mine).group_span(gb, ge).size_bytes());
        mesh_.block(job.face->mine).unpack_face(job.face->geom, gb, ge, section);
        trace(worker_index(), t1, now_ns(), PhaseKind::Unpack);
    });

    const std::int64_t t2 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(send_reqs));
    trace(0, t2, now_ns(), PhaseKind::CommWait);
}

void ForkJoinDriver::copy_and_reflect(int dir, const amr::DirectionPlan& dp, int gb, int ge) {
    // Intra-process copies and boundary reflection share one worksharing
    // region: copies write the ghost planes of faces with a same-rank
    // neighbour, reflections those of domain-boundary faces, and both read
    // interior cells only.
    const auto copies = static_cast<std::int64_t>(dp.copies.size());
    pfor(copies + static_cast<std::int64_t>(dp.boundary.size()), [&](std::int64_t i) {
        if (i < copies) {
            const amr::IntraCopy& copy = dp.copies[static_cast<std::size_t>(i)];
            const std::int64_t t0 = now_ns();
            mesh_.block(copy.dst).copy_face_from(mesh_.block(copy.src), copy.geom, gb, ge);
            trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
        } else {
            const auto& [key, sense] = dp.boundary[static_cast<std::size_t>(i - copies)];
            mesh_.block(key).reflect_face(dir, sense, gb, ge);
        }
    });
}

void ForkJoinDriver::exchange_direction_zero_copy(int dir, int gb, int ge) {
    // Mirrors exchange_direction with each chunk owning a transport frame:
    // pack worksharing targets the frame payloads directly, and unpack
    // worksharing reads the received frames in place (no staging streams).
    const amr::DirectionPlan& dp = plan_.direction(dir);
    const int gvars = ge - gb;

    struct RecvSlot {
        int neighbor_index;
        const amr::MessageChunk* chunk;
    };
    std::vector<mpi::Request> recv_reqs;
    std::vector<RecvSlot> recv_slots;
    std::deque<mpi::RxView> views;  // stable addresses while in flight
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = dp.neighbors[ni];
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            const std::size_t bytes =
                static_cast<std::size_t>(chunk.value_count * gvars) * sizeof(double);
            views.emplace_back();
            recv_reqs.push_back(hcomm_.irecv_view(&views.back(), bytes, ex.peer, chunk.tag));
            recv_slots.push_back(RecvSlot{static_cast<int>(ni), &chunk});
        }
    }

    // One frame per send chunk, created by the master; the workshared pack
    // loop fills disjoint face sections of them.
    struct SendChunk {
        const amr::NeighborExchange* ex;
        const amr::MessageChunk* chunk;
        mpi::TxBuffer tx;
    };
    std::vector<SendChunk> send_chunks;
    struct PackJob {
        const amr::FaceTransfer* face;
        std::size_t chunk_index;
    };
    std::vector<PackJob> pack_jobs;
    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = dp.neighbors[ni];
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            const std::size_t bytes =
                static_cast<std::size_t>(chunk.value_count * gvars) * sizeof(double);
            send_chunks.push_back(SendChunk{&ex, &chunk, mpi::make_tx_buffer(bytes)});
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                pack_jobs.push_back(
                    PackJob{&ex.sends[static_cast<std::size_t>(f)], send_chunks.size() - 1});
            }
        }
    }
    pfor(static_cast<std::int64_t>(pack_jobs.size()), [&](std::int64_t i) {
        const PackJob& job = pack_jobs[static_cast<std::size_t>(i)];
        SendChunk& sc = send_chunks[job.chunk_index];
        auto section = sc.tx.payload.subspan(
            static_cast<std::size_t>((job.face->value_offset - sc.chunk->value_offset) * gvars) *
                sizeof(double),
            static_cast<std::size_t>(job.face->value_count * gvars) * sizeof(double));
        const std::int64_t t0 = now_ns();
        mesh_.block(job.face->mine).pack_face(job.face->geom, gb, ge, section);
        trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
    });

    std::vector<mpi::Request> send_reqs;
    for (const SendChunk& sc : send_chunks) {
        const std::int64_t t0 = now_ns();
        send_reqs.push_back(hcomm_.isend_tx(sc.tx, sc.ex->peer, sc.chunk->tag));
        trace(0, t0, now_ns(), PhaseKind::Send);
    }

    copy_and_reflect(dir, dp, gb, ge);

    const std::int64_t t0 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(recv_reqs));
    trace(0, t0, now_ns(), PhaseKind::CommWait);

    struct UnpackJob {
        const amr::FaceTransfer* face;
        const amr::MessageChunk* chunk;
        const mpi::RxView* view;
    };
    std::vector<UnpackJob> unpack_jobs;
    for (std::size_t s = 0; s < recv_slots.size(); ++s) {
        const RecvSlot& slot = recv_slots[s];
        const amr::NeighborExchange& ex =
            dp.neighbors[static_cast<std::size_t>(slot.neighbor_index)];
        for (int f = slot.chunk->first_face; f < slot.chunk->first_face + slot.chunk->face_count;
             ++f) {
            unpack_jobs.push_back(
                UnpackJob{&ex.recvs[static_cast<std::size_t>(f)], slot.chunk, &views[s]});
        }
    }
    pfor(static_cast<std::int64_t>(unpack_jobs.size()), [&](std::int64_t i) {
        const UnpackJob& job = unpack_jobs[static_cast<std::size_t>(i)];
        auto section = job.view->payload.subspan(
            static_cast<std::size_t>((job.face->value_offset - job.chunk->value_offset) * gvars) *
                sizeof(double),
            static_cast<std::size_t>(job.face->value_count * gvars) * sizeof(double));
        const std::int64_t t1 = now_ns();
        mesh_.block(job.face->mine).unpack_face(job.face->geom, gb, ge, section);
        trace(worker_index(), t1, now_ns(), PhaseKind::Unpack);
    });

    const std::int64_t t2 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(send_reqs));
    trace(0, t2, now_ns(), PhaseKind::CommWait);
}

void ForkJoinDriver::stencil_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::atomic<std::int64_t> flops{0};
    pfor(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
        const std::int64_t t0 = now_ns();
        Block& blk = mesh_.block(keys[static_cast<std::size_t>(i)]);
        DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
        DFAMR_CHECK_WRITE(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
        flops += update_block(blk, gb, ge);
        trace(worker_index(), t0, now_ns(), PhaseKind::Stencil);
    });
    result_.stencil_flops += flops.load();
    sw.stop();
    result_.times.stencil += sw.elapsed_s();
}

void ForkJoinDriver::reflux_stage(int group) {
    // Same master-MPI / workshared-compute split as exchange_direction, over
    // the flux plan: workers restrict and apply register corrections (faces
    // touch disjoint cells, so static worksharing is race-free), the master
    // does every MPI call and the deterministic boundary tally.
    Stopwatch sw;
    sw.start();
    const int gb = group_begin(group), ge = group_end(group);
    const int gvars = ge - gb;
    for (int dir = 0; dir < 3; ++dir) {
        const amr::FluxPlan::Direction& fd = flux_plan_.direction(dir);
        auto& send_bufs = flux_send_[static_cast<std::size_t>(dir)];
        auto& recv_bufs = flux_recv_[static_cast<std::size_t>(dir)];

        // Master posts all receives.
        std::vector<mpi::Request> recv_reqs;
        for (std::size_t ni = 0; ni < fd.neighbors.size(); ++ni) {
            const amr::NeighborExchange& ex = fd.neighbors[ni];
            std::span<double> stream(recv_bufs[ni]);
            for (const amr::MessageChunk& chunk : ex.recv_chunks) {
                auto span = stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                           static_cast<std::size_t>(chunk.value_count * gvars));
                recv_reqs.push_back(
                    hcomm_.irecv(span.data(), span.size_bytes(), ex.peer, chunk.tag));
            }
        }

        // Workshared restriction of fine registers into the send streams.
        struct PackJob {
            const amr::FaceTransfer* face;
            int neighbor_index;
        };
        std::vector<PackJob> pack_jobs;
        for (std::size_t ni = 0; ni < fd.neighbors.size(); ++ni) {
            for (const amr::FaceTransfer& face : fd.neighbors[ni].sends) {
                pack_jobs.push_back(PackJob{&face, static_cast<int>(ni)});
            }
        }
        pfor(static_cast<std::int64_t>(pack_jobs.size()), [&](std::int64_t i) {
            const PackJob& job = pack_jobs[static_cast<std::size_t>(i)];
            std::span<double> stream(send_bufs[static_cast<std::size_t>(job.neighbor_index)]);
            auto section =
                stream.subspan(static_cast<std::size_t>(job.face->value_offset * gvars),
                               static_cast<std::size_t>(job.face->value_count * gvars));
            const std::int64_t t0 = now_ns();
            DFAMR_CHECK_WRITE(section.data(), section.size_bytes());
            flux_register(job.face->mine)
                .pack_restricted(job.face->geom.axis, job.face->geom.sense, gb, ge, section);
            trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
        });

        // Master sends every chunk.
        std::vector<mpi::Request> send_reqs;
        for (std::size_t ni = 0; ni < fd.neighbors.size(); ++ni) {
            const amr::NeighborExchange& ex = fd.neighbors[ni];
            std::span<double> stream(send_bufs[ni]);
            for (const amr::MessageChunk& chunk : ex.send_chunks) {
                auto span = stream.subspan(static_cast<std::size_t>(chunk.value_offset * gvars),
                                           static_cast<std::size_t>(chunk.value_count * gvars));
                const std::int64_t t0 = now_ns();
                send_reqs.push_back(
                    hcomm_.isend(span.data(), span.size_bytes(), ex.peer, chunk.tag));
                trace(0, t0, now_ns(), PhaseKind::Send);
            }
        }

        // Workshared intra-rank refluxes while messages are in flight.
        pfor(static_cast<std::int64_t>(fd.copies.size()), [&](std::int64_t i) {
            const amr::IntraCopy& copy = fd.copies[static_cast<std::size_t>(i)];
            const std::int64_t t0 = now_ns();
            apply_intra_flux(copy, gb, ge);
            trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
        });

        // Master waits for all receives, then a workshared apply loop.
        const std::int64_t t0 = now_ns();
        hcomm_.wait_all(std::span<mpi::Request>(recv_reqs));
        trace(0, t0, now_ns(), PhaseKind::CommWait);

        struct ApplyJob {
            const amr::FaceTransfer* face;
            int neighbor_index;
        };
        std::vector<ApplyJob> apply_jobs;
        for (std::size_t ni = 0; ni < fd.neighbors.size(); ++ni) {
            for (const amr::FaceTransfer& face : fd.neighbors[ni].recvs) {
                apply_jobs.push_back(ApplyJob{&face, static_cast<int>(ni)});
            }
        }
        pfor(static_cast<std::int64_t>(apply_jobs.size()), [&](std::int64_t i) {
            const ApplyJob& job = apply_jobs[static_cast<std::size_t>(i)];
            std::span<const double> stream(recv_bufs[static_cast<std::size_t>(job.neighbor_index)]);
            auto section =
                stream.subspan(static_cast<std::size_t>(job.face->value_offset * gvars),
                               static_cast<std::size_t>(job.face->value_count * gvars));
            const std::int64_t t1 = now_ns();
            DFAMR_CHECK_READ(section.data(), section.size_bytes());
            apply_flux_correction(*job.face, gb, ge, section);
            trace(worker_index(), t1, now_ns(), PhaseKind::Unpack);
        });

        const std::int64_t t2 = now_ns();
        hcomm_.wait_all(std::span<mpi::Request>(send_reqs));
        trace(0, t2, now_ns(), PhaseKind::CommWait);

        // Deterministic mass-budget tally on the master.
        accumulate_boundary_outflux(dir, gb, ge);
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void ForkJoinDriver::checksum_stage() {
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::vector<double> sums(static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    for (int g = 0; g < cfg_.num_groups(); ++g) {
        const int gb = group_begin(g), ge = group_end(g);
        std::vector<double> partials(keys.size(), 0.0);
        pfor(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
            const std::int64_t t0 = now_ns();
            const BlockKey& key = keys[static_cast<std::size_t>(i)];
            const Block& blk = mesh_.block(key);
            DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
            // Cell-volume weight for scenario runs (mass conservation gate);
            // 1.0 — a bitwise identity — for the synthetic workload.
            partials[static_cast<std::size_t>(i)] = checksum_weight(key) * blk.checksum(gb, ge);
            trace(worker_index(), t0, now_ns(), PhaseKind::ChecksumLocal);
        });
        double sum = 0;
        for (double p : partials) sum += p;
        sums[static_cast<std::size_t>(g)] = sum;
    }
    reduce_and_validate(sums);
}

SchedulerCounters ForkJoinDriver::scheduler_counters() const {
    return to_scheduler_counters(rt_.stats());
}

int ForkJoinDriver::worker_index() {
    // Lane 0 is the master thread; runtime worker w maps to lane w + 1.
    const int w = rt_.worker_index_of_calling_thread();
    return w >= 0 ? w + 1 : 0;
}

void ForkJoinDriver::do_splits(const std::vector<BlockKey>& parents) {
    // The map surgery stays on the master; the 8 data copies per split are
    // workshared (this is the refinement parallelization the paper added to
    // the fork-join variant for fairness).
    struct Job {
        std::shared_ptr<Block> parent;
        Block* child;
        int octant;
    };
    std::vector<Job> jobs;
    for (const BlockKey& key : parents) {
        std::shared_ptr<Block> parent(mesh_.release(key).release());
        for (int octant = 0; octant < 8; ++octant) {
            auto child = mesh_.make_block(key.child(octant, mesh_.structure().max_level()));
            Block* raw = child.get();
            mesh_.adopt(std::move(child));
            jobs.push_back(Job{parent, raw, octant});
        }
    }
    pfor(static_cast<std::int64_t>(jobs.size()), [&](std::int64_t i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        job.child->fill_from_parent(*job.parent, job.octant);
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineSplit);
    });
}

void ForkJoinDriver::do_merges(const std::vector<BlockKey>& parents) {
    struct Job {
        std::array<std::unique_ptr<Block>, 8> children;
        Block* parent;
    };
    std::vector<Job> jobs;
    for (const BlockKey& key : parents) {
        Job job;
        for (int octant = 0; octant < 8; ++octant) {
            job.children[static_cast<std::size_t>(octant)] =
                mesh_.release(key.child(octant, mesh_.structure().max_level()));
        }
        auto parent = mesh_.make_block(key);
        job.parent = parent.get();
        mesh_.adopt(std::move(parent));
        jobs.push_back(std::move(job));
    }
    pfor(static_cast<std::int64_t>(jobs.size()), [&](std::int64_t i) {
        Job& job = jobs[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        for (int octant = 0; octant < 8; ++octant) {
            job.parent->absorb_child(*job.children[static_cast<std::size_t>(octant)], octant);
        }
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineMerge);
    });
}

void ForkJoinDriver::transfer_block_data(const std::vector<BlockMove>& sends,
                                         const std::vector<BlockMove>& recvs) {
    // Master-only MPI, like every other communication in this variant.
    const std::int64_t t0 = now_ns();
    for (const BlockMove& mv : sends) {
        Block& b = mesh_.block(mv.key);
        hcomm_.send(b.data(), b.data_size() * sizeof(double), mv.to, kBlockDataTagBase + mv.id);
        mesh_.release(mv.key);
    }
    for (const BlockMove& mv : recvs) {
        auto b = mesh_.make_block(mv.key);
        hcomm_.recv(b->data(), b->data_size() * sizeof(double), mv.from,
                   kBlockDataTagBase + mv.id);
        mesh_.adopt(std::move(b));
    }
    if (!sends.empty() || !recvs.empty()) {
        trace(0, t0, now_ns(), PhaseKind::RefineExchange);
    }
}

}  // namespace dfamr::core
