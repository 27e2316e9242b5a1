#include "core/sync_driver.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <type_traits>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "tasking/parallel_for.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

namespace {

/// Views a transport frame's payload as the doubles it carries. Frames are
/// 8-byte aligned and hold whole doubles (make_tx_buffer); anything else is
/// a transport bug, not data to reinterpret.
template <class Byte>
auto frame_doubles(std::span<Byte> payload) {
    using Double = std::conditional_t<std::is_const_v<Byte>, const double, double>;
    DFAMR_REQUIRE(reinterpret_cast<std::uintptr_t>(payload.data()) % alignof(double) == 0,
                  "frame payload not 8-byte aligned");
    DFAMR_REQUIRE(payload.size() % sizeof(double) == 0,
                  "frame payload not a whole number of doubles");
    return std::span<Double>(reinterpret_cast<Double*>(payload.data()),
                             payload.size() / sizeof(double));
}

}  // namespace

SyncDriver::SyncDriver(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                       std::shared_ptr<amr::BlockArena> arena, amr::Variant variant)
    : DriverBase(cfg, comm, tracer, std::move(arena)) {
    DFAMR_REQUIRE(variant == amr::Variant::MpiOnly || variant == amr::Variant::ForkJoin,
                  "SyncDriver runs the MPI-only and fork-join variants only");
    if (variant == amr::Variant::MpiOnly) return;
    rt_ = std::make_unique<tasking::Runtime>(cfg.workers - 1);
    runtime_ = rt_.get();
    verifier_ = attach_verifier(*rt_);
}

SyncDriver::~SyncDriver() = default;

void SyncDriver::for_each(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
    if (rt_ != nullptr) {
        tasking::parallel_for(*rt_, 0, n, fn);
        return;
    }
    for (std::int64_t i = 0; i < n; ++i) fn(i);
}

template <class Pack, class Apply>
void SyncDriver::exchange(CommBuffers& streams, int dir, int gvars,
                          const std::vector<amr::NeighborExchange>& neighbors, const Pack& pack,
                          const Apply& apply, std::int64_t local_items,
                          const std::function<void(std::int64_t)>& local) {
    const amr::StreamLayout& layout = streams.layout();
    const auto chunk_bytes = [&](const amr::MessageChunk& chunk) {
        return layout.message(chunk, gvars).count * sizeof(double);
    };
    // The section of message `chunk` (values `msg`) that carries `face`.
    const auto face_section = [&](auto msg, const amr::MessageChunk& chunk,
                                  const amr::FaceTransfer& face) {
        const amr::StreamLayout::Range f = layout.face(chunk, face, gvars);
        return msg.subspan(f.first - layout.message(chunk, gvars).first, f.count);
    };

    // 1) Post every receive (Algorithm 2, line 2).
    struct Incoming {
        const amr::NeighborExchange* ex;
        const amr::MessageChunk* chunk;
        std::span<const double> staged;  // frames are viewed once they arrive
    };
    std::vector<mpi::Request> recv_reqs;
    std::vector<Incoming> incoming;
    // Frames are addressed by the delivery path until matched: the deque
    // grows only before the requests are waited on, and deques never move
    // their elements.
    std::deque<mpi::RxView> views;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        for (const amr::MessageChunk& chunk : ex.recv_chunks) {
            std::span<double> staged;
            if (cfg_.zero_copy) {
                views.emplace_back();
                recv_reqs.push_back(
                    hcomm_.irecv_view(&views.back(), chunk_bytes(chunk), ex.peer, chunk.tag));
            } else {
                staged = layout.message(chunk, gvars)
                             .of(streams.recv_stream(dir, static_cast<int>(ni)));
                recv_reqs.push_back(
                    hcomm_.irecv(staged.data(), staged.size_bytes(), ex.peer, chunk.tag));
            }
            incoming.push_back(Incoming{&ex, &chunk, staged});
        }
    }

    // 2) Pack each chunk's faces into its message, then send it (lines 7-10).
    std::vector<mpi::Request> send_reqs;
    for (std::size_t ni = 0; ni < neighbors.size(); ++ni) {
        const amr::NeighborExchange& ex = neighbors[ni];
        for (const amr::MessageChunk& chunk : ex.send_chunks) {
            mpi::TxBuffer tx;
            std::span<double> msg;
            if (cfg_.zero_copy) {
                tx = mpi::make_tx_buffer(chunk_bytes(chunk));
                msg = frame_doubles(tx.payload);
            } else {
                msg = layout.message(chunk, gvars)
                          .of(streams.send_stream(dir, static_cast<int>(ni)));
            }
            for_each(chunk.face_count, [&](std::int64_t i) {
                const amr::FaceTransfer& face =
                    ex.sends[static_cast<std::size_t>(chunk.first_face + i)];
                const std::span<double> section = face_section(msg, chunk, face);
                const std::int64_t t0 = now_ns();
                DFAMR_CHECK_WRITE(section.data(), section.size_bytes());
                pack(face, section);
                trace(worker_index(), t0, now_ns(), PhaseKind::Pack);
            });
            const std::int64_t t0 = now_ns();
            send_reqs.push_back(cfg_.zero_copy
                                    ? hcomm_.isend_tx(tx, ex.peer, chunk.tag)
                                    : hcomm_.isend(msg.data(), msg.size_bytes(), ex.peer,
                                                   chunk.tag));
            trace(0, t0, now_ns(), PhaseKind::Send);
        }
    }

    // 3) Same-rank work while the messages are in flight (line 13).
    for_each(local_items, local);

    // 4) Apply each message's faces as it arrives (lines 14-18).
    while (true) {
        const std::int64_t t0 = now_ns();
        const int idx = hcomm_.wait_any(std::span<mpi::Request>(recv_reqs));
        trace(0, t0, now_ns(), PhaseKind::CommWait);
        if (idx == mpi::kUndefined) break;
        const Incoming& in = incoming[static_cast<std::size_t>(idx)];
        const std::span<const double> msg =
            cfg_.zero_copy ? frame_doubles(views[static_cast<std::size_t>(idx)].payload)
                           : in.staged;
        for_each(in.chunk->face_count, [&](std::int64_t i) {
            const amr::FaceTransfer& face =
                in.ex->recvs[static_cast<std::size_t>(in.chunk->first_face + i)];
            const std::span<const double> section = face_section(msg, *in.chunk, face);
            const std::int64_t t1 = now_ns();
            DFAMR_CHECK_READ(section.data(), section.size_bytes());
            apply(face, section);
            trace(worker_index(), t1, now_ns(), PhaseKind::Unpack);
        });
    }

    // 5) Wait for the sends before the messages can be reused (line 19).
    const std::int64_t t0 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(send_reqs));
    trace(0, t0, now_ns(), PhaseKind::CommWait);
}

void SyncDriver::communicate_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = cfg_.group_begin(group), ge = cfg_.group_end(group);
    // Directions run strictly one after another: they share the same
    // communication buffers (Algorithm 2).
    for (int dir = 0; dir < 3; ++dir) {
        const amr::DirectionPlan& dp = plan_.direction(dir);
        // The same-rank items are the intra-rank copies, then the boundary
        // reflections. Copies write the ghost planes of faces with a
        // same-rank neighbour, reflections those of domain-boundary faces,
        // and both read interior cells only.
        const auto copies = static_cast<std::int64_t>(dp.copies.size());
        exchange(
            buffers_, dir, ge - gb, dp.neighbors,
            [&](const amr::FaceTransfer& face, std::span<double> out) {
                mesh_.block(face.mine).pack_face(face.geom, gb, ge, out);
            },
            [&](const amr::FaceTransfer& face, std::span<const double> in) {
                mesh_.block(face.mine).unpack_face(face.geom, gb, ge, in);
            },
            copies + static_cast<std::int64_t>(dp.boundary.size()), [&](std::int64_t i) {
                if (i < copies) {
                    const amr::IntraCopy& copy = dp.copies[static_cast<std::size_t>(i)];
                    const std::int64_t t0 = now_ns();
                    mesh_.block(copy.dst).copy_face_from(mesh_.block(copy.src), copy.geom, gb,
                                                         ge);
                    trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
                } else {
                    const auto& [key, sense] = dp.boundary[static_cast<std::size_t>(i - copies)];
                    mesh_.block(key).reflect_face(dir, sense, gb, ge);
                }
            });
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void SyncDriver::reflux_stage(int group) {
    // Coarse-fine flux correction (DESIGN.md §18), the ghost exchange's
    // routine over the flux plan: fine blocks ship restricted registers,
    // coarse blocks reflux on receipt (faces touch disjoint cells, so the
    // items may run in any order), and the physical-boundary tally closes
    // each direction.
    Stopwatch sw;
    sw.start();
    const int gb = cfg_.group_begin(group), ge = cfg_.group_end(group);
    for (int dir = 0; dir < 3; ++dir) {
        const amr::FluxPlan::Direction& fd = flux_plan_.direction(dir);
        exchange(
            flux_buffers_, dir, ge - gb, fd.neighbors,
            [&](const amr::FaceTransfer& face, std::span<double> out) {
                flux_register(face.mine)
                    .pack_restricted(face.geom.axis, face.geom.sense, gb, ge, out);
            },
            [&](const amr::FaceTransfer& face, std::span<const double> in) {
                apply_flux_correction(face, gb, ge, in);
            },
            static_cast<std::int64_t>(fd.copies.size()), [&](std::int64_t i) {
                const std::int64_t t0 = now_ns();
                apply_intra_flux(fd.copies[static_cast<std::size_t>(i)], gb, ge);
                trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
            });
        // Close the direction's mass budget at the physical boundary:
        // sequential on the master, in a fixed order identical across
        // variants.
        accumulate_boundary_outflux(dir, gb, ge);
    }
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void SyncDriver::stencil_stage(int group) {
    Stopwatch sw;
    sw.start();
    const int gb = cfg_.group_begin(group), ge = cfg_.group_end(group);
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::atomic<std::int64_t> flops{0};
    for_each(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
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

void SyncDriver::checksum_stage() {
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    std::vector<double> sums(static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    std::vector<double> partials(keys.size(), 0.0);
    for (int g = 0; g < cfg_.num_groups(); ++g) {
        const int gb = cfg_.group_begin(g), ge = cfg_.group_end(g);
        for_each(static_cast<std::int64_t>(keys.size()), [&](std::int64_t i) {
            const std::int64_t t0 = now_ns();
            const BlockKey& key = keys[static_cast<std::size_t>(i)];
            const Block& blk = mesh_.block(key);
            DFAMR_CHECK_READ(blk.group_span(gb, ge).data(), blk.group_span(gb, ge).size_bytes());
            // Cell-volume weight for scenario runs (mass conservation gate);
            // 1.0 — a bitwise identity — for the synthetic workload.
            partials[static_cast<std::size_t>(i)] = checksum_weight(key) * blk.checksum(gb, ge);
            trace(worker_index(), t0, now_ns(), PhaseKind::ChecksumLocal);
        });
        // Summed in owned-key (sorted) order, so the sum does not depend on
        // the team size.
        double sum = 0;
        for (double p : partials) sum += p;
        sums[static_cast<std::size_t>(g)] = sum;
    }
    reduce_and_validate(sums);
}

void SyncDriver::do_splits(const std::vector<BlockKey>& parents) {
    // Only the master touches the mesh map: parents leave it before the
    // loop, children enter it after. Each item takes one child from the
    // arena and fills it; the item that drops a parent's last reference
    // returns it. With a plain loop that is Mesh::split_block's
    // take-fill-free order; with a team, the arena pops, the clears of
    // recycled buffers and the first touches of fresh ones run on the team.
    struct Item {
        std::shared_ptr<const Block> parent;
        int octant;
        std::unique_ptr<Block> child;
    };
    std::vector<Item> items;
    items.reserve(parents.size() * 8);
    for (const BlockKey& key : parents) {
        std::shared_ptr<const Block> parent = mesh_.release(key);
        for (int octant = 0; octant < 8; ++octant) items.push_back(Item{parent, octant, nullptr});
    }
    const int max_level = mesh_.structure().max_level();
    for_each(static_cast<std::int64_t>(items.size()), [&](std::int64_t i) {
        Item& item = items[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        item.child = mesh_.make_block(item.parent->key().child(item.octant, max_level));
        item.child->fill_from_parent(*item.parent, item.octant);
        item.parent.reset();
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineSplit);
    });
    for (Item& item : items) mesh_.adopt(std::move(item.child));
}

void SyncDriver::do_merges(const std::vector<BlockKey>& parents) {
    // Same split of work as do_splits: each item takes one parent,
    // absorbs its 8 children and frees them (Mesh::merge_children's order).
    struct Item {
        std::array<std::unique_ptr<Block>, 8> children;
        std::unique_ptr<Block> parent;
    };
    std::vector<Item> items(parents.size());
    const int max_level = mesh_.structure().max_level();
    for (std::size_t p = 0; p < parents.size(); ++p) {
        for (int octant = 0; octant < 8; ++octant) {
            items[p].children[static_cast<std::size_t>(octant)] =
                mesh_.release(parents[p].child(octant, max_level));
        }
    }
    for_each(static_cast<std::int64_t>(items.size()), [&](std::int64_t i) {
        Item& item = items[static_cast<std::size_t>(i)];
        const std::int64_t t0 = now_ns();
        item.parent = mesh_.make_block(parents[static_cast<std::size_t>(i)]);
        for (int octant = 0; octant < 8; ++octant) {
            std::unique_ptr<Block>& child = item.children[static_cast<std::size_t>(octant)];
            item.parent->absorb_child(*child, octant);
            child.reset();
        }
        trace(worker_index(), t0, now_ns(), PhaseKind::RefineMerge);
    });
    for (Item& item : items) mesh_.adopt(std::move(item.parent));
}

}  // namespace dfamr::core
