#include "core/sync_driver.hpp"

#include <cstdint>
#include <type_traits>

#include "common/error.hpp"
#include "tasking/parallel_for.hpp"
#include "verify/verifier.hpp"

namespace dfamr::core {

namespace graph = amr::graph;

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

void SyncDriver::exchange_stage(int group, bool flux) {
    Stopwatch sw;
    sw.start();
    // Directions run strictly one after another: they share the same
    // communication buffers (Algorithm 2).
    emit_exchanges(loops_, group, flux, [this] { loops_.end_exchange(); });
    sw.stop();
    result_.times.comm += sw.elapsed_s();
}

void SyncDriver::stencil_stage(int group) {
    Stopwatch sw;
    sw.start();
    graph::emit_stencil(loops_, mesh_.owned_keys(), cfg_.group_begin(group), cfg_.group_end(group),
                        generator_ != nullptr);
    loops_.run();
    sw.stop();
    result_.times.stencil += sw.elapsed_s();
}

void SyncDriver::checksum_stage() {
    Stopwatch sw;
    sw.start();
    const std::vector<BlockKey> keys = mesh_.owned_keys();
    graph::emit_checksum(loops_, cfg_, keys, open_checksum(keys), false, /*delayed=*/false);
    sw.stop();
    result_.times.checksum += sw.elapsed_s();
}

void SyncDriver::do_splits(const std::vector<BlockKey>& parents) {
    graph::emit_splits(loops_, parents, mesh_.structure().max_level(), cfg_.num_vars,
                       parents.size());
    loops_.run();
}

void SyncDriver::do_merges(const std::vector<BlockKey>& parents) {
    graph::emit_merges(loops_, parents, mesh_.structure().max_level(), cfg_.num_vars);
    loops_.run();
}

SyncDriver::Item SyncDriver::item(const graph::Task& task) {
    const graph::Payload& p = task.payload;
    // Only the master touches the mesh map: a split's parent and a merge's
    // children leave it here, the blocks the items fill enter it after the
    // loop. A parent's 8 split items each hold a reference; the last to
    // drop it returns the parent to the arena.
    if (task.kind.op == graph::Op::Split) {
        if (p.octant == 0) split_parent_ = mesh_.release(p.key);
        parents_.push_back(p.octant == 7 ? std::move(split_parent_) : split_parent_);
    } else if (task.kind.op == graph::Op::Merge) {
        std::array<std::unique_ptr<Block>, 8>& children = children_.emplace_back();
        for (int octant = 0; octant < 8; ++octant) {
            children[static_cast<std::size_t>(octant)] =
                mesh_.release(p.key.child(octant, mesh_.structure().max_level()));
        }
    }
    Item it{task.kind, p, {}};
    for (std::size_t k = 0; k < it.targets.size() && k < task.accesses.size(); ++k) {
        it.targets[k] = task.accesses[k].target;
    }
    return it;
}

void SyncDriver::loop(std::span<Item> items) {
    const graph::Op op = items.front().kind.op;
    const bool refine = op == graph::Op::Split || op == graph::Op::Merge;
    if (refine) made_.resize(items.size());
    const auto n = static_cast<std::int64_t>(items.size());
    const auto fn = [&](std::int64_t i) {
        run_item(items[static_cast<std::size_t>(i)], static_cast<std::size_t>(i));
    };
    if (rt_ != nullptr) {
        tasking::parallel_for(*rt_, 0, n, fn);
    } else {
        for (std::int64_t i = 0; i < n; ++i) fn(i);
    }
    if (!refine) return;
    for (std::unique_ptr<Block>& block : made_) mesh_.adopt(std::move(block));
    made_.clear();
    parents_.clear();
    children_.clear();
}

void SyncDriver::run_item(const Item& item, std::size_t i) {
    const graph::Payload& p = item.payload;
    const std::int64_t t0 = now_ns();
    // A split or merge item takes the block it fills from the arena, so
    // the arena's pops, the clears of recycled buffers and the first
    // touches of fresh ones run on the team.
    if (item.kind.op == graph::Op::Split) {
        made_[i] = mesh_.make_block(p.key.child(p.octant, mesh_.structure().max_level()));
        made_[i]->fill_from_parent(*parents_[i], p.octant);
        parents_[i].reset();
    } else if (item.kind.op == graph::Op::Merge) {
        made_[i] = mesh_.make_block(p.key);
        for (int octant = 0; octant < 8; ++octant) {
            std::unique_ptr<Block>& child = children_[i][static_cast<std::size_t>(octant)];
            made_[i]->absorb_child(*child, octant);
            child.reset();
        }
    } else {
        tasking::TaskBody body;
        bind(body, item.kind, p, input(item.targets[0]), output(item.targets[1]));
        body();
        return;
    }
    trace(worker_index(), t0, now_ns(), item.kind.phase);
}

std::span<const double> SyncDriver::input(const graph::Target& t) {
    if (cfg_.zero_copy &&
        (t.object == graph::Object::Recv || t.object == graph::Object::FluxRecv)) {
        return rx_frame_.subspan(static_cast<std::size_t>(t.first - frame_first_),
                                 static_cast<std::size_t>(t.count));
    }
    return output(t);
}

std::span<double> SyncDriver::output(const graph::Target& t) {
    if (t.object == graph::Object::Vars || t.object == graph::Object::Flux) return {};
    if (cfg_.zero_copy &&
        (t.object == graph::Object::Send || t.object == graph::Object::FluxSend)) {
        return tx_frame_.subspan(static_cast<std::size_t>(t.first - frame_first_),
                                 static_cast<std::size_t>(t.count));
    }
    return resolve(t);
}

void SyncDriver::post(const graph::Task& task) {
    const graph::Target& msg = task.accesses[0].target;
    const graph::Payload& p = task.payload;
    if (cfg_.zero_copy) {
        views_.emplace_back();
        recv_reqs_.push_back(hcomm_.irecv_view(
            &views_.back(), static_cast<std::size_t>(msg.count) * sizeof(double), p.peer, p.tag));
    } else {
        const std::span<double> staged = resolve(msg);
        recv_reqs_.push_back(hcomm_.irecv(staged.data(), staged.size_bytes(), p.peer, p.tag));
    }
    recv_first_.push_back(msg.first);
}

template <class RunPacks>
void SyncDriver::send(const graph::Task& task, const RunPacks& run_packs) {
    const graph::Target& msg = task.accesses[0].target;
    const graph::Payload& p = task.payload;
    mpi::TxBuffer tx;
    if (cfg_.zero_copy) {
        tx = mpi::make_tx_buffer(static_cast<std::size_t>(msg.count) * sizeof(double));
        tx_frame_ = frame_doubles(tx.payload);
        frame_first_ = msg.first;
    }
    run_packs();
    const std::int64_t t0 = now_ns();
    if (cfg_.zero_copy) {
        send_reqs_.push_back(hcomm_.isend_tx(tx, p.peer, p.tag));
    } else {
        const std::span<double> staged = resolve(msg);
        send_reqs_.push_back(hcomm_.isend(staged.data(), staged.size_bytes(), p.peer, p.tag));
    }
    trace(0, t0, now_ns(), PhaseKind::Send);
}

int SyncDriver::wait_any() {
    const std::int64_t t0 = now_ns();
    const int i = hcomm_.wait_any(std::span<mpi::Request>(recv_reqs_));
    trace(0, t0, now_ns(), PhaseKind::CommWait);
    if (i == mpi::kUndefined) return -1;
    if (cfg_.zero_copy) {
        rx_frame_ = frame_doubles(views_[static_cast<std::size_t>(i)].payload);
        frame_first_ = recv_first_[static_cast<std::size_t>(i)];
    }
    return i;
}

void SyncDriver::end_exchange() {
    // The messages can be reused once the sends are done (line 19).
    const std::int64_t t0 = now_ns();
    hcomm_.wait_all(std::span<mpi::Request>(send_reqs_));
    trace(0, t0, now_ns(), PhaseKind::CommWait);
    send_reqs_.clear();
    recv_reqs_.clear();
    recv_first_.clear();
    views_.clear();
}

}  // namespace dfamr::core
