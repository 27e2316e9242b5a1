// The task graph of all three variants (paper §IV-V), described once. One
// emit function per phase hands each task, in submission order, to a sink
// as a kind, typed accesses and a payload. TampiOssDriver resolves accesses
// to spans and submits the kernels; the DES's TAMPI+OSS model
// (src/sim/run_sim.cpp) resolves them to synthetic regions of the same
// offsets and sizes and charges costs; SyncDriver and the DES's MPI-only
// and fork-join models run the tasks through LoopRule, the bulk-synchronous
// loop rule at the end of this file. The sink is a template parameter, so
// submitting costs no virtual call. A sink has submit(const Task&),
// wait(const Access&, int slot) (taskwait on the access, then validate
// checksum slot `slot`), drain(int slot) and join(Join) (the main thread
// waits for the rank's tasks, see Join).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "amr/comm_plan.hpp"
#include "amr/config.hpp"
#include "amr/mesh.hpp"
#include "amr/trace.hpp"

namespace dfamr::amr::graph {

/// What a task's body does.
enum class Op : std::uint8_t {
    Recv, Send, Pack, Unpack, Copy, FluxPack, Reflux, RefluxIntra, Outflux,
    Stencil, ChecksumLocal, ChecksumReduce, Split, Merge, BlockSend, BlockRecv,
};

/// A task's kind: its op, its DepLint label and its trace phase.
struct Kind {
    Op op;
    const char* label;
    PhaseKind phase;
};

/// The kinds of an exchange's receive, pack, send, same-rank and apply tasks.
struct ExchangeKinds {
    Kind recv, pack, send, local, apply;
};
inline constexpr ExchangeKinds kGhost{{Op::Recv, "recv", PhaseKind::Recv},
                                      {Op::Pack, "pack", PhaseKind::Pack},
                                      {Op::Send, "send", PhaseKind::Send},
                                      {Op::Copy, "intra_copy", PhaseKind::IntraCopy},
                                      {Op::Unpack, "unpack", PhaseKind::Unpack}};
inline constexpr ExchangeKinds kFlux{{Op::Recv, "flux_recv", PhaseKind::Recv},
                                     {Op::FluxPack, "flux_pack", PhaseKind::Pack},
                                     {Op::Send, "flux_send", PhaseKind::Send},
                                     {Op::RefluxIntra, "reflux_intra", PhaseKind::IntraCopy},
                                     {Op::Reflux, "reflux", PhaseKind::Unpack}};

/// What an access names; `first`/`count` select variables or values in it.
enum class Object : std::uint8_t {
    Vars,      // block `key`; all its variables make the whole block
    Flux,      // block `key`'s flux register
    Send,      // storage `index` of the ghost send streams (StreamLayout)
    Recv,      // storage `index` of the ghost receive streams
    FluxSend,  // storage `index` of the flux send streams
    FluxRecv,  // storage `index` of the flux receive streams
    Partials,  // checksum slot `index`'s partial sums, [group][block]
    Sums,      // checksum slot `index`'s group sums
    Outflux,   // the boundary-outflux accumulator
};

struct Target {
    Object object = Object::Vars;
    BlockKey key{};
    int index = 0;
    std::int64_t first = 0;
    std::int64_t count = 0;
};

inline Target vars(Object object, const BlockKey& key, int var_begin, int var_end) {
    return {object, key, 0, var_begin, var_end - var_begin};
}
/// Section `range` of `stream`, in the stream's storage.
inline Target stream(Object object, const StreamLayout::Stream& stream, StreamLayout::Range range) {
    return {object, {}, stream.storage, static_cast<std::int64_t>(stream.offset + range.first),
            static_cast<std::int64_t>(range.count)};
}
inline Target slot(Object object, int index, std::int64_t first, std::int64_t count) {
    return {object, {}, index, first, count};
}

enum class Mode : std::uint8_t { In, Out, InOut };

struct Access {
    Mode mode;
    Target target;
};

/// What a task's body needs beyond its accesses; each op reads its fields.
struct Payload {
    int var_begin = 0, var_end = 0;      // the variable group
    int dir = 0;                         // Copy, Outflux: the direction
    int peer = -1, tag = 0;              // messages; Unpack, Reflux: the one applied
    const FaceTransfer* face = nullptr;  // Pack, Unpack, FluxPack, Reflux
    BlockKey key{};  // Stencil, ChecksumLocal, Merge, BlockSend/Recv; Split: the parent
    int octant = 0;  // Split: the child
    std::span<const IntraCopy> copies{};                   // Copy, RefluxIntra
    std::span<const std::pair<BlockKey, int>> boundary{};  // Copy: the reflections
};

struct Task {
    Kind kind;
    std::span<const Access> accesses;
    Payload payload;
};

/// Where refinement's main thread stops submitting until the rank's tasks
/// complete, so the blocks they free return to the arena before the next
/// tasks' blocks are taken from it (DESIGN.md §5). A join adds no task and
/// no edge.
enum class Join : std::uint8_t {
    SplitWave,  // between two waves of split parents
    Transfers,  // between an exchange's block sends and its receives; then
                // a barrier, so every rank's sends are done
};

/// Split parents per core of the rank in one wave: enough children to keep
/// every core busy, few enough that a wave holds a bounded set of blocks.
inline constexpr int kSplitWaveParentsPerCore = 2;

/// Algorithm 3 for direction `dir` of a DirectionPlan or (`flux`) a
/// FluxPlan::Direction, for variables [vb, ve): a receive task per message,
/// a pack task per face, a send task per message (one access over its packed
/// sections: §IV-A's multidependency), a same-rank task per destination
/// block, then an apply task per face. A flux face reads the fine register
/// and corrects the coarse block and its register. The ghost plan reflects
/// the `boundary` faces; the reflux ends with one task tallying their
/// outflux, whose inout on the accumulator keeps the directions in order.
template <class Sink, class Plan>
void emit_exchange(Sink& sink, const Plan& plan, bool flux, int dir,
                   std::span<const std::pair<BlockKey, int>> boundary,
                   const StreamLayout& streams, int vb, int ve) {
    const ExchangeKinds& kinds = flux ? kFlux : kGhost;
    const Object send = flux ? Object::FluxSend : Object::Send;
    const Object recv = flux ? Object::FluxRecv : Object::Recv;
    const Object source = flux ? Object::Flux : Object::Vars;
    const int n = ve - vb;
    for (std::size_t ni = 0; ni < plan.neighbors.size(); ++ni) {
        const NeighborExchange& ex = plan.neighbors[ni];
        for (const MessageChunk& chunk : ex.recv_chunks) {
            const Access a[] = {
                {Mode::Out, stream(recv, streams.recv(dir, ni), streams.message(chunk, n))}};
            sink.submit(Task{kinds.recv, a, {.peer = ex.peer, .tag = chunk.tag}});
        }
    }
    for (std::size_t ni = 0; ni < plan.neighbors.size(); ++ni) {
        const NeighborExchange& ex = plan.neighbors[ni];
        for (const MessageChunk& chunk : ex.send_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const FaceTransfer& face = ex.sends[static_cast<std::size_t>(f)];
                const Access a[] = {
                    {Mode::In, vars(source, face.mine, vb, ve)},
                    {Mode::Out, stream(send, streams.send(dir, ni), streams.face(chunk, face, n))}};
                sink.submit(Task{kinds.pack, a, {.var_begin = vb, .var_end = ve, .face = &face}});
            }
            const Access a[] = {
                {Mode::In, stream(send, streams.send(dir, ni), streams.message(chunk, n))}};
            sink.submit(Task{kinds.send, a, {.peer = ex.peer, .tag = chunk.tag}});
        }
    }
    std::vector<Access> acc;
    for_each_destination(
        plan.copies, flux ? std::span<const std::pair<BlockKey, int>>{} : boundary,
        [&](const BlockKey& dst, std::span<const IntraCopy> copies,
            std::span<const std::pair<BlockKey, int>> reflections) {
            acc.clear();
            for (const IntraCopy& c : copies) {
                acc.push_back({Mode::In, vars(source, c.src, vb, ve)});
            }
            acc.push_back({Mode::InOut, vars(Object::Vars, dst, vb, ve)});
            if (flux) acc.push_back({Mode::InOut, vars(Object::Flux, dst, vb, ve)});
            sink.submit(Task{kinds.local, acc,
                             {.var_begin = vb, .var_end = ve, .dir = dir, .copies = copies,
                              .boundary = reflections}});
        });
    for (std::size_t ni = 0; ni < plan.neighbors.size(); ++ni) {
        const NeighborExchange& ex = plan.neighbors[ni];
        for (const MessageChunk& chunk : ex.recv_chunks) {
            for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
                const FaceTransfer& face = ex.recvs[static_cast<std::size_t>(f)];
                const Access a[] = {
                    {Mode::In, stream(recv, streams.recv(dir, ni), streams.face(chunk, face, n))},
                    {Mode::InOut, vars(Object::Vars, face.mine, vb, ve)},
                    {Mode::InOut, vars(Object::Flux, face.mine, vb, ve)}};
                sink.submit(Task{kinds.apply, std::span(a, flux ? 3 : 2),
                                 {.var_begin = vb, .var_end = ve, .peer = ex.peer,
                                  .tag = chunk.tag, .face = &face}});
            }
        }
    }
    if (!flux || boundary.empty()) return;
    acc.clear();
    for (const auto& [key, sense] : boundary) {
        acc.push_back({Mode::In, vars(Object::Flux, key, vb, ve)});
    }
    acc.push_back({Mode::InOut, Target{Object::Outflux}});
    sink.submit(Task{{Op::Outflux, "boundary_outflux", PhaseKind::ChecksumLocal}, acc,
                     {.var_begin = vb, .var_end = ve, .dir = dir}});
}

/// A task per block, inout on its variables [vb, ve) (§IV-D) and, for
/// scenario runs, on the flux register the kernel records.
template <class Sink>
void emit_stencil(Sink& sink, std::span<const BlockKey> keys, int vb, int ve, bool registers) {
    for (const BlockKey& key : keys) {
        const Access a[] = {{Mode::InOut, vars(Object::Vars, key, vb, ve)},
                            {Mode::InOut, vars(Object::Flux, key, vb, ve)}};
        sink.submit(Task{{Op::Stencil, "stencil", PhaseKind::Stencil},
                         std::span(a, registers ? 2 : 1),
                         {.var_begin = vb, .var_end = ve, .key = key}});
    }
}

/// One checksum stage (§IV-C) into slot `index`: per group, a local task per
/// block and a reduce task; then a drain, or if `delayed` (--delayed_checksum,
/// TAMPI+OSS only) a taskwait on the previous slot's sums if they are still
/// pending.
template <class Sink>
void emit_checksum(Sink& sink, const Config& cfg, std::span<const BlockKey> keys, int index,
                   bool previous_pending, bool delayed) {
    const auto n = static_cast<std::int64_t>(keys.size());
    for (int g = 0; g < cfg.num_groups(); ++g) {
        const int vb = cfg.group_begin(g), ve = cfg.group_end(g);
        for (std::int64_t i = 0; i < n; ++i) {
            const BlockKey& key = keys[static_cast<std::size_t>(i)];
            const Access a[] = {{Mode::In, vars(Object::Vars, key, vb, ve)},
                                {Mode::Out, slot(Object::Partials, index, g * n + i, 1)}};
            sink.submit(Task{{Op::ChecksumLocal, "checksum_local", PhaseKind::ChecksumLocal}, a,
                             {.var_begin = vb, .var_end = ve, .key = key}});
        }
        const Access a[] = {{Mode::In, slot(Object::Partials, index, g * n, n)},
                            {Mode::Out, slot(Object::Sums, index, g, 1)}};
        sink.submit(
            Task{{Op::ChecksumReduce, "checksum_reduce", PhaseKind::ChecksumReduce}, a, {}});
    }
    if (!delayed) {
        sink.drain(index);
    } else if (previous_pending) {
        sink.wait({Mode::In, slot(Object::Sums, 1 - index, 0, cfg.num_groups())}, 1 - index);
    }
}

/// Refinement (§IV-B): a task per split child (the parent's last writer ran
/// before the phase, so no task names it) and a task per merged parent. The
/// sink takes every block a task fills from the arena. Splits come in waves
/// of `wave` parents, joined in between, so a wave's parents are freed before
/// the next wave takes its children. The data-flow sinks, which take a wave's
/// children as they submit it, pass kSplitWaveParentsPerCore per core; the
/// bulk loops free each parent with its last child and pass one wave.
template <class Sink>
void emit_splits(Sink& sink, std::span<const BlockKey> parents, int max_level, int num_vars,
                 std::size_t wave) {
    for (std::size_t i = 0; i < parents.size(); ++i) {
        if (i > 0 && i % wave == 0) sink.join(Join::SplitWave);
        const BlockKey& parent = parents[i];
        for (int octant = 0; octant < 8; ++octant) {
            const Access a[] = {
                {Mode::Out, vars(Object::Vars, parent.child(octant, max_level), 0, num_vars)}};
            sink.submit(Task{{Op::Split, "refine_split", PhaseKind::RefineSplit}, a,
                             {.key = parent, .octant = octant}});
        }
    }
}

template <class Sink>
void emit_merges(Sink& sink, std::span<const BlockKey> parents, int max_level, int num_vars) {
    for (const BlockKey& parent : parents) {
        Access a[9];
        for (int octant = 0; octant < 8; ++octant) {
            a[octant] = {Mode::In,
                         vars(Object::Vars, parent.child(octant, max_level), 0, num_vars)};
        }
        a[8] = {Mode::Out, vars(Object::Vars, parent, 0, num_vars)};
        sink.submit(Task{{Op::Merge, "refine_merge", PhaseKind::RefineMerge}, a, {.key = parent}});
    }
}

/// The block payloads of one exchange (`moves`, the same list on every
/// rank), as rank `rank` sees them: a send task per outgoing block, a
/// transfer join, then a receive task per incoming one, tagged with the id
/// both sides agreed on. The join frees the sent blocks before any received
/// one is taken; every rank skips it together when nothing moves. No join
/// follows the receives: the merges read received children through their
/// edges.
template <class Sink>
void emit_block_transfers(Sink& sink, std::span<const BlockMove> moves, int rank, int num_vars) {
    if (moves.empty()) return;
    for (const BlockMove& mv : moves) {
        if (mv.from != rank) continue;
        const Access a[] = {{Mode::In, vars(Object::Vars, mv.key, 0, num_vars)}};
        sink.submit(Task{{Op::BlockSend, "block_send", PhaseKind::RefineExchange}, a,
                         {.peer = mv.to, .tag = kBlockDataTagBase + mv.id, .key = mv.key}});
    }
    sink.join(Join::Transfers);
    for (const BlockMove& mv : moves) {
        if (mv.to != rank) continue;
        const Access a[] = {{Mode::Out, vars(Object::Vars, mv.key, 0, num_vars)}};
        sink.submit(Task{{Op::BlockRecv, "block_recv", PhaseKind::RefineExchange}, a,
                         {.peer = mv.from, .tag = kBlockDataTagBase + mv.id, .key = mv.key}});
    }
}

/// The tasks that apply a section of an arrived message.
inline bool applies(Op op) { return op == Op::Unpack || op == Op::Reflux; }

/// The bulk-synchronous variants' loop rule (Algorithm 2), the sink that
/// SyncDriver and the DES's MPI-only and fork-join models hand the emit
/// functions. Consecutive tasks of one op form one loop, which the backend
/// runs as its for_each (a plain or a worksharing loop; in the DES, a serial
/// chain or a parallel region). A task of another op, a drain or a join
/// first runs the pending loop. Receives are posted on the master at once.
/// A send runs its chunk's pack loop, then sends from the master. Apply
/// tasks are grouped by the message they name and run as Waitany returns
/// each message; end_exchange, which the stage hook calls after each
/// direction, runs them and then waits for the sends. A Backend has
/// `Item item(const Task&)`, `loop(std::span<Item>)`, `post(const Task&)`
/// (a receive), `send(const Task&, run_packs)`, `int wait_any()` (the
/// posting-order index of the next receive to complete, or -1 once all have),
/// `end_exchange()` (waits for the sends) and `validate(int slot)`.
template <class Backend>
class LoopRule {
public:
    using Item = typename Backend::Item;
    explicit LoopRule(Backend& backend) : b_(backend) {}

    void submit(const Task& task) {
        const Op op = task.kind.op;
        if (op == Op::Recv) {
            run();
            b_.post(task);
            return;
        }
        if (op == Op::Send) {
            b_.send(task, [this] { run(); });
            return;
        }
        if (!items_.empty() && op != op_) run();
        op_ = op;
        if (applies(op)) {
            // The applies come grouped by message, in posting order; two
            // messages in a row never share a peer and a tag.
            const std::pair name{task.payload.peer, task.payload.tag};
            if (starts_.empty() || name != last_) starts_.push_back(items_.size());
            last_ = name;
        }
        items_.push_back(b_.item(task));
    }
    void drain(int slot) {
        run();
        b_.validate(slot);
    }
    void wait(const Access&, int slot) { drain(slot); }
    void join(Join) { run(); }

    /// Runs the pending loop: an apply loop per message, in arrival order.
    void run() {
        if (items_.empty()) return;
        const std::span<Item> items(items_);
        if (applies(op_)) {
            starts_.push_back(items_.size());
            for (int i; (i = b_.wait_any()) >= 0;) {
                const std::size_t m = static_cast<std::size_t>(i);
                b_.loop(items.subspan(starts_[m], starts_[m + 1] - starts_[m]));
            }
            starts_.clear();
        } else {
            b_.loop(items);
        }
        items_.clear();
    }
    /// Ends a direction's exchange: its apply loops, then its sends.
    void end_exchange() {
        run();
        b_.end_exchange();
    }

private:
    Backend& b_;
    Op op_ = Op::Recv;
    std::vector<Item> items_;
    std::vector<std::size_t> starts_;  // the first apply item of each message
    std::pair<int, int> last_{};       // the message the last apply named
};

}  // namespace dfamr::amr::graph
