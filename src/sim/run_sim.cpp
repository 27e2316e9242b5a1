#include "sim/run_sim.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "amr/comm_plan.hpp"
#include "amr/structure.hpp"
#include "common/error.hpp"

namespace dfamr::sim {

using amr::BlockKey;
using amr::CommPlan;
using amr::FaceRel;
using tasking::Dep;
using tasking::DepKind;
using tasking::Region;

// ---------------------------------------------------------------------------
// Experiment-layout helpers
// ---------------------------------------------------------------------------

namespace {
std::vector<int> prime_factors_desc(int n) {
    std::vector<int> primes;
    int m = n;
    for (int p = 2; p * p <= m; ++p) {
        while (m % p == 0) {
            primes.push_back(p);
            m /= p;
        }
    }
    if (m > 1) primes.push_back(m);
    std::sort(primes.rbegin(), primes.rend());
    return primes;
}
}  // namespace

Vec3i factor3(int n) {
    DFAMR_REQUIRE(n >= 1, "cannot factor a non-positive count");
    Vec3i dims{1, 1, 1};
    for (int p : prime_factors_desc(n)) {
        int smallest = 0;
        for (int d = 1; d < 3; ++d) {
            if (dims[d] < dims[smallest]) smallest = d;
        }
        dims[smallest] *= p;
    }
    if (dims.x < dims.z) std::swap(dims.x, dims.z);
    return dims;
}

Vec3i rank_grid_dividing(Vec3i blocks, int nranks) {
    Vec3i ranks{1, 1, 1};
    for (int p : prime_factors_desc(nranks)) {
        int best = -1;
        int best_quotient = 0;
        for (int d = 0; d < 3; ++d) {
            const int q = blocks[d] / ranks[d];
            if (blocks[d] % (ranks[d] * p) == 0 && q % p == 0 && q > best_quotient) {
                best_quotient = q;
                best = d;
            }
        }
        DFAMR_REQUIRE(best >= 0, "rank count " + std::to_string(nranks) +
                                     " cannot divide the block grid");
        ranks[best] *= p;
    }
    return ranks;
}

void arrange(amr::Config& cfg, Vec3i block_grid, int total_ranks) {
    const Vec3i ranks = rank_grid_dividing(block_grid, total_ranks);
    cfg.npx = ranks.x;
    cfg.npy = ranks.y;
    cfg.npz = ranks.z;
    cfg.init_x = block_grid.x / ranks.x;
    cfg.init_y = block_grid.y / ranks.y;
    cfg.init_z = block_grid.z / ranks.z;
}

// ---------------------------------------------------------------------------
// SimRun: mirrors core::DriverBase's orchestration, building DAGs instead of
// executing kernels.
// ---------------------------------------------------------------------------

namespace {

class SimRun {
public:
    SimRun(const amr::Config& app, amr::Variant variant, const ClusterSpec& cluster,
           const CostModel& costs, amr::Tracer* tracer)
        : cfg_(app),
          variant_(variant),
          cluster_(cluster),
          costs_(costs),
          sim_(cluster, costs),
          structure_(app),
          shape_{app.nx, app.ny, app.nz, app.num_vars} {
        cfg_.validate();
        DFAMR_REQUIRE(cfg_.num_ranks() == cluster.total_ranks(),
                      "config rank grid must match the cluster's total ranks");
        R_ = cluster.total_ranks();
        W_ = cluster.cores_per_rank();
        mem_factor_ = cluster.rank_spans_sockets() ? costs.numa_penalty : 1.0;
        sim_.set_tracer(tracer);
        state_.resize(static_cast<std::size_t>(R_));
        regs_.resize(static_cast<std::size_t>(R_));
        rebuild_rank_state();
    }

    SimResult execute() {
        if (cfg_.refine_freq > 0 && cfg_.num_refine > 0) refinement_phase(0);
        int stage_counter = 0;
        for (int ts = 1; ts <= cfg_.num_tsteps; ++ts) {
            for (int stage = 0; stage < cfg_.stages_per_ts; ++stage) {
                for (int group = 0; group < cfg_.num_groups(); ++group) {
                    communicate_stage(group);
                    stencil_stage(group);
                }
                ++stage_counter;
                if (cfg_.checksum_freq > 0 && stage_counter % cfg_.checksum_freq == 0) {
                    checksum_stage();
                }
            }
            if (cfg_.refine_freq > 0 && cfg_.num_refine > 0 && ts % cfg_.refine_freq == 0) {
                refinement_phase(cfg_.refine_freq);
            }
        }
        finish_pending_checksums();
        sim_.run_until_drained();

        SimResult result;
        result.total_s = static_cast<double>(sim_.global_time()) * 1e-9;
        result.refine_s = static_cast<double>(refine_ns_) * 1e-9;
        result.total_flops = flops_;
        result.final_blocks = static_cast<std::int64_t>(structure_.num_blocks());
        result.stats = sim_.stats();
        return result;
    }

private:
    struct Move {
        BlockKey key;
        int from = -1, to = -1;
        int id = 0;
    };

    struct RankState {
        std::vector<BlockKey> blocks;
        CommPlan plan;
        SimTaskPtr tail;  // program-order / main-thread chain
        // Virtual dependency regions (TAMPI variant only).
        std::uint64_t arena = 0;
        std::map<BlockKey, std::uint64_t> block_region;  // base; +group = region
        std::array<std::vector<std::uint64_t>, 3> send_base, recv_base;  // per neighbor
        std::uint64_t cks_partials[2] = {0, 0};
        std::uint64_t cks_sums[2] = {0, 0};
    };

    // --- small helpers -----------------------------------------------------
    int group_begin(int g) const { return g * cfg_.vars_per_group(); }
    int group_end(int g) const { return std::min(cfg_.num_vars, (g + 1) * cfg_.vars_per_group()); }
    int gvars(int g) const { return group_end(g) - group_begin(g); }
    bool tasking() const { return variant_ == amr::Variant::TampiOss; }
    /// Variant used for the refinement data operations (the
    /// --serial_refinement ablation keeps them sequential).
    amr::Variant refine_variant() const {
        if (tasking() && !cfg_.taskify_refinement) return amr::Variant::MpiOnly;
        return variant_;
    }
    bool refine_tasking() const { return tasking() && cfg_.taskify_refinement; }

    std::int64_t overhead() const {
        // Per-task runtime cost on a worker's critical path (see
        // CostModel::tasking_overhead_ns); perfbench's tasking.ns_per_task.*
        // probes measure the runtime's whole per-task cost.
        return tasking() ? static_cast<std::int64_t>(costs_.tasking_overhead_ns) : 0;
    }
    std::int64_t stencil_ns(std::int64_t blocks, int vars) const {
        double ns = costs_.stencil_ns_per_cell_var * static_cast<double>(blocks) *
                    static_cast<double>(cfg_.cells_interior()) * vars * mem_factor_;
        if (cfg_.stencil == 27) ns *= 27.0 / 7.0;  // flop-proportional
        if (tasking()) ns /= costs_.locality_speedup;
        return static_cast<std::int64_t>(ns);
    }
    std::int64_t copy_ns(std::int64_t bytes) const {
        return static_cast<std::int64_t>(costs_.copy_ns_per_byte * static_cast<double>(bytes) *
                                         mem_factor_);
    }
    std::int64_t checksum_ns(std::int64_t blocks, int vars) const {
        return static_cast<std::int64_t>(costs_.checksum_ns_per_cell_var *
                                         static_cast<double>(blocks) *
                                         static_cast<double>(cfg_.cells_interior()) * vars *
                                         mem_factor_);
    }
    std::int64_t mpi_call() const { return static_cast<std::int64_t>(costs_.mpi_call_ns); }
    std::int64_t block_bytes() const { return shape_.total_cells() * 8; }
    std::int64_t face_bytes(int axis, FaceRel rel, int vars) const {
        return (rel == FaceRel::Same ? shape_.face_values_same(axis, vars)
                                     : shape_.face_values_mixed(axis, vars)) *
               8;
    }

    std::uint64_t alloc_region(RankState& st, std::uint64_t bytes) {
        const std::uint64_t base = st.arena;
        st.arena += bytes;
        return base;
    }
    static Dep dep(DepKind kind, std::uint64_t base, std::uint64_t size) {
        return Dep{kind, Region::synthetic(base, static_cast<std::size_t>(size))};
    }
    Dep block_dep(int rank, DepKind kind, const BlockKey& key, int group) {
        RankState& st = state_[static_cast<std::size_t>(rank)];
        auto it = st.block_region.find(key);
        DFAMR_REQUIRE(it != st.block_region.end(), "block region missing for dependency");
        return dep(kind, it->second + static_cast<std::uint64_t>(group), 1);
    }

    void chain(int rank, const SimTaskPtr& t) {
        SimTaskPtr& tail = state_[static_cast<std::size_t>(rank)].tail;
        edge(tail, t);
        tail = t;
    }
    static void edge(const SimTaskPtr& pred, const SimTaskPtr& succ) {
        if (pred && !pred->released) {
            pred->successors.push_back(succ.get());
            ++succ->pred_count;
        }
    }
    /// Serial (program-order) task on the rank's main core.
    SimTaskPtr serial(int rank, PhaseKind kind, std::int64_t cost) {
        auto t = sim_.new_task(rank, kind, cost, W_ > 1 ? 0 : -1);
        chain(rank, t);
        sim_.submit(t);
        return t;
    }
    /// Data-flow task with region dependencies (TAMPI variant).
    SimTaskPtr dataflow(int rank, PhaseKind kind, std::int64_t cost,
                        std::initializer_list<Dep> deps) {
        auto t = sim_.new_task(rank, kind, cost);
        regs_[static_cast<std::size_t>(rank)].register_accesses(
            t, std::span<const Dep>(deps.begin(), deps.size()));
        sim_.submit(t);
        return t;
    }
    SimTaskPtr dataflow_v(int rank, PhaseKind kind, std::int64_t cost,
                          const std::vector<Dep>& deps) {
        auto t = sim_.new_task(rank, kind, cost);
        regs_[static_cast<std::size_t>(rank)].register_accesses(t, std::span<const Dep>(deps));
        sim_.submit(t);
        return t;
    }
    /// Fork-join parallel region: static chunks pinned to cores + barrier.
    void parallel_region(int rank, PhaseKind kind, const std::vector<std::int64_t>& item_costs) {
        RankState& st = state_[static_cast<std::size_t>(rank)];
        const SimTaskPtr start_tail = st.tail;
        std::vector<SimTaskPtr> chunks;
        const std::size_t n = item_costs.size();
        for (int w = 0; w < W_; ++w) {
            const std::size_t lo = n * static_cast<std::size_t>(w) / static_cast<std::size_t>(W_);
            const std::size_t hi =
                n * static_cast<std::size_t>(w + 1) / static_cast<std::size_t>(W_);
            if (hi <= lo) continue;
            std::int64_t cost = 0;
            for (std::size_t i = lo; i < hi; ++i) cost += item_costs[i];
            auto t = sim_.new_task(rank, kind, cost, w);
            edge(start_tail, t);
            sim_.submit(t);
            chunks.push_back(std::move(t));
        }
        auto join = sim_.new_task(rank, PhaseKind::Control, 0, 0);
        for (const SimTaskPtr& c : chunks) edge(c, join);
        if (chunks.empty()) edge(start_tail, join);
        st.tail = join;
        sim_.submit(join);
    }

    /// Drains all outstanding work, then applies a blocking collective
    /// across every rank (used at the global sync points).
    void analytic_collective(std::int64_t bytes) {
        sim_.run_until_drained();
        std::int64_t tmax = 0;
        for (int r = 0; r < R_; ++r) tmax = std::max(tmax, sim_.rank_time(r));
        sim_.advance_all_ranks_to(tmax + costs_.collective_ns(R_, bytes));
        // Everything is released; prune dependency bookkeeping.
        for (auto& reg : regs_) reg.garbage_collect();
    }

    /// Index of rank `from` in `plans_[of_rank]`'s direction-d neighbor list.
    int neighbor_index(int of_rank, int dir, int from) const {
        const auto& neighbors = state_[static_cast<std::size_t>(of_rank)].plan.direction(dir).neighbors;
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
            if (neighbors[i].peer == from) return static_cast<int>(i);
        }
        throw Error("asymmetric communication plan: peer not found");
    }

    // --- state rebuild -------------------------------------------------------
    void refresh_block_lists() {
        for (RankState& st : state_) st.blocks.clear();
        for (const auto& [key, owner] : structure_.leaves()) {
            state_[static_cast<std::size_t>(owner)].blocks.push_back(key);
        }
    }

    void rebuild_rank_state() {
        refresh_block_lists();
        amr::CommPlanOptions opts;
        opts.send_faces = cfg_.send_faces;
        opts.max_comm_tasks = cfg_.max_comm_tasks;
        for (int r = 0; r < R_; ++r) {
            RankState& st = state_[static_cast<std::size_t>(r)];
            st.plan = CommPlan(structure_, shape_, r, opts,
                               std::span<const BlockKey>(st.blocks));
            st.tail = nullptr;
        }
        if (!tasking()) return;

        // Fresh registries (the sharded registry is move-only, so no assign).
        regs_ = std::vector<tasking::DependencyRegistry>(static_cast<std::size_t>(R_));
        const std::uint64_t gvm = static_cast<std::uint64_t>(cfg_.vars_per_group());
        for (int r = 0; r < R_; ++r) {
            RankState& st = state_[static_cast<std::size_t>(r)];
            st.arena = (static_cast<std::uint64_t>(r) + 1) << 44;
            st.block_region.clear();
            for (const BlockKey& key : st.blocks) {
                st.block_region[key] =
                    alloc_region(st, static_cast<std::uint64_t>(cfg_.num_groups()));
            }
            // Communication buffer regions, reproducing the reference
            // aliasing: without --separate_buffers the three directions
            // share one buffer pair (false inter-direction dependencies).
            std::array<std::uint64_t, 3> send_bytes{}, recv_bytes{};
            for (int d = 0; d < 3; ++d) {
                auto& sb = st.send_base[static_cast<std::size_t>(d)];
                auto& rb = st.recv_base[static_cast<std::size_t>(d)];
                sb.clear();
                rb.clear();
                for (const amr::NeighborExchange& ex : st.plan.direction(d).neighbors) {
                    sb.push_back(send_bytes[static_cast<std::size_t>(d)]);
                    rb.push_back(recv_bytes[static_cast<std::size_t>(d)]);
                    send_bytes[static_cast<std::size_t>(d)] +=
                        static_cast<std::uint64_t>(ex.send_values) * gvm * 8;
                    recv_bytes[static_cast<std::size_t>(d)] +=
                        static_cast<std::uint64_t>(ex.recv_values) * gvm * 8;
                }
            }
            std::uint64_t sbase = 0, rbase = 0;
            if (!cfg_.separate_buffers) {
                sbase = alloc_region(st, *std::max_element(send_bytes.begin(), send_bytes.end()));
                rbase = alloc_region(st, *std::max_element(recv_bytes.begin(), recv_bytes.end()));
            }
            for (int d = 0; d < 3; ++d) {
                if (cfg_.separate_buffers) {
                    sbase = alloc_region(st, send_bytes[static_cast<std::size_t>(d)]);
                    rbase = alloc_region(st, recv_bytes[static_cast<std::size_t>(d)]);
                }
                for (std::uint64_t& off : st.send_base[static_cast<std::size_t>(d)]) off += sbase;
                for (std::uint64_t& off : st.recv_base[static_cast<std::size_t>(d)]) off += rbase;
            }
            // Checksum slots (double-buffered for the delayed optimization).
            const std::uint64_t groups = static_cast<std::uint64_t>(cfg_.num_groups());
            const std::uint64_t nblocks = st.blocks.size();
            for (int slot = 0; slot < 2; ++slot) {
                st.cks_partials[slot] = alloc_region(st, groups * std::max<std::uint64_t>(nblocks, 1) * 8);
                st.cks_sums[slot] = alloc_region(st, groups * 8);
            }
        }
        cks_pending_[0] = cks_pending_[1] = false;
        cks_slot_ = 0;
    }

    // --- stages ---------------------------------------------------------------
    void communicate_stage(int group) {
        if (tasking()) {
            tampi_communicate(group);
            return;
        }
        const int gv = gvars(group);
        for (int dir = 0; dir < 3; ++dir) {
            // Pass 1: receive posts + completion sinks, every rank.
            std::vector<std::vector<std::vector<SimTaskPtr>>> sinks(
                static_cast<std::size_t>(R_));
            for (int r = 0; r < R_; ++r) {
                const auto& dp = state_[static_cast<std::size_t>(r)].plan.direction(dir);
                sinks[static_cast<std::size_t>(r)].resize(dp.neighbors.size());
                for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                    for (std::size_t ci = 0; ci < dp.neighbors[ni].recv_chunks.size(); ++ci) {
                        serial(r, PhaseKind::Recv, mpi_call());  // the Irecv post
                        auto sink = sim_.new_task(r, PhaseKind::Recv, 0);
                        sim_.submit(sink);
                        sinks[static_cast<std::size_t>(r)][ni].push_back(std::move(sink));
                    }
                }
            }
            // Pass 2: pack/send, intra copies, waitany-unpack, per rank.
            for (int r = 0; r < R_; ++r) {
                RankState& st = state_[static_cast<std::size_t>(r)];
                const auto& dp = st.plan.direction(dir);

                if (variant_ == amr::Variant::MpiOnly) {
                    // Pack + send interleaved per chunk (Algorithm 2).
                    for (const amr::NeighborExchange& ex : dp.neighbors) {
                        for (const amr::MessageChunk& chunk : ex.send_chunks) {
                            const std::int64_t bytes = chunk.value_count * gv * 8;
                            serial(r, PhaseKind::Pack, copy_ns(bytes));
                            auto send = serial(r, PhaseKind::Send, mpi_call());
                            link_send(send, r, dir, ex.peer, chunk, sinks, bytes);
                        }
                    }
                    serial(r, PhaseKind::IntraCopy,
                           sum(same_rank_costs(dp.copies, dp.boundary.size(), dir, gv)));
                    // Waitany loop: unpacks gated by program order + arrival.
                    const SimTaskPtr after_copies = st.tail;
                    std::vector<SimTaskPtr> unpacks;
                    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                        const amr::NeighborExchange& ex = dp.neighbors[ni];
                        for (std::size_t ci = 0; ci < ex.recv_chunks.size(); ++ci) {
                            const std::int64_t bytes = ex.recv_chunks[ci].value_count * gv * 8;
                            auto u = sim_.new_task(r, PhaseKind::Unpack, copy_ns(bytes));
                            edge(after_copies, u);
                            edge(sinks[static_cast<std::size_t>(r)][ni][ci], u);
                            sim_.submit(u);
                            unpacks.push_back(std::move(u));
                        }
                    }
                    auto join = sim_.new_task(r, PhaseKind::Control, 0);
                    for (const SimTaskPtr& u : unpacks) edge(u, join);
                    if (unpacks.empty()) edge(st.tail, join);
                    st.tail = join;
                    sim_.submit(join);
                } else {  // ForkJoin
                    // Per chunk: a workshared pack of its faces, then the
                    // master sends it.
                    for (const amr::NeighborExchange& ex : dp.neighbors) {
                        for (const amr::MessageChunk& chunk : ex.send_chunks) {
                            parallel_region(r, PhaseKind::Pack,
                                            chunk_face_costs(ex.sends, chunk, dir, gv));
                            const std::int64_t bytes = chunk.value_count * gv * 8;
                            auto send = serial(r, PhaseKind::Send, mpi_call());
                            link_send(send, r, dir, ex.peer, chunk, sinks, bytes);
                        }
                    }
                    // Workshared intra copies + boundary.
                    parallel_region(r, PhaseKind::IntraCopy,
                                    same_rank_costs(dp.copies, dp.boundary.size(), dir, gv));
                    // Waitany loop: the master waits for each message, then
                    // a workshared unpack of its faces. Plan order stands in
                    // for arrival order.
                    for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                        const amr::NeighborExchange& ex = dp.neighbors[ni];
                        for (std::size_t ci = 0; ci < ex.recv_chunks.size(); ++ci) {
                            auto wait = sim_.new_task(r, PhaseKind::CommWait, 0, 0);
                            edge(st.tail, wait);
                            edge(sinks[static_cast<std::size_t>(r)][ni][ci], wait);
                            st.tail = wait;
                            sim_.submit(wait);
                            parallel_region(
                                r, PhaseKind::Unpack,
                                chunk_face_costs(ex.recvs, ex.recv_chunks[ci], dir, gv));
                        }
                    }
                }
            }
        }
    }

    /// Copy cost of each face of one message chunk.
    std::vector<std::int64_t> chunk_face_costs(const std::vector<amr::FaceTransfer>& faces,
                                               const amr::MessageChunk& chunk, int dir,
                                               int gv) const {
        std::vector<std::int64_t> costs;
        for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count; ++f) {
            const FaceRel rel = faces[static_cast<std::size_t>(f)].geom.rel;
            costs.push_back(copy_ns(face_bytes(dir, rel, gv)));
        }
        return costs;
    }

    /// Copy cost of each same-rank item of one direction: the intra-rank
    /// copies, then `reflections` boundary reflections (a same-level face
    /// each).
    std::vector<std::int64_t> same_rank_costs(std::span<const amr::IntraCopy> copies,
                                              std::size_t reflections, int dir, int gv) const {
        std::vector<std::int64_t> costs;
        for (const amr::IntraCopy& c : copies) {
            costs.push_back(copy_ns(face_bytes(dir, c.geom.rel, gv)));
        }
        costs.insert(costs.end(), reflections, copy_ns(face_bytes(dir, FaceRel::Same, gv)));
        return costs;
    }
    static std::int64_t sum(const std::vector<std::int64_t>& costs) {
        return std::accumulate(costs.begin(), costs.end(), std::int64_t{0});
    }

    void link_send(const SimTaskPtr& send, int from, int dir, int peer,
                   const amr::MessageChunk& chunk,
                   std::vector<std::vector<std::vector<SimTaskPtr>>>& sinks,
                   std::int64_t bytes) {
        const int pni = neighbor_index(peer, dir, from);
        // The peer's recv chunk index equals this chunk's index in the
        // symmetric plan: find it by matching tags (identical layout).
        const auto& peer_ex =
            state_[static_cast<std::size_t>(peer)].plan.direction(dir).neighbors[static_cast<std::size_t>(pni)];
        int ci = -1;
        for (std::size_t i = 0; i < peer_ex.recv_chunks.size(); ++i) {
            if (peer_ex.recv_chunks[i].tag == chunk.tag) {
                ci = static_cast<int>(i);
                break;
            }
        }
        DFAMR_REQUIRE(ci >= 0, "no matching receive chunk on the peer");
        sim_.add_message(send, sinks[static_cast<std::size_t>(peer)][static_cast<std::size_t>(pni)]
                                   [static_cast<std::size_t>(ci)],
                         bytes);
    }

    /// Dependency on `count` values from `offset` of a staging stream at
    /// `base`, sized for a whole variable group like the driver's buffers.
    Dep stream_dep(DepKind kind, std::uint64_t base, std::int64_t offset,
                   std::int64_t count) const {
        const auto stride = static_cast<std::uint64_t>(cfg_.vars_per_group()) * 8;
        return dep(kind, base + static_cast<std::uint64_t>(offset) * stride,
                   static_cast<std::uint64_t>(count) * stride);
    }

    void tampi_communicate(int group) {
        const int gv = gvars(group);
        for (int dir = 0; dir < 3; ++dir) {
            // Pass 1: receive tasks everywhere (out-dep on buffer section).
            std::vector<std::vector<std::vector<SimTaskPtr>>> recv_tasks(
                static_cast<std::size_t>(R_));
            for (int r = 0; r < R_; ++r) {
                RankState& st = state_[static_cast<std::size_t>(r)];
                const auto& dp = st.plan.direction(dir);
                recv_tasks[static_cast<std::size_t>(r)].resize(dp.neighbors.size());
                for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                    const std::uint64_t rbase = st.recv_base[static_cast<std::size_t>(dir)][ni];
                    for (const amr::MessageChunk& chunk : dp.neighbors[ni].recv_chunks) {
                        recv_tasks[static_cast<std::size_t>(r)][ni].push_back(
                            dataflow(r, PhaseKind::Recv, mpi_call() + overhead(),
                                     {stream_dep(DepKind::Out, rbase, chunk.value_offset,
                                                 chunk.value_count)}));
                    }
                }
            }
            // Pass 2, per rank in TampiOssDriver::submit_exchange's order:
            // packs and a send per message, one same-rank task per
            // destination block, then the unpacks.
            for (int r = 0; r < R_; ++r) {
                RankState& st = state_[static_cast<std::size_t>(r)];
                const auto& dp = st.plan.direction(dir);
                for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                    const amr::NeighborExchange& ex = dp.neighbors[ni];
                    const std::uint64_t sbase = st.send_base[static_cast<std::size_t>(dir)][ni];
                    for (const amr::MessageChunk& chunk : ex.send_chunks) {
                        for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count;
                             ++f) {
                            const amr::FaceTransfer& face = ex.sends[static_cast<std::size_t>(f)];
                            dataflow(r, PhaseKind::Pack,
                                     copy_ns(face.value_count * gv * 8) + overhead(),
                                     {block_dep(r, DepKind::In, face.mine, group),
                                      stream_dep(DepKind::Out, sbase, face.value_offset,
                                                 face.value_count)});
                        }
                        auto send = dataflow(r, PhaseKind::Send, mpi_call() + overhead(),
                                             {stream_dep(DepKind::In, sbase, chunk.value_offset,
                                                         chunk.value_count)});
                        link_send(send, r, dir, ex.peer, chunk, recv_tasks,
                                  chunk.value_count * gv * 8);
                    }
                }
                amr::for_each_destination(
                    dp.copies, dp.boundary,
                    [&](const BlockKey& dst, std::span<const amr::IntraCopy> copies,
                        std::span<const std::pair<BlockKey, int>> boundary) {
                        std::vector<Dep> deps;
                        for (const amr::IntraCopy& c : copies) {
                            deps.push_back(block_dep(r, DepKind::In, c.src, group));
                        }
                        deps.push_back(block_dep(r, DepKind::InOut, dst, group));
                        dataflow_v(r, PhaseKind::IntraCopy,
                                   sum(same_rank_costs(copies, boundary.size(), dir, gv)) +
                                       overhead(),
                                   deps);
                    });
                for (std::size_t ni = 0; ni < dp.neighbors.size(); ++ni) {
                    const amr::NeighborExchange& ex = dp.neighbors[ni];
                    const std::uint64_t rbase = st.recv_base[static_cast<std::size_t>(dir)][ni];
                    for (const amr::MessageChunk& chunk : ex.recv_chunks) {
                        for (int f = chunk.first_face; f < chunk.first_face + chunk.face_count;
                             ++f) {
                            const amr::FaceTransfer& face = ex.recvs[static_cast<std::size_t>(f)];
                            dataflow(r, PhaseKind::Unpack,
                                     copy_ns(face.value_count * gv * 8) + overhead(),
                                     {stream_dep(DepKind::In, rbase, face.value_offset,
                                                 face.value_count),
                                      block_dep(r, DepKind::InOut, face.mine, group)});
                        }
                    }
                }
            }
        }
    }

    void stencil_stage(int group) {
        const int gv = gvars(group);
        flops_ += static_cast<std::int64_t>(structure_.num_blocks()) * cfg_.stencil *
                  cfg_.cells_interior() * gv;
        for (int r = 0; r < R_; ++r) {
            RankState& st = state_[static_cast<std::size_t>(r)];
            const auto nblocks = static_cast<std::int64_t>(st.blocks.size());
            switch (variant_) {
                case amr::Variant::MpiOnly:
                    serial(r, PhaseKind::Stencil, stencil_ns(nblocks, gv));
                    break;
                case amr::Variant::ForkJoin: {
                    std::vector<std::int64_t> items(static_cast<std::size_t>(nblocks),
                                                    stencil_ns(1, gv));
                    parallel_region(r, PhaseKind::Stencil, items);
                    break;
                }
                case amr::Variant::TampiOss:
                    for (const BlockKey& key : st.blocks) {
                        dataflow(r, PhaseKind::Stencil, stencil_ns(1, gv) + overhead(),
                                 {block_dep(r, DepKind::InOut, key, group)});
                    }
                    break;
            }
        }
    }

    void checksum_stage() {
        const int groups = cfg_.num_groups();
        if (!tasking()) {
            for (int r = 0; r < R_; ++r) {
                const auto nblocks =
                    static_cast<std::int64_t>(state_[static_cast<std::size_t>(r)].blocks.size());
                if (variant_ == amr::Variant::MpiOnly) {
                    serial(r, PhaseKind::ChecksumLocal, checksum_ns(nblocks, cfg_.num_vars));
                } else {
                    std::vector<std::int64_t> items(static_cast<std::size_t>(nblocks),
                                                    checksum_ns(1, cfg_.num_vars));
                    parallel_region(r, PhaseKind::ChecksumLocal, items);
                }
            }
            analytic_collective(groups * 8);
            return;
        }

        // TAMPI+OSS: local tasks per (block, group) + a reduce task per group.
        const int slot = cks_slot_;
        for (int r = 0; r < R_; ++r) {
            RankState& st = state_[static_cast<std::size_t>(r)];
            const std::uint64_t n = std::max<std::uint64_t>(st.blocks.size(), 1);
            for (int g = 0; g < groups; ++g) {
                const std::uint64_t row = st.cks_partials[slot] +
                                          static_cast<std::uint64_t>(g) * n * 8;
                for (std::size_t i = 0; i < st.blocks.size(); ++i) {
                    dataflow(r, PhaseKind::ChecksumLocal, checksum_ns(1, gvars(g)) + overhead(),
                             {block_dep(r, DepKind::In, st.blocks[i], g),
                              dep(DepKind::Out, row + static_cast<std::uint64_t>(i) * 8, 8)});
                }
                dataflow(r, PhaseKind::ChecksumReduce,
                         static_cast<std::int64_t>(st.blocks.size()) * 20 + overhead(),
                         {dep(DepKind::In, row, n * 8),
                          dep(DepKind::Out, st.cks_sums[slot] + static_cast<std::uint64_t>(g) * 8,
                              8)});
            }
        }

        if (cfg_.delayed_checksum) {
            // §IV-C: validate the PREVIOUS checksum stage under a
            // taskwait-with-dependencies; the collective runs on the main
            // core while the pipeline keeps flowing.
            const int prev = 1 - slot;
            if (cks_pending_[prev]) {
                const int coll = sim_.new_collective(groups * 8);
                for (int r = 0; r < R_; ++r) {
                    RankState& st = state_[static_cast<std::size_t>(r)];
                    auto member = sim_.new_task(r, PhaseKind::ChecksumReduce, mpi_call(), 0);
                    regs_[static_cast<std::size_t>(r)].register_accesses(
                        member, std::array<Dep, 1>{dep(DepKind::In, st.cks_sums[prev],
                                                       static_cast<std::uint64_t>(groups) * 8)});
                    chain(r, member);
                    sim_.set_collective(member, coll);
                    sim_.submit(member);
                }
                sim_.close_collective(coll);
                cks_pending_[prev] = false;
            }
            cks_pending_[slot] = true;
        } else {
            analytic_collective(groups * 8);
        }
        cks_slot_ = 1 - cks_slot_;
    }

    void finish_pending_checksums() {
        if (!tasking()) return;
        for (int slot = 0; slot < 2; ++slot) {
            if (cks_pending_[slot]) {
                analytic_collective(cfg_.num_groups() * 8);
                cks_pending_[slot] = false;
            }
        }
    }

    // --- refinement -------------------------------------------------------
    void refinement_phase(int steps) {
        finish_pending_checksums();
        sim_.run_until_drained();
        const std::int64_t t0 = sim_.global_time();

        for (int s = 0; s < steps; ++s) {
            for (amr::ObjectSpec& obj : cfg_.objects) obj.step();
        }

        const int rounds = cfg_.max_block_change();
        for (int round_idx = 0; round_idx < rounds; ++round_idx) {
            const amr::RefineRound round =
                structure_.plan_refine_round(cfg_.objects, cfg_.uniform_refine);
            if (round.empty()) break;

            // Refinement control (marking, bookkeeping): sequential per
            // rank — this is the hard-to-parallelize part (§IV-B), and the
            // reason hybrids (more blocks/rank) lose ground here.
            for (int r = 0; r < R_; ++r) {
                const auto nblocks =
                    static_cast<std::int64_t>(state_[static_cast<std::size_t>(r)].blocks.size());
                serial(r, PhaseKind::Control,
                       static_cast<std::int64_t>(costs_.control_ns_per_block *
                                                 static_cast<double>(nblocks)));
            }

            // Splits.
            std::vector<std::vector<const BlockKey*>> owned_splits(
                static_cast<std::size_t>(R_));
            for (const BlockKey& key : round.refine) {
                owned_splits[static_cast<std::size_t>(structure_.owner(key))].push_back(&key);
            }
            for (int r = 0; r < R_; ++r) {
                const auto& splits = owned_splits[static_cast<std::size_t>(r)];
                if (splits.empty()) continue;
                const std::int64_t per_child = copy_ns(block_bytes());
                switch (refine_variant()) {
                    case amr::Variant::MpiOnly:
                        serial(r, PhaseKind::RefineSplit,
                               static_cast<std::int64_t>(splits.size()) * 8 * per_child);
                        break;
                    case amr::Variant::ForkJoin: {
                        std::vector<std::int64_t> items(splits.size() * 8, per_child);
                        parallel_region(r, PhaseKind::RefineSplit, items);
                        break;
                    }
                    case amr::Variant::TampiOss:
                        for (std::size_t i = 0; i < splits.size() * 8; ++i) {
                            dataflow(r, PhaseKind::RefineSplit, per_child + overhead(), {});
                        }
                        break;
                }
            }

            // Coarsening: move children to the parent owner, then merge.
            std::vector<Move> moves;
            std::vector<std::vector<std::pair<const BlockKey*, int>>> merges(
                static_cast<std::size_t>(R_));  // (parent, #remote children)
            int next_id = 0;
            for (const BlockKey& parent : round.coarsen_parents) {
                const int new_owner = structure_.owner(parent.child(0, structure_.max_level()));
                int remote = 0;
                for (int octant = 1; octant < 8; ++octant) {
                    const BlockKey child = parent.child(octant, structure_.max_level());
                    const int child_owner = structure_.owner(child);
                    if (child_owner != new_owner) {
                        moves.push_back(Move{child, child_owner, new_owner, next_id});
                        ++remote;
                    }
                    ++next_id;
                }
                merges[static_cast<std::size_t>(new_owner)].emplace_back(&parent, remote);
            }
            transfer_blocks(moves, /*with_ack=*/false);
            for (int r = 0; r < R_; ++r) {
                const auto& my_merges = merges[static_cast<std::size_t>(r)];
                if (my_merges.empty()) continue;
                const std::int64_t per_merge = 8 * copy_ns(block_bytes());
                switch (refine_variant()) {
                    case amr::Variant::MpiOnly:
                        serial(r, PhaseKind::RefineMerge,
                               static_cast<std::int64_t>(my_merges.size()) * per_merge);
                        break;
                    case amr::Variant::ForkJoin: {
                        std::vector<std::int64_t> items(my_merges.size(), per_merge);
                        parallel_region(r, PhaseKind::RefineMerge, items);
                        break;
                    }
                    case amr::Variant::TampiOss:
                        for (const auto& [parent, remote] : my_merges) {
                            std::vector<Dep> deps;
                            for (int octant = 1; octant < 8; ++octant) {
                                const BlockKey child =
                                    parent->child(octant, structure_.max_level());
                                auto it = move_region_.find(child);
                                if (it != move_region_.end()) {
                                    deps.push_back(dep(DepKind::In, it->second,
                                                       static_cast<std::uint64_t>(block_bytes())));
                                }
                            }
                            dataflow_v(r, PhaseKind::RefineMerge, per_merge + overhead(), deps);
                        }
                        break;
                }
            }
            analytic_collective(8);  // 2:1 agreement round (miniAMR collective)
            structure_.apply_refine_round(round);
            refresh_block_lists();
        }

        // Load balancing.
        if (cfg_.lb_opt && structure_.imbalance() > cfg_.inbalance) {
            for (int r = 0; r < R_; ++r) {
                const auto nblocks =
                    static_cast<std::int64_t>(state_[static_cast<std::size_t>(r)].blocks.size());
                serial(r, PhaseKind::LoadBalance,
                       static_cast<std::int64_t>(costs_.rcb_ns_per_block *
                                                 static_cast<double>(nblocks)));
            }
            const auto new_owners = structure_.rcb_partition();
            std::vector<Move> moves;
            int next_id = 0;
            for (const auto& [key, owner] : structure_.leaves()) {
                const int target = new_owners.at(key);
                if (target != owner) moves.push_back(Move{key, owner, target, next_id});
                ++next_id;
            }
            transfer_blocks(moves, /*with_ack=*/true);
            structure_.set_owners(new_owners);
        }

        analytic_collective(8);
        rebuild_rank_state();
        refine_ns_ += sim_.global_time() - t0;
    }

    void transfer_blocks(const std::vector<Move>& moves, bool with_ack) {
        move_region_.clear();
        if (moves.empty()) return;
        if (with_ack) {
            // §IV-B control protocol: ACK from receiver, block id from
            // sender; sequential blocking messages on the main thread.
            std::vector<SimTaskPtr> acks, ids;
            acks.reserve(moves.size());
            for (const Move& mv : moves) {
                acks.push_back(serial(mv.to, PhaseKind::Control, mpi_call()));
            }
            ids.reserve(moves.size());
            for (std::size_t i = 0; i < moves.size(); ++i) {
                const Move& mv = moves[i];
                // Blocking ACK receive: chained AND message-gated.
                auto ack_recv = sim_.new_task(mv.from, PhaseKind::Control, mpi_call(),
                                              W_ > 1 ? 0 : -1);
                chain(mv.from, ack_recv);
                sim_.submit(ack_recv);
                sim_.add_message(acks[i], ack_recv, 4);
                ids.push_back(serial(mv.from, PhaseKind::Control, mpi_call()));
            }
            for (std::size_t i = 0; i < moves.size(); ++i) {
                const Move& mv = moves[i];
                auto id_recv = sim_.new_task(mv.to, PhaseKind::Control, mpi_call(),
                                             W_ > 1 ? 0 : -1);
                chain(mv.to, id_recv);
                sim_.submit(id_recv);
                sim_.add_message(ids[i], id_recv, 4);
            }
        }
        // Payload transfers.
        const std::int64_t bytes = block_bytes();
        for (const Move& mv : moves) {
            SimTaskPtr send, recv;
            if (refine_tasking()) {
                send = dataflow(mv.from, PhaseKind::RefineExchange, mpi_call() + overhead(), {});
                const std::uint64_t region = alloc_region(
                    state_[static_cast<std::size_t>(mv.to)], static_cast<std::uint64_t>(bytes));
                move_region_[mv.key] = region;
                recv = dataflow(mv.to, PhaseKind::RefineExchange, mpi_call() + overhead(),
                                {dep(DepKind::Out, region, static_cast<std::uint64_t>(bytes))});
            } else {
                send = serial(mv.from, PhaseKind::RefineExchange, mpi_call());
                recv = sim_.new_task(mv.to, PhaseKind::RefineExchange, mpi_call(),
                                     W_ > 1 ? 0 : -1);
                chain(mv.to, recv);  // blocking receive in program order
                sim_.submit(recv);
            }
            sim_.add_message(send, recv, bytes);
        }
    }

    amr::Config cfg_;
    amr::Variant variant_;
    ClusterSpec cluster_;
    CostModel costs_;
    Simulator sim_;
    amr::GlobalStructure structure_;
    amr::BlockShape shape_;
    int R_ = 0, W_ = 1;
    double mem_factor_ = 1.0;

    std::vector<RankState> state_;
    std::vector<tasking::DependencyRegistry> regs_;
    std::map<BlockKey, std::uint64_t> move_region_;
    bool cks_pending_[2] = {false, false};
    int cks_slot_ = 0;
    std::int64_t refine_ns_ = 0;
    std::int64_t flops_ = 0;
};

}  // namespace

SimResult run_simulated(const amr::Config& app, amr::Variant variant, const ClusterSpec& cluster,
                        const CostModel& costs, amr::Tracer* tracer) {
    SimRun run(app, variant, cluster, costs, tracer);
    return run.execute();
}

}  // namespace dfamr::sim
