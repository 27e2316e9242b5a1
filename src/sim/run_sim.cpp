#include "sim/run_sim.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "amr/comm_plan.hpp"
#include "amr/program.hpp"
#include "amr/structure.hpp"
#include "amr/task_graph.hpp"
#include "common/error.hpp"
#include "scenario/refinement_condition.hpp"

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
// SimRun: the drivers' program (amr/program.hpp) run over every rank in
// lockstep, building DAGs instead of executing kernels. Every variant
// consumes the drivers' own graph (amr/task_graph.hpp): the data-flow
// variant as tasks with dependencies, the bulk-synchronous ones through the
// graph's loop rule, as SyncDriver does. This backend prices the program's
// steps: its main-core work, messages and collectives.
// ---------------------------------------------------------------------------

namespace {

namespace graph = amr::graph;

class SimRun : public amr::Program<SimRun> {
public:
    SimRun(const amr::Config& app, amr::Variant variant, const ClusterSpec& cluster,
           const CostModel& costs, amr::Tracer* tracer)
        : cfg_(app),
          variant_(variant),
          costs_(costs),
          sim_(cluster, costs),
          structure_(app),
          shape_{app.nx, app.ny, app.nz, app.num_vars} {
        cfg_.validate();
        DFAMR_REQUIRE(cfg_.num_ranks() == cluster.total_ranks(),
                      "config rank grid must match the cluster's total ranks");
        // The DES prices the synthetic stencil refined around the objects;
        // any other run would be reported as that one.
        if (cfg_.scenario != "synthetic") {
            throw ConfigError("the DES models the synthetic workload only, not scenario '" +
                              cfg_.scenario + "'");
        }
        if (cfg_.estimator != "objects") {
            throw ConfigError("the DES refines around the objects only, not by estimator '" +
                              cfg_.estimator + "'");
        }
        condition_ = scenario::find_condition(cfg_.estimator);
        R_ = cluster.total_ranks();
        W_ = cluster.cores_per_rank();
        mem_factor_ = cluster.rank_spans_sockets() ? costs.numa_penalty : 1.0;
        sim_.set_tracer(tracer);
        state_.resize(static_cast<std::size_t>(R_));
        rebuild_rank_state();
    }

    SimResult execute() {
        run_program(1, /*refine_first=*/true);
        SimResult result;
        result.total_s = static_cast<double>(sim_.global_time()) * 1e-9;
        result.refine_s = static_cast<double>(refine_ns_) * 1e-9;
        result.total_flops = flops_;
        result.final_blocks = static_cast<std::int64_t>(structure_.num_blocks());
        result.counters = counters_;
        result.stats = sim_.stats();
        result.stats.dataflow_tasks = dataflow_tasks_;
        result.stats.edges = edges_;
        return result;
    }

private:
    friend class amr::Program<SimRun>;

    struct RankState {
        std::vector<BlockKey> blocks;
        CommPlan plan;
        SimTaskPtr tail;  // program-order / main-thread chain
    };

    /// One rank's sink for amr/task_graph.hpp and its backend of the
    /// program's per-rank steps. For TAMPI+OSS each access becomes a
    /// synthetic region with the offset and size TampiOssDriver's span has
    /// in its object, each task gets the cost model's price and each send
    /// its receive. For the bulk-synchronous variants (and TAMPI+OSS's
    /// --serial_refinement) the tasks go through `loops`, the graph's loop
    /// rule, and this is its backend: a loop is a task on the main core, or
    /// a parallel region for fork-join, priced by the same cost function.
    struct Sink {
        Sink(SimRun& run_, int rank_)
            : run(run_),
              rank(rank_),
              streams(run.state_[static_cast<std::size_t>(rank)].plan, run.cfg_.vars_per_group(),
                      run.cfg_.separate_buffers) {}
        void submit(const graph::Task& task) {
            const graph::Payload& p = task.payload;
            const graph::Op op = task.kind.op;
            // A block a task fills is a new object, as the driver takes it
            // from the arena.
            if (op == graph::Op::Split) {
                objects[{graph::Object::Vars, p.key.child(p.octant, run.structure_.max_level()),
                         0}] = ++count << 32;
            } else if (op == graph::Op::Merge || op == graph::Op::BlockRecv) {
                objects[{graph::Object::Vars, p.key, 0}] = ++count << 32;
            }
            // Plus the runtime's cost per task on a worker's critical path (see
            // CostModel::tasking_overhead_ns).
            auto t = run.sim_.new_task(
                rank, task.kind.phase,
                run.cost(task) + static_cast<std::int64_t>(run.costs_.tasking_overhead_ns));
            edge(gate, t);
            register_accesses(t, task.accesses);
            run.sim_.submit(t);
            unjoined.push_back(t);
            const bool send = op == graph::Op::Send || op == graph::Op::BlockSend;
            if (send || op == graph::Op::Recv || op == graph::Op::BlockRecv) {
                const auto bytes = static_cast<std::int64_t>(dep(task.accesses[0]).region.size);
                run.match(send ? rank : p.peer, send ? p.peer : rank, p.tag, t, send, bytes);
            }
        }
        /// A main-core member of the collective validating the previous sums.
        void wait(const graph::Access& access, int) {
            Simulator& sim = run.sim_;
            if (run.wait_collective_ < 0) {
                run.wait_collective_ = sim.new_collective(run.cfg_.num_groups() * 8);
            }
            auto member = sim.new_task(rank, PhaseKind::ChecksumReduce, run.mpi_call(), 0);
            register_accesses(member, std::span(&access, 1));
            run.chain(rank, member);
            sim.set_collective(member, run.wait_collective_);
            sim.submit(member);
        }
        /// The caller drains every rank at once.
        void drain(int) {}
        /// The rank's main core waits for every task submitted since the
        /// last join or drain, and the tasks submitted after it wait for
        /// the main core. A transfer join's wait joins the barrier's
        /// collective. Neither adds a data-flow task or a data-flow edge.
        void join(graph::Join kind) {
            Simulator& sim = run.sim_;
            auto main_core = sim.new_task(rank, PhaseKind::Control, 0, run.main_core());
            for (const SimTaskPtr& t : unjoined) edge(t, main_core);
            run.chain(rank, main_core);
            if (kind == graph::Join::Transfers) {
                sim.set_collective(main_core, run.transfer_barrier_);
            }
            sim.submit(main_core);
            unjoined.clear();
            gate = std::move(main_core);
        }
        /// Each object gets its own 4 GiB of addresses when first named.
        std::uint64_t base(graph::Object object, const BlockKey& key, int index) {
            auto [it, added] = objects.try_emplace({object, key, index});
            if (added) it->second = ++count << 32;
            return it->second;
        }
        Dep dep(const graph::Access& access) {
            const graph::Target& t = access.target;
            // Bytes per variable of a block, or per value of a stream or slot.
            const auto unit = t.object == graph::Object::Vars ? run.shape_.stride_var() * 8 : 8;
            const auto first = static_cast<std::uint64_t>(t.first * unit);
            return Dep{static_cast<DepKind>(access.mode),
                       Region::synthetic(base(t.object, t.key, t.index) + first,
                                         static_cast<std::size_t>(t.count * unit))};
        }
        void register_accesses(const SimTaskPtr& task, std::span<const graph::Access> accesses) {
            std::vector<Dep> deps;
            for (const graph::Access& a : accesses) deps.push_back(dep(a));
            run.edges_ += static_cast<std::uint64_t>(registry.register_accesses(task, deps));
            ++run.dataflow_tasks_;
        }

        // ---- the loop rule's backend ---------------------------------------
        struct Item {
            PhaseKind phase;
            std::int64_t cost;
        };
        Item item(const graph::Task& task) const { return {task.kind.phase, run.cost(task)}; }
        void loop(std::span<Item> items) {
            if (run.variant_ == amr::Variant::ForkJoin) {
                run.parallel_region(rank, items.front().phase, items);
                return;
            }
            std::int64_t cost = 0;
            for (const Item& it : items) cost += it.cost;
            run.serial(rank, items.front().phase, cost);
        }
        /// Posts the receive on the main core; its arrival is a task of its own.
        void post(const graph::Task& task) {
            run.serial(rank, PhaseKind::Recv, run.mpi_call());
            arrivals.push_back(run.sim_.new_task(rank, PhaseKind::Recv, 0));
            run.sim_.submit(arrivals.back());
            run.match(task.payload.peer, rank, task.payload.tag, arrivals.back(), false,
                      task.accesses[0].target.count * 8);
        }
        template <class RunPacks>
        void send(const graph::Task& task, const RunPacks& run_packs) {
            run_packs();
            run.blocking(rank, task.payload.peer, task.payload.tag, true, PhaseKind::Send,
                         task.accesses[0].target.count * 8);
        }
        /// Plan order stands in for arrival order: the main core waits for
        /// each message in turn.
        int wait_any() {
            if (waited == arrivals.size()) return -1;
            auto wait = run.sim_.new_task(rank, PhaseKind::CommWait, 0, run.main_core());
            edge(arrivals[waited], wait);
            run.chain(rank, wait);
            run.sim_.submit(wait);
            return static_cast<int>(waited++);
        }
        void end_exchange() {
            arrivals.clear();
            waited = 0;
        }
        void validate(int) {}  // the caller drains every rank at once

        // ---- the program's per-rank steps ------------------------------------
        /// Splits: the data-flow model's waves, the loops' one wave.
        void do_splits(const std::vector<BlockKey>& parents) {
            const bool tasks = run.refine_tasking();
            const auto wave = tasks ? std::size_t{graph::kSplitWaveParentsPerCore} * run.W_
                                    : parents.size();
            run.emit(rank, tasks, [&](auto& sink) {
                graph::emit_splits(sink, parents, run.structure_.max_level(),
                                   run.cfg_.num_vars, wave);
            });
        }
        void do_merges(const std::vector<BlockKey>& parents) {
            run.emit(rank, run.refine_tasking(), [&](auto& sink) {
                graph::emit_merges(sink, parents, run.structure_.max_level(), run.cfg_.num_vars);
            });
        }
        void send_control(int peer, int tag, int) {
            run.blocking(rank, peer, tag, true, PhaseKind::Control, sizeof(int));
        }
        void recv_control(int peer, int tag, int) {
            run.blocking(rank, peer, tag, false, PhaseKind::Control, sizeof(int));
        }
        void send_block(const amr::BlockMove& mv) {
            run.blocking(rank, mv.to, amr::kBlockDataTagBase + mv.id, true,
                         PhaseKind::RefineExchange, run.block_bytes());
        }
        void recv_block(const amr::BlockMove& mv) {
            run.blocking(rank, mv.from, amr::kBlockDataTagBase + mv.id, false,
                         PhaseKind::RefineExchange, run.block_bytes());
        }

        SimRun& run;
        int rank;
        tasking::DependencyRegistry registry;
        amr::StreamLayout streams;
        std::map<std::tuple<graph::Object, BlockKey, int>, std::uint64_t> objects;
        std::uint64_t count = 0;
        std::vector<SimTaskPtr> unjoined;  // submitted since the last join or drain
        SimTaskPtr gate;                   // the last join
        graph::LoopRule<Sink> loops{*this};
        std::vector<SimTaskPtr> arrivals;  // the exchange's receives, in posting order
        std::size_t waited = 0;
    };

    // --- small helpers -----------------------------------------------------
    bool tasking() const { return variant_ == amr::Variant::TampiOss; }
    /// Taskified refinement data operations (the --serial_refinement
    /// ablation keeps them sequential, like MPI-only).
    bool refine_tasking() const { return tasking() && cfg_.taskify_refinement; }

    std::int64_t copy_ns(std::int64_t bytes) const {
        return static_cast<std::int64_t>(costs_.copy_ns_per_byte * static_cast<double>(bytes) *
                                         mem_factor_);
    }
    std::int64_t mpi_call() const { return static_cast<std::int64_t>(costs_.mpi_call_ns); }
    std::int64_t block_bytes() const { return shape_.total_cells() * 8; }
    std::int64_t face_bytes(int axis, FaceRel rel, int vars) const {
        return (rel == FaceRel::Same ? shape_.face_values_same(axis, vars)
                                     : shape_.face_values_mixed(axis, vars)) *
               8;
    }
    /// What a task of the graph costs on one core, in every variant: its
    /// kernel, or posting its message. The data-flow sink adds the runtime's
    /// cost per task.
    std::int64_t cost(const graph::Task& task) const {
        const graph::Payload& p = task.payload;
        const int vars = p.var_end - p.var_begin;
        const auto per_cell_var = [&](double ns) {
            return ns * static_cast<double>(cfg_.cells_interior()) * vars * mem_factor_;
        };
        switch (task.kind.op) {
            case graph::Op::Recv:
            case graph::Op::Send:
            case graph::Op::BlockSend:
            case graph::Op::BlockRecv: return mpi_call();
            case graph::Op::Pack:
            case graph::Op::Unpack: return copy_ns(p.face->value_count * vars * 8);
            case graph::Op::Copy: {
                // A boundary reflection copies a same-level face.
                std::int64_t ns = static_cast<std::int64_t>(p.boundary.size()) *
                                  copy_ns(face_bytes(p.dir, FaceRel::Same, vars));
                for (const amr::IntraCopy& c : p.copies) {
                    ns += copy_ns(face_bytes(p.dir, c.geom.rel, vars));
                }
                return ns;
            }
            case graph::Op::Stencil: {
                double ns = per_cell_var(costs_.stencil_ns_per_cell_var);
                if (cfg_.stencil == 27) ns *= 27.0 / 7.0;  // flop-proportional
                if (tasking()) ns /= costs_.locality_speedup;
                return static_cast<std::int64_t>(ns);
            }
            case graph::Op::ChecksumLocal:
                return static_cast<std::int64_t>(per_cell_var(costs_.checksum_ns_per_cell_var));
            case graph::Op::ChecksumReduce: return task.accesses[0].target.count * 20;
            case graph::Op::Split: return copy_ns(block_bytes());
            case graph::Op::Merge: return 8 * copy_ns(block_bytes());
            default: throw Error("the DES does not model the reflux");
        }
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
    /// The rank's main core, where a rank with one core runs everything.
    int main_core() const { return W_ > 1 ? 0 : -1; }
    /// Serial (program-order) task on the rank's main core.
    SimTaskPtr serial(int rank, PhaseKind kind, std::int64_t cost) {
        auto t = sim_.new_task(rank, kind, cost, main_core());
        chain(rank, t);
        sim_.submit(t);
        return t;
    }
    /// Fork-join parallel region: static chunks pinned to cores + barrier.
    void parallel_region(int rank, PhaseKind kind, std::span<const Sink::Item> items) {
        RankState& st = state_[static_cast<std::size_t>(rank)];
        const SimTaskPtr start_tail = st.tail;
        std::vector<SimTaskPtr> chunks;
        const std::size_t n = items.size();
        for (int w = 0; w < W_; ++w) {
            const std::size_t lo = n * static_cast<std::size_t>(w) / static_cast<std::size_t>(W_);
            const std::size_t hi =
                n * static_cast<std::size_t>(w + 1) / static_cast<std::size_t>(W_);
            if (hi <= lo) continue;
            std::int64_t cost = 0;
            for (std::size_t i = lo; i < hi; ++i) cost += items[i].cost;
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

    /// A blocking call on `rank`'s main core whose message to or from
    /// `peer` is matched as MPI matches it.
    void blocking(int rank, int peer, int tag, bool send, PhaseKind kind, std::int64_t bytes) {
        auto t = serial(rank, kind, mpi_call());
        match(send ? rank : peer, send ? peer : rank, tag, t, send, bytes);
    }

    /// Drains all outstanding work, then applies a blocking collective
    /// across every rank (used at the global sync points).
    void analytic_collective(std::int64_t bytes) {
        quiesce();
        std::int64_t tmax = 0;
        for (int r = 0; r < R_; ++r) tmax = std::max(tmax, sim_.rank_time(r));
        sim_.advance_all_ranks_to(tmax + costs_.collective_ns(R_, bytes));
    }

    /// Runs every task; after that no join waits for one.
    void quiesce() {
        sim_.run_until_drained();
        for (Sink& sink : sinks_) {
            sink.registry.garbage_collect();
            sink.unjoined.clear();
            sink.gate = nullptr;
        }
    }

    /// Declares a message when the later of its two ends is built: ends
    /// meet by (source, destination, tag) in posting order, as MPI matches
    /// them. Nothing runs before the next drain, so either may come first.
    void match(int from, int to, int tag, const SimTaskPtr& task, bool is_send,
               std::int64_t bytes) {
        const auto it = unmatched_.try_emplace({from, to, tag}).first;
        auto& waiting = it->second;
        if (waiting.empty() || waiting.front().second == is_send) {
            waiting.emplace_back(task, is_send);
            return;
        }
        const SimTaskPtr& other = waiting.front().first;
        sim_.add_message(is_send ? task : other, is_send ? other : task, bytes);
        waiting.pop_front();
        if (waiting.empty()) unmatched_.erase(it);
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
        const amr::CommPlanOptions opts{cfg_.send_faces, cfg_.max_comm_tasks};
        for (int r = 0; r < R_; ++r) {
            RankState& st = state_[static_cast<std::size_t>(r)];
            st.plan = CommPlan(structure_, shape_, r, opts,
                               std::span<const BlockKey>(st.blocks));
            st.tail = nullptr;
        }
        // Every task has drained: fresh sinks with fresh registries.
        sinks_.clear();
        for (int r = 0; r < R_; ++r) sinks_.emplace_back(*this, r);
        cks_pending_[0] = cks_pending_[1] = false;
        cks_slot_ = 0;
    }

    // --- stages ---------------------------------------------------------------
    /// Hands rank `rank`'s sink to `emit`: the data-flow graph's, or the
    /// loop rule's, which then runs what is pending.
    template <class Emit>
    void emit(int rank, bool dataflow, const Emit& emit) {
        Sink& sink = sinks_[static_cast<std::size_t>(rank)];
        if (dataflow) {
            emit(sink);
        } else {
            emit(sink.loops);
            sink.loops.end_exchange();
        }
    }

    void communicate_stage(int group) {
        for (int dir = 0; dir < 3; ++dir) {
            for (int r = 0; r < R_; ++r) {
                const amr::DirectionPlan& dp =
                    state_[static_cast<std::size_t>(r)].plan.direction(dir);
                emit(r, tasking(), [&](auto& sink) {
                    graph::emit_exchange(sink, dp, false, dir, dp.boundary,
                                         sinks_[static_cast<std::size_t>(r)].streams,
                                         cfg_.group_begin(group), cfg_.group_end(group));
                });
            }
        }
    }

    void stencil_stage(int group) {
        flops_ += static_cast<std::int64_t>(structure_.num_blocks()) * cfg_.stencil *
                  cfg_.cells_interior() * (cfg_.group_end(group) - cfg_.group_begin(group));
        for (int r = 0; r < R_; ++r) {
            emit(r, tasking(), [&](auto& sink) {
                graph::emit_stencil(sink, state_[static_cast<std::size_t>(r)].blocks,
                                    cfg_.group_begin(group), cfg_.group_end(group), false);
            });
        }
    }

    void checksum_stage() {
        const int slot = cks_slot_;
        const bool delayed = tasking() && cfg_.delayed_checksum;
        for (int r = 0; r < R_; ++r) {
            emit(r, tasking(), [&](auto& sink) {
                graph::emit_checksum(sink, cfg_, state_[static_cast<std::size_t>(r)].blocks, slot,
                                     cks_pending_[1 - slot], delayed);
            });
        }
        if (wait_collective_ >= 0) {
            // §IV-C: the previous stage's sums are validated by a collective
            // on the main cores while the pipeline keeps flowing.
            sim_.close_collective(wait_collective_);
            wait_collective_ = -1;
            cks_pending_[1 - slot] = false;
        }
        if (delayed) {
            cks_pending_[slot] = true;
        } else {
            analytic_collective(cfg_.num_groups() * 8);
        }
        cks_slot_ = 1 - slot;
    }

    /// The pending checksum stages' collectives, then every task.
    void drain_checksums() {
        for (int slot = 0; slot < 2; ++slot) {
            if (cks_pending_[slot]) {
                analytic_collective(cfg_.num_groups() * 8);
                cks_pending_[slot] = false;
            }
        }
        quiesce();
    }

    // --- the program's refinement steps --------------------------------------
    amr::GlobalStructure& structure() { return structure_; }
    amr::RunCounters& counters() { return counters_; }
    static bool runs(int) { return true; }
    Sink& rank(int r) { return sinks_[static_cast<std::size_t>(r)]; }

    void begin_refinement() {
        drain_checksums();
        refine_t0_ = sim_.global_time();
    }
    void end_refinement() {
        analytic_collective(8);
        rebuild_rank_state();
        refine_ns_ += sim_.global_time() - refine_t0_;
    }
    /// The drivers' condition, on boxes: the DES refines around the objects.
    std::vector<double> leaf_scores() const {
        const scenario::ScoreContext ctx{&cfg_.objects, cfg_.uniform_refine};
        std::vector<double> scores;
        for (const auto& [key, owner] : structure_.leaves()) {
            scores.push_back(condition_->score(nullptr, structure_.box(key), ctx));
        }
        return scores;
    }
    void structure_changed() { refresh_block_lists(); }
    /// Refinement control (marking, bookkeeping) and the partitioner run
    /// sequentially per rank: the hard-to-parallelize part (§IV-B), and the
    /// reason hybrids (more blocks per rank) lose ground here. The 2:1
    /// agreement is a miniAMR collective.
    void charge(amr::Charge step) {
        if (step == amr::Charge::Agreement) {
            analytic_collective(8);
            return;
        }
        const bool partition = step == amr::Charge::Partition;
        const double per_block = partition ? costs_.rcb_ns_per_block : costs_.control_ns_per_block;
        for (int r = 0; r < R_; ++r) {
            const auto nblocks = state_[static_cast<std::size_t>(r)].blocks.size();
            serial(r, partition ? PhaseKind::LoadBalance : PhaseKind::Control,
                   static_cast<std::int64_t>(per_block * static_cast<double>(nblocks)));
        }
    }
    /// Taskified refinement sends and receives blocks as tasks, whose
    /// transfer joins meet at one barrier.
    bool transfer_tasks(const std::vector<amr::BlockMove>& moves) {
        if (!refine_tasking()) return false;
        if (moves.empty()) return true;
        transfer_barrier_ = sim_.new_collective(0);
        for (Sink& sink : sinks_) {
            graph::emit_block_transfers(sink, moves, sink.rank, cfg_.num_vars);
        }
        sim_.close_collective(transfer_barrier_);
        return true;
    }

    amr::Config cfg_;
    amr::Variant variant_;
    CostModel costs_;
    Simulator sim_;
    amr::GlobalStructure structure_;
    amr::BlockShape shape_;
    int R_ = 0, W_ = 1;
    double mem_factor_ = 1.0;

    std::vector<RankState> state_;
    std::deque<Sink> sinks_;  // one per rank; a deque never moves them
    std::map<std::array<int, 3>, std::deque<std::pair<SimTaskPtr, bool>>> unmatched_;  // is_send
    int wait_collective_ = -1;  // the delayed checksum's collective being built
    int transfer_barrier_ = -1;  // the collective of the exchange being built
    bool cks_pending_[2] = {false, false};
    int cks_slot_ = 0;
    const scenario::RefinementCondition* condition_ = nullptr;
    amr::RunCounters counters_;
    std::int64_t refine_t0_ = 0;  // the refinement phase in progress began
    std::int64_t refine_ns_ = 0;
    std::int64_t flops_ = 0;
    std::uint64_t dataflow_tasks_ = 0;
    std::uint64_t edges_ = 0;
};

}  // namespace

SimResult run_simulated(const amr::Config& app, amr::Variant variant, const ClusterSpec& cluster,
                        const CostModel& costs, amr::Tracer* tracer) {
    SimRun run(app, variant, cluster, costs, tracer);
    return run.execute();
}

}  // namespace dfamr::sim
