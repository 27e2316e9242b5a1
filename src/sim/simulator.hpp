// Discrete-event simulator of a cluster executing task graphs — the
// substitute for the paper's 256-node MareNostrum4 testbed.
//
// Model:
//  * The cluster has `nodes × cores_per_node` cores; ranks are pinned to
//    `cores_per_rank` consecutive cores (one core per rank for MPI-only).
//  * A task occupies one core of its rank for its cost. Tasks become ready
//    when every predecessor released its dependencies AND every expected
//    message arrived. A task with `detached_completion` (a TAMPI-bound
//    communication task) frees its core after its body cost but releases
//    its dependencies only when its messages arrive — exactly the external
//    event mechanism of the real library.
//  * Messages leave through the sender node's NIC (serialized egress at the
//    configured bandwidth) and arrive after the network latency. Intra-node
//    messages bypass the NIC.
//  * Collectives hold each member's core from the member's start until the
//    whole group completes (blocking semantics), with a binomial-tree cost.
//  * Scheduling within a rank is FIFO-with-immediate-successor: a finishing
//    task's first ready successor starts on the same core (the OmpSs-2
//    locality policy); others queue.
//
// Determinism: events at equal times are processed in creation order.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "amr/trace.hpp"
#include "sim/cost_model.hpp"
#include "tasking/dependency.hpp"

namespace dfamr::sim {

using amr::PhaseKind;
using tasking::Dep;
using tasking::DepNode;

struct ClusterSpec {
    int nodes = 1;
    int cores_per_node = 48;   // MareNostrum4: 2 x 24
    int ranks_per_node = 48;   // 48 for MPI-only, 4/2 for hybrids (Table I)
    int cores_per_socket = 24;  // two NUMA domains per node

    int total_ranks() const { return nodes * ranks_per_node; }
    int cores_per_rank() const { return cores_per_node / ranks_per_node; }
    /// A rank spanning both sockets pays the NUMA penalty on memory-bound
    /// kernels (the Table I "1 rank/node is worst" effect).
    bool rank_spans_sockets() const { return cores_per_rank() > cores_per_socket; }
};

class Simulator;

/// A simulated task. Create via Simulator::new_task, then (optionally)
/// register region dependencies through a tasking::DependencyRegistry, add
/// message/collective bindings, and finally Simulator::submit it.
struct SimTask final : DepNode {
    int rank = 0;
    PhaseKind kind = PhaseKind::Control;
    std::int64_t cost_ns = 0;
    int pinned_core = -1;  // core index within the rank; -1 = any

    /// Messages this task emits on body completion: (target, bytes).
    std::vector<std::pair<SimTask*, std::int64_t>> out_messages;
    /// Messages that must arrive before dependency release. A task with
    /// expected messages frees its core after cost_ns but releases its
    /// dependencies only on the last arrival — TAMPI's external events.
    int pending_messages = 0;

    int collective_id = -1;  // >= 0: member of that collective group

    // Simulation outputs.
    std::int64_t start_ns = -1;
    std::int64_t finish_ns = -1;  // dependency release time

    // Internal state.
    std::int64_t ready_ns = 0;
    bool submitted = false;
    bool body_done = false;
    bool released = false;
};

using SimTaskPtr = std::shared_ptr<SimTask>;

struct SimStats {
    std::uint64_t tasks = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t collectives = 0;
    std::map<PhaseKind, std::int64_t> busy_ns_by_kind;
    std::int64_t busy_ns = 0;
    /// TAMPI+OSS: the data-flow tasks and the edges their regions wire.
    std::uint64_t dataflow_tasks = 0;
    std::uint64_t edges = 0;
};

class Simulator {
public:
    Simulator(const ClusterSpec& cluster, const CostModel& costs);

    const ClusterSpec& cluster() const { return cluster_; }
    const CostModel& costs() const { return costs_; }

    // --- DAG construction --------------------------------------------------
    SimTaskPtr new_task(int rank, PhaseKind kind, std::int64_t cost_ns, int pinned_core = -1);
    /// Declares that `send`'s completion delivers `bytes` to `recv` (which
    /// gains a pending message). Either may already be submitted, but `send`
    /// must not have run; submit() keeps both alive until they release.
    void add_message(const SimTaskPtr& send, const SimTaskPtr& recv, std::int64_t bytes);
    /// Creates a collective group; member tasks join via set_collective.
    /// After every member is declared, arm it with close_collective —
    /// completion cannot trigger while the group is still being built.
    int new_collective(std::int64_t bytes_per_rank);
    void set_collective(const SimTaskPtr& task, int collective_id);
    void close_collective(int collective_id);
    /// Hands the task to the scheduler (all deps/messages declared).
    void submit(const SimTaskPtr& task);

    // --- execution ------------------------------------------------------------
    /// Processes events until no runnable work remains. Throws if tasks are
    /// stuck (circular or missing producers).
    void run_until_drained();
    /// Time at which a rank's work so far finished (its cores' last busy).
    std::int64_t rank_time(int rank) const;
    /// max over ranks.
    std::int64_t global_time() const;
    /// Advances every rank to at least `t` (used for analytic collectives
    /// between build segments).
    void advance_all_ranks_to(std::int64_t t);

    const SimStats& stats() const { return stats_; }

    /// Optional tracer: records (rank, core-in-rank, start, end, kind).
    void set_tracer(amr::Tracer* tracer) { tracer_ = tracer; }

private:
    struct Core {
        std::int64_t free_at = 0;
        bool busy = false;
    };
    struct Collective {
        std::int64_t bytes = 0;
        int arrived = 0;
        int expected = 0;
        bool closed = false;
        std::int64_t max_arrival = 0;
        std::vector<SimTask*> members;  // members that started (cores held)
    };
    void maybe_complete_collective(int collective_id);
    struct Event {
        std::int64_t time;
        std::uint64_t seq;
        enum Type { BodyDone, MessageArrival, CollectiveDone } type;
        SimTask* task = nullptr;   // BodyDone / MessageArrival target
        int collective_id = -1;
        bool operator>(const Event& other) const {
            if (time != other.time) return time > other.time;
            return seq > other.seq;
        }
    };

    int first_core_of(int rank) const;
    int node_of(int rank) const;
    void make_ready(SimTask* task, std::int64_t at_time);
    /// Tries to start queued ready tasks of `rank` on idle cores.
    void dispatch(int rank, std::int64_t now);
    void start_task(SimTask* task, int core_global, std::int64_t now);
    void finish_body(SimTask* task, std::int64_t now);
    void release_task(SimTask* task, std::int64_t now);

    ClusterSpec cluster_;
    CostModel costs_;
    amr::Tracer* tracer_ = nullptr;

    std::vector<Core> cores_;
    std::vector<std::int64_t> nic_free_;         // per node egress availability
    std::vector<std::deque<SimTask*>> ready_;    // per rank (ready, not started)
    std::vector<std::int64_t> rank_resume_;      // per rank baseline time
    std::map<std::uint64_t, int> running_core_;  // task node_id -> global core
    std::vector<Collective> collectives_;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t next_node_id_ = 1;
    std::size_t live_tasks_ = 0;

    // Keeps every submitted task alive until released (successor edges use
    // raw pointers). Compacted with a high-water-mark strategy so the scan
    // cost stays amortized O(1) per task.
    std::vector<SimTaskPtr> retained_;
    std::size_t retained_high_water_ = 1 << 16;

    SimStats stats_;
};

}  // namespace dfamr::sim
