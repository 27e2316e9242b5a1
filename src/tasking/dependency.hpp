// Data-flow dependency model (OmpSs-2-style region dependencies).
//
// A dependency is an access kind (in / out / inout) on a byte region.
// Multidependencies are expressed by passing several Dep entries for one
// task — exactly how the paper expresses a send task that reads every
// packed section of its aggregated message buffer.
//
// The DependencyRegistry computes predecessor/successor edges between
// generic DepNodes, so the same semantics drive both the real tasking
// runtime (tasking::Runtime) and the discrete-event simulator's run
// (sim::SimRun). This guarantees the simulated task graphs have the
// dependency structure the real runtime would enforce.
//
// Concurrency model (new with the work-stealing scheduler): the registry is
// sharded by address granule so submissions and releases touching different
// blocks proceed on different locks. Registration locks only the shards a
// task's regions map to (in ascending shard order — deadlock-free);
// dependency release takes no shard lock at all, only the releasing node's
// own spinlock. Single-threaded callers (the DES DAG builder, unit tests)
// pay one uncontended lock per touched shard.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/lockdep.hpp"
#include "tasking/inline_vec.hpp"

namespace dfamr::tasking {

/// A byte range [base, base+size) used as a dependency region.
///
/// Empty regions (size == 0) are well-defined and inert: they overlap
/// nothing — not even an empty region at the same base — and registering
/// one imposes no ordering and creates no interval bookkeeping. A task
/// whose deps list is empty (or contains only empty regions) is therefore
/// immediately ready and unordered with respect to every other task.
/// DepLint checks against the same model: empty regions never conflict.
struct Region {
    std::uintptr_t base = 0;
    std::size_t size = 0;

    Region() = default;
    Region(const void* p, std::size_t n) : base(reinterpret_cast<std::uintptr_t>(p)), size(n) {}
    /// Synthetic region from an abstract id space (DES mode has no real buffers).
    static Region synthetic(std::uint64_t id, std::size_t size = 1) {
        Region r;
        r.base = id;
        r.size = size;
        return r;
    }

    std::uintptr_t end() const { return base + size; }
    bool empty() const { return size == 0; }
    bool overlaps(const Region& o) const { return base < o.end() && o.base < end(); }
};

enum class DepKind : std::uint8_t { In, Out, InOut };

struct Dep {
    DepKind kind = DepKind::In;
    Region region;
};

inline Dep in(const void* p, std::size_t n) { return {DepKind::In, Region(p, n)}; }
inline Dep out(const void* p, std::size_t n) { return {DepKind::Out, Region(p, n)}; }
inline Dep inout(const void* p, std::size_t n) { return {DepKind::InOut, Region(p, n)}; }

template <typename T>
Dep in(std::span<const T> s) {
    return in(s.data(), s.size_bytes());
}
template <typename T>
Dep out(std::span<T> s) {
    return out(s.data(), s.size_bytes());
}
template <typename T>
Dep inout(std::span<T> s) {
    return inout(s.data(), s.size_bytes());
}

inline Dep in_id(std::uint64_t id) { return {DepKind::In, Region::synthetic(id)}; }
inline Dep out_id(std::uint64_t id) { return {DepKind::Out, Region::synthetic(id)}; }
inline Dep inout_id(std::uint64_t id) { return {DepKind::InOut, Region::synthetic(id)}; }

/// Node in a dependency graph. tasking::Task and sim::SimTask derive from it.
///
/// Thread-safety: `pred_count` and `dep_released` are atomics so releases
/// racing with registrations stay well-defined; `successors` and
/// `last_edge_marker` are guarded by the per-node `node_lock` spinlock.
/// Lock order: shard mutexes (ascending) may be held when taking a node
/// lock; never the reverse, and never two node locks at once.
/// Single-threaded users (the DES simulator, unit tests) can read and write
/// the atomic fields with plain assignment/comparison syntax as before.
struct DepNode {
    /// Successors kept inside the node; 93% of the data-flow driver's
    /// successor lists on `cylinder_reflux` hold at most 4.
    static constexpr std::uint32_t kInlineSuccessors = 4;

    std::uint64_t node_id = 0;
    /// Number of unsatisfied predecessor edges. The tasking runtime holds an
    /// extra "submission guard" count of 1 while a node's accesses are being
    /// registered so concurrent predecessor releases cannot make the node
    /// ready halfway through registration.
    std::atomic<int> pred_count{0};
    /// True once the node has released its dependencies. The store happens
    /// under node_lock, after which no edge joins `successors`; lock-free
    /// readers only ever see it as a hint.
    std::atomic<bool> dep_released{false};
    /// Edge-dedup marker: the last successor node_id an edge (or elision)
    /// was recorded for. Guarded by node_lock.
    std::uint64_t last_edge_marker = UINT64_MAX;
    /// Guards successors / last_edge_marker / the dep_released transition.
    /// Lockdep class "dep.node", Nesting::Never: the runtime never holds two
    /// node locks at once (release drains successors by atomic decrement).
    lockdep::SpinLock node_lock{"dep.node"};
    /// Nodes whose pred_count must drop when this node releases its deps.
    /// Guarded by node_lock until dep_released is set; no edge is added
    /// after that, so the releasing thread walks the list unlocked.
    InlineVec<DepNode*, kInlineSuccessors> successors;

    virtual ~DepNode() = default;
};

using DepNodePtr = std::shared_ptr<DepNode>;

class VerifyHook;

/// Tracks last-writer / readers-since-write per byte interval and wires
/// reader-after-write, write-after-read and write-after-write edges.
///
/// Sharded: the address space is cut into 1 MiB granules (kGranuleBits) and
/// granule g maps to shard g mod kShardCount. Every tracked interval lies
/// entirely inside one granule (regions are split at granule boundaries on
/// registration), so each interval belongs to exactly one shard and a
/// registration only locks the shards its regions touch. Concurrent
/// registrations of non-overlapping granule sets do not contend.
///
/// When a VerifyHook is attached the caller must serialize registrations
/// and releases in one total order (the Runtime does this with a dedicated
/// verify mutex); the sharding is then irrelevant to the hook's contract.
class DependencyRegistry {
public:
    static constexpr int kShardCount = 64;       // power of two
    static constexpr unsigned kGranuleBits = 20; // 1 MiB address granules

    DependencyRegistry();

    DependencyRegistry(const DependencyRegistry&) = delete;
    DependencyRegistry& operator=(const DependencyRegistry&) = delete;
    DependencyRegistry(DependencyRegistry&&) = default;
    DependencyRegistry& operator=(DependencyRegistry&&) = default;

    /// Registers the accesses of `node`, adding predecessor edges from every
    /// conflicting earlier node that has not yet released its dependencies.
    /// Empty regions are skipped (see Region). Returns the number of
    /// predecessor edges added. Thread-safe against itself and against
    /// concurrent dependency releases.
    int register_accesses(const DepNodePtr& node, std::span<const Dep> deps);

    /// Number of distinct byte intervals currently tracked (for tests/stats).
    std::size_t interval_count() const;

    /// Cumulative count of edges elided because the conflicting predecessor
    /// had already released its dependencies (the ordering then holds by
    /// completion time instead of by an explicit edge). Together with the
    /// added-edge count this makes conflict accounting deterministic:
    /// added + elided is a property of the access sequence, not of worker
    /// timing. Best-effort: conflicts whose predecessor interval was already
    /// garbage-collected leave no trace and are not counted.
    std::uint64_t edges_elided() const { return edges_elided_->load(std::memory_order_relaxed); }

    /// Attaches a verification observer notified of every edge the registry
    /// wires (nullptr detaches; zero-cost when detached). While a hook is
    /// attached the caller must serialize register_accesses calls and node
    /// releases in one total order.
    void set_verify_hook(VerifyHook* hook) { verify_ = hook; }

    /// Drops bookkeeping for regions nobody references anymore. Prunes
    /// intervals whose writer and readers have all released, one shard at a
    /// time. Shards also self-collect every kGcPeriod registrations, so
    /// explicit calls are only needed by tests.
    void garbage_collect();

private:
    /// Bytes [start, end), inside one granule of its shard.
    struct Interval {
        std::uintptr_t start = 0;
        std::uintptr_t end = 0;
        DepNodePtr writer;                // last writer (may be released)
        std::vector<DepNodePtr> readers;  // readers since last write
    };

    static constexpr std::uint64_t kGcPeriod = 256;

    struct alignas(64) Shard {
        // One lockdep class for all 64 shards, Nesting::Ordered: nested
        // acquisition is legal only in ascending shard index (the subrank,
        // assigned in the registry constructor) — exactly the deadlock-free
        // order register_accesses uses.
        mutable lockdep::Mutex mutex{"dep.shard", lockdep::Nesting::Ordered};
        // Disjoint and sorted by start: one flat array, searched by binary
        // search. Most accesses hit an interval exactly, and creating or
        // splitting one (an insert that shifts the tail) is rare.
        std::vector<Interval> intervals;
        std::uint64_t gc_countdown = kGcPeriod;
    };

    static int shard_of(std::uintptr_t addr) {
        return static_cast<int>((addr >> kGranuleBits) & (kShardCount - 1));
    }

    /// Splits interval `i` of `v`, which holds `point` strictly inside, at
    /// `point`.
    static void split(std::vector<Interval>& v, std::size_t i, std::uintptr_t point);

    /// Registers one region piece that lies entirely inside one granule.
    /// Caller holds the owning shard's mutex.
    int register_piece(Shard& shard, const DepNodePtr& node, DepKind kind, std::uintptr_t lo,
                       std::uintptr_t hi);

    void add_edge(const DepNodePtr& pred, const DepNodePtr& succ, int& added);

    /// Prunes released entries of one shard. Caller holds the shard's mutex.
    static void collect_shard(Shard& shard);

    // unique_ptr indirection keeps the registry movable (the DES simulator
    // stores one registry per simulated rank in a std::vector).
    std::unique_ptr<Shard[]> shards_;
    std::unique_ptr<std::atomic<std::uint64_t>> edges_elided_;
    VerifyHook* verify_ = nullptr;
};

}  // namespace dfamr::tasking
