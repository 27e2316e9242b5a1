#include "tasking/dependency.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tasking/verify_hook.hpp"

namespace dfamr::tasking {

DependencyRegistry::DependencyRegistry()
    : shards_(new Shard[kShardCount]),
      edges_elided_(std::make_unique<std::atomic<std::uint64_t>>(0)) {
    // Shard index doubles as the lockdep subrank: register_accesses locks
    // shards in ascending index order and lockdep checks exactly that.
    for (int s = 0; s < kShardCount; ++s) {
        shards_[s].mutex.set_subrank(static_cast<std::uint32_t>(s));
    }
}

void DependencyRegistry::split(std::vector<Interval>& v, std::size_t i, std::uintptr_t point) {
    Interval right{point, v[i].end, v[i].writer, v[i].readers};
    v[i].end = point;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(i) + 1, std::move(right));
}

void DependencyRegistry::add_edge(const DepNodePtr& pred, const DepNodePtr& succ, int& added) {
    if (!pred || pred.get() == succ.get()) return;
    DepNode& p = *pred;
    // The node lock orders this against the predecessor's release, which
    // drains `successors` under the same lock: either we add the edge before
    // the drain (and the release decrements succ), or we observe
    // dep_released and elide. Lock order: shard mutex(es) -> node lock.
    std::lock_guard guard(p.node_lock);
    if (p.dep_released.load(std::memory_order_relaxed)) {
        // The conflicting predecessor already completed: ordering holds by
        // completion time, no edge needed. Count it so (added + elided)
        // stays deterministic for a given access sequence.
        if (p.last_edge_marker != succ->node_id) {
            p.last_edge_marker = succ->node_id;
            edges_elided_->fetch_add(1, std::memory_order_relaxed);
        }
        return;
    }
    // Dedup consecutive identical edges: a multi-interval region would
    // otherwise add one edge per covered interval.
    if (p.last_edge_marker == succ->node_id) return;
    p.last_edge_marker = succ->node_id;
    p.successors.push_back(succ.get());
    // Relaxed is enough: the successor cannot become ready while its
    // submission guard (or a caller-held count) is outstanding, and the
    // release-side fetch_sub that eventually drops it to zero is acq_rel.
    succ->pred_count.fetch_add(1, std::memory_order_relaxed);
    ++added;
    if (verify_ != nullptr) verify_->on_edge_added(p, *succ);
}

int DependencyRegistry::register_piece(Shard& shard, const DepNodePtr& node, DepKind kind,
                                       std::uintptr_t lo, std::uintptr_t hi) {
    std::vector<Interval>& v = shard.intervals;
    int added = 0;
    const auto access = [&](Interval& iv) {
        if (kind == DepKind::In) {
            add_edge(iv.writer, node, added);
            // Record as reader (avoid duplicate entry for this node).
            if (iv.readers.empty() || iv.readers.back().get() != node.get()) {
                iv.readers.push_back(node);
            }
        } else {  // Out / InOut: order after the last writer and all readers.
            // With readers present the writer edge is subsumed: every
            // reader is already ordered after that writer.
            if (iv.readers.empty()) add_edge(iv.writer, node, added);
            for (const DepNodePtr& reader : iv.readers) add_edge(reader, node, added);
            iv.writer = node;
            iv.readers.clear();
        }
    };
    // The first interval ending after lo.
    std::size_t i = static_cast<std::size_t>(
        std::partition_point(v.begin(), v.end(),
                             [lo](const Interval& iv) { return iv.end <= lo; }) -
        v.begin());
    // Exact hit: most pieces re-access a region with the bounds it had.
    if (i < v.size() && v[i].start == lo && v[i].end == hi) {
        access(v[i]);
        return added;
    }
    if (i < v.size() && v[i].start < lo) {
        split(v, i, lo);
        ++i;
    }
    std::uintptr_t cursor = lo;
    while (cursor < hi) {
        if (i == v.size() || v[i].start > cursor) {
            // Gap [cursor, min(hi, next_start)): fresh interval, no edges.
            const std::uintptr_t gap_end = i == v.size() ? hi : std::min(hi, v[i].start);
            Interval fresh{cursor, gap_end, nullptr, {}};
            if (kind == DepKind::In) {
                fresh.readers.push_back(node);
            } else {
                fresh.writer = node;
            }
            v.insert(v.begin() + static_cast<std::ptrdiff_t>(i), std::move(fresh));
        } else {
            // An interval starting at cursor; cut it at hi if it reaches past.
            if (v[i].end > hi) split(v, i, hi);
            access(v[i]);
        }
        cursor = v[i].end;
        ++i;
    }
    return added;
}

int DependencyRegistry::register_accesses(const DepNodePtr& node, std::span<const Dep> deps) {
    DFAMR_REQUIRE(node != nullptr, "null dependency node");

    // Pass 1: which shards does this access list touch? One bit per shard.
    std::uint64_t shard_mask = 0;
    for (const Dep& dep : deps) {
        if (dep.region.size == 0) continue;
        const std::uintptr_t g_lo = dep.region.base >> kGranuleBits;
        const std::uintptr_t g_hi = (dep.region.end() - 1) >> kGranuleBits;
        if (g_hi - g_lo >= static_cast<std::uintptr_t>(kShardCount) - 1) {
            shard_mask = ~std::uint64_t{0};
            break;
        }
        for (std::uintptr_t g = g_lo; g <= g_hi; ++g) {
            shard_mask |= std::uint64_t{1} << (g & (kShardCount - 1));
        }
    }
    if (shard_mask == 0) return 0;  // only empty regions

    // Lock touched shards in ascending index order: concurrent multi-shard
    // registrations cannot deadlock because everyone acquires in the same
    // global order.
    for (int s = 0; s < kShardCount; ++s) {
        if ((shard_mask >> s) & 1) shards_[s].mutex.lock();
    }

    int added = 0;
    for (const Dep& dep : deps) {
        if (dep.region.size == 0) continue;
        const std::uintptr_t hi = dep.region.end();
        // Walk granule by granule; each piece lies in exactly one shard, so
        // every tracked interval stays within a single granule.
        std::uintptr_t cursor = dep.region.base;
        while (cursor < hi) {
            const std::uintptr_t granule_end =
                ((cursor >> kGranuleBits) + 1) << kGranuleBits;
            const std::uintptr_t piece_end =
                (granule_end == 0 || granule_end > hi) ? hi : granule_end;
            added += register_piece(shards_[shard_of(cursor)], node, dep.kind, cursor, piece_end);
            cursor = piece_end;
        }
    }

    // Amortized per-shard GC, then unlock in descending order.
    for (int s = kShardCount - 1; s >= 0; --s) {
        if (!((shard_mask >> s) & 1)) continue;
        Shard& sh = shards_[s];
        if (--sh.gc_countdown == 0) {
            sh.gc_countdown = kGcPeriod;
            collect_shard(sh);
        }
        sh.mutex.unlock();
    }
    return added;
}

void DependencyRegistry::collect_shard(Shard& shard) {
    // dep_released never goes back to false, so an unlocked read seeing
    // `true` is stable; a stale `false` just keeps the entry one cycle
    // longer.
    const auto released = [](const DepNodePtr& n) {
        return n->dep_released.load(std::memory_order_acquire);
    };
    std::vector<Interval>& v = shard.intervals;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        Interval& iv = v[i];
        std::erase_if(iv.readers, released);
        if (iv.writer && released(iv.writer) && iv.readers.empty()) continue;
        if (kept != i) v[kept] = std::move(iv);
        ++kept;
    }
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(kept), v.end());
}

void DependencyRegistry::garbage_collect() {
    for (int s = 0; s < kShardCount; ++s) {
        std::lock_guard lock(shards_[s].mutex);
        collect_shard(shards_[s]);
    }
}

std::size_t DependencyRegistry::interval_count() const {
    std::size_t total = 0;
    for (int s = 0; s < kShardCount; ++s) {
        std::lock_guard lock(shards_[s].mutex);
        total += shards_[s].intervals.size();
    }
    return total;
}

}  // namespace dfamr::tasking
