// Unit + property tests for the region-dependency registry, which underpins
// both the real tasking runtime and the DES DAG builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tasking/dependency.hpp"

namespace dfamr::tasking {
namespace {

DepNodePtr make_node(std::uint64_t id) {
    auto n = std::make_shared<DepNode>();
    n->node_id = id;
    return n;
}

int register_one(DependencyRegistry& reg, const DepNodePtr& n, std::vector<Dep> deps) {
    return reg.register_accesses(n, deps);
}

bool has_edge(const DepNodePtr& from, const DepNodePtr& to) {
    return std::find(from->successors.begin(), from->successors.end(), to.get()) !=
           from->successors.end();
}

TEST(DependencyRegistry, ReadAfterWrite) {
    DependencyRegistry reg;
    double x = 0;
    auto writer = make_node(1), reader = make_node(2);
    EXPECT_EQ(register_one(reg, writer, {out(&x, sizeof x)}), 0);
    EXPECT_EQ(register_one(reg, reader, {in(&x, sizeof x)}), 1);
    EXPECT_TRUE(has_edge(writer, reader));
    EXPECT_EQ(reader->pred_count, 1);
}

TEST(DependencyRegistry, TwoReadersRunConcurrently) {
    DependencyRegistry reg;
    double x = 0;
    auto w = make_node(1), r1 = make_node(2), r2 = make_node(3);
    register_one(reg, w, {out(&x, sizeof x)});
    EXPECT_EQ(register_one(reg, r1, {in(&x, sizeof x)}), 1);
    EXPECT_EQ(register_one(reg, r2, {in(&x, sizeof x)}), 1);
    EXPECT_FALSE(has_edge(r1, r2));
    EXPECT_FALSE(has_edge(r2, r1));
}

TEST(DependencyRegistry, WriteAfterReadWaitsForAllReaders) {
    DependencyRegistry reg;
    double x = 0;
    auto w1 = make_node(1), r1 = make_node(2), r2 = make_node(3), w2 = make_node(4);
    register_one(reg, w1, {out(&x, sizeof x)});
    register_one(reg, r1, {in(&x, sizeof x)});
    register_one(reg, r2, {in(&x, sizeof x)});
    EXPECT_EQ(register_one(reg, w2, {out(&x, sizeof x)}), 2);  // both readers, writer superseded
    EXPECT_TRUE(has_edge(r1, w2));
    EXPECT_TRUE(has_edge(r2, w2));
}

TEST(DependencyRegistry, WriteAfterWrite) {
    DependencyRegistry reg;
    double x = 0;
    auto w1 = make_node(1), w2 = make_node(2);
    register_one(reg, w1, {out(&x, sizeof x)});
    EXPECT_EQ(register_one(reg, w2, {out(&x, sizeof x)}), 1);
    EXPECT_TRUE(has_edge(w1, w2));
}

TEST(DependencyRegistry, DisjointRegionsAreIndependent) {
    DependencyRegistry reg;
    double a[4] = {};
    auto w1 = make_node(1), w2 = make_node(2);
    register_one(reg, w1, {out(&a[0], 2 * sizeof(double))});
    EXPECT_EQ(register_one(reg, w2, {out(&a[2], 2 * sizeof(double))}), 0);
}

TEST(DependencyRegistry, PartialOverlapCreatesEdge) {
    DependencyRegistry reg;
    double a[4] = {};
    auto w1 = make_node(1), w2 = make_node(2);
    register_one(reg, w1, {out(&a[0], 3 * sizeof(double))});
    EXPECT_EQ(register_one(reg, w2, {out(&a[1], 3 * sizeof(double))}), 1);
    EXPECT_TRUE(has_edge(w1, w2));
}

TEST(DependencyRegistry, MultidependencyDedupesEdges) {
    DependencyRegistry reg;
    double a[8] = {};
    auto packer = make_node(1), sender = make_node(2);
    // One writer covering two sections; the consumer declares a
    // multidependency on both sections — only one edge must result.
    register_one(reg, packer, {out(&a[0], 8 * sizeof(double))});
    const int edges = register_one(
        reg, sender, {in(&a[0], 2 * sizeof(double)), in(&a[4], 2 * sizeof(double))});
    EXPECT_EQ(edges, 1);
    EXPECT_EQ(sender->pred_count, 1);
}

TEST(DependencyRegistry, ReleasedPredecessorAddsNoEdge) {
    DependencyRegistry reg;
    double x = 0;
    auto w = make_node(1), r = make_node(2);
    register_one(reg, w, {out(&x, sizeof x)});
    w->dep_released = true;
    EXPECT_EQ(register_one(reg, r, {in(&x, sizeof x)}), 0);
}

TEST(DependencyRegistry, InOutBehavesAsReadAndWrite) {
    DependencyRegistry reg;
    double x = 0;
    auto w = make_node(1), io = make_node(2), r = make_node(3);
    register_one(reg, w, {out(&x, sizeof x)});
    EXPECT_EQ(register_one(reg, io, {inout(&x, sizeof x)}), 1);
    EXPECT_EQ(register_one(reg, r, {in(&x, sizeof x)}), 1);
    EXPECT_TRUE(has_edge(io, r));
}

TEST(DependencyRegistry, SyntheticRegions) {
    DependencyRegistry reg;
    auto w = make_node(1), r = make_node(2);
    register_one(reg, w, {out_id(1001)});
    EXPECT_EQ(register_one(reg, r, {in_id(1001)}), 1);
    auto r2 = make_node(3);
    EXPECT_EQ(register_one(reg, r2, {in_id(1002)}), 0);
}

TEST(DependencyRegistry, GarbageCollectPrunesReleased) {
    DependencyRegistry reg;
    double a[16] = {};
    for (std::uint64_t i = 0; i < 16; ++i) {
        auto n = make_node(i + 1);
        register_one(reg, n, {out(&a[i], sizeof(double))});
        n->dep_released = true;
    }
    EXPECT_GE(reg.interval_count(), 16u);
    reg.garbage_collect();
    EXPECT_EQ(reg.interval_count(), 0u);
}

// Property test: for random access sequences, the registry must produce a
// graph whose transitive order respects every conflict (pairs where at least
// one access writes an overlapping region).
TEST(DependencyRegistryProperty, RandomConflictsAreOrdered) {
    Rng rng(2020);
    for (int trial = 0; trial < 30; ++trial) {
        DependencyRegistry reg;
        constexpr int kNodes = 40;
        constexpr std::size_t kArena = 64;
        std::vector<DepNodePtr> nodes;
        std::vector<Dep> chosen;
        static char arena[kArena];

        for (int i = 0; i < kNodes; ++i) {
            const std::size_t base = rng.below(kArena - 8);
            const std::size_t size = 1 + rng.below(8);
            const DepKind kind = rng.next_double() < 0.5 ? DepKind::In : DepKind::Out;
            Dep dep{kind, Region(arena + base, size)};
            auto node = make_node(static_cast<std::uint64_t>(i + 1));
            reg.register_accesses(node, std::span<const Dep>(&dep, 1));
            nodes.push_back(node);
            chosen.push_back(dep);
        }

        // Reachability via BFS over successor edges.
        auto reaches = [&](int from, int to) {
            std::vector<int> stack{from};
            std::vector<bool> seen(kNodes + 2, false);
            while (!stack.empty()) {
                int cur = stack.back();
                stack.pop_back();
                if (cur == to) return true;
                for (DepNode* s : nodes[static_cast<std::size_t>(cur)]->successors) {
                    const int idx = static_cast<int>(s->node_id) - 1;
                    if (!seen[static_cast<std::size_t>(idx)]) {
                        seen[static_cast<std::size_t>(idx)] = true;
                        stack.push_back(idx);
                    }
                }
            }
            return false;
        };

        for (int i = 0; i < kNodes; ++i) {
            for (int j = i + 1; j < kNodes; ++j) {
                const bool conflict =
                    chosen[static_cast<std::size_t>(i)].region.overlaps(
                        chosen[static_cast<std::size_t>(j)].region) &&
                    (chosen[static_cast<std::size_t>(i)].kind != DepKind::In ||
                     chosen[static_cast<std::size_t>(j)].kind != DepKind::In);
                if (conflict) {
                    EXPECT_TRUE(reaches(i, j))
                        << "trial " << trial << ": conflicting accesses " << i << " -> " << j
                        << " not ordered";
                }
            }
        }
    }
}

// --- differential test of the interval store --------------------------------

/// Per-byte reference of the registry's rule: a byte's last writer and its
/// readers since that write. A read depends on the last writer; a write on
/// the readers since it, or on the writer when there are none (the readers
/// already follow it). A task never depends on itself.
struct ByteReference {
    std::vector<int> writer;
    std::vector<std::vector<int>> readers;

    explicit ByteReference(std::size_t bytes) : writer(bytes, -1), readers(bytes) {}

    /// Adds `node`'s predecessors through byte `b` to `preds`, then records
    /// the access.
    void access(std::size_t b, int node, DepKind kind, std::set<int>& preds) {
        std::vector<int>& rd = readers[b];
        if (kind == DepKind::In) {
            if (writer[b] >= 0 && writer[b] != node) preds.insert(writer[b]);
            rd.push_back(node);
            return;
        }
        if (rd.empty()) {
            if (writer[b] >= 0 && writer[b] != node) preds.insert(writer[b]);
        }
        for (int r : rd) {
            if (r != node) preds.insert(r);
        }
        writer[b] = node;
        rd.clear();
    }
};

/// Random In/Out/InOut streams on two windows that straddle 1 MiB granule
/// boundaries (so regions cross shards), with partial overlaps and empty
/// regions; nodes release in an order their edges allow, interleaved with
/// registrations and, with `gc`, with explicit collections. The registry's
/// edges must be exactly the reference's edges from unreleased
/// predecessors. Without any collection (fewer registrations than a
/// shard's GC period), added + elided edges count every conflicting pair.
void run_differential(std::uint64_t seed, bool gc, int node_count) {
    constexpr std::uintptr_t kGranule = std::uintptr_t{1} << DependencyRegistry::kGranuleBits;
    constexpr std::uintptr_t kWindow = 160;
    const std::uintptr_t origin[2] = {5 * kGranule - kWindow / 2, 70 * kGranule - kWindow / 2};
    Rng rng(seed);
    DependencyRegistry reg;
    ByteReference ref(2 * kWindow);
    std::vector<DepNodePtr> nodes;
    std::set<std::pair<int, int>> expected_edges;
    std::uint64_t conflicting_pairs = 0;
    std::uint64_t edges_added = 0;

    const auto release_one_ready = [&] {
        std::vector<int> ready;
        for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
            const DepNode& n = *nodes[static_cast<std::size_t>(i)];
            if (!n.dep_released && n.pred_count == 0) ready.push_back(i);
        }
        if (ready.empty()) return;
        DepNode& n = *nodes[static_cast<std::size_t>(ready[rng.below(ready.size())])];
        n.dep_released = true;
        for (DepNode* s : n.successors) --s->pred_count;
    };

    for (int id = 0; id < node_count; ++id) {
        while (rng.below(3) == 0) release_one_ready();
        if (gc && rng.below(16) == 0) reg.garbage_collect();

        std::vector<Dep> deps;
        std::set<int> preds;
        const int ndeps = 1 + static_cast<int>(rng.below(4));
        for (int d = 0; d < ndeps; ++d) {
            const std::size_t w = rng.below(2);
            const std::uintptr_t size = rng.below(6) == 0 ? 0 : 1 + rng.below(40);
            const std::uintptr_t offset = rng.below(kWindow - size + 1);
            const auto kind = static_cast<DepKind>(rng.below(3));
            deps.push_back({kind, Region::synthetic(origin[w] + offset, size)});
            for (std::uintptr_t b = offset; b < offset + size; ++b) {
                ref.access(w * kWindow + b, id, kind, preds);
            }
        }
        nodes.push_back(make_node(static_cast<std::uint64_t>(id) + 1));
        const int added = reg.register_accesses(nodes.back(), deps);
        int expected_added = 0;
        for (int p : preds) {
            if (nodes[static_cast<std::size_t>(p)]->dep_released) continue;
            expected_edges.insert({p, id});
            ++expected_added;
        }
        ASSERT_EQ(added, expected_added) << "seed " << seed << ", node " << id;
        edges_added += static_cast<std::uint64_t>(added);
        conflicting_pairs += preds.size();
    }

    std::set<std::pair<int, int>> edges;
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
        for (DepNode* s : nodes[static_cast<std::size_t>(i)]->successors) {
            edges.insert({i, static_cast<int>(s->node_id) - 1});
        }
    }
    EXPECT_EQ(edges, expected_edges) << "seed " << seed;
    if (gc) {
        EXPECT_LE(edges_added + reg.edges_elided(), conflicting_pairs) << "seed " << seed;
    } else {
        EXPECT_EQ(edges_added + reg.edges_elided(), conflicting_pairs) << "seed " << seed;
    }
}

TEST(DependencyRegistryDifferential, MatchesPerByteReferenceWithoutGc) {
    // Below the period: no shard collects on its own.
    for (std::uint64_t seed : {101, 102, 103, 104, 105, 106}) run_differential(seed, false, 250);
}

TEST(DependencyRegistryDifferential, MatchesPerByteReferenceWithGc) {
    // Past the period too: the amortized collection runs as well.
    for (std::uint64_t seed : {201, 202, 203, 204}) run_differential(seed, true, 900);
}

// --- zero-size regions and empty dependency lists --------------------------

TEST(DependencyRegistry, EmptyRegionOverlapsNothing) {
    double x = 0;
    const Region empty_r(&x, 0);
    const Region full_r(&x, sizeof x);
    EXPECT_TRUE(empty_r.empty());
    EXPECT_FALSE(empty_r.overlaps(full_r));
    EXPECT_FALSE(full_r.overlaps(empty_r));
    // Not even an empty region at the same base overlaps another.
    EXPECT_FALSE(empty_r.overlaps(Region(&x, 0)));
}

TEST(DependencyRegistry, EmptyDepsListImposesNoOrdering) {
    DependencyRegistry reg;
    auto a = make_node(1), b = make_node(2);
    EXPECT_EQ(register_one(reg, a, {}), 0);
    EXPECT_EQ(register_one(reg, b, {}), 0);
    EXPECT_EQ(a->pred_count, 0);
    EXPECT_EQ(b->pred_count, 0);
    EXPECT_EQ(reg.interval_count(), 0u);
}

TEST(DependencyRegistry, ZeroSizeRegionsCreateNoIntervalsOrEdges) {
    DependencyRegistry reg;
    double x = 0;
    auto w1 = make_node(1), w2 = make_node(2), real = make_node(3);
    EXPECT_EQ(register_one(reg, w1, {out(&x, 0)}), 0);
    EXPECT_EQ(register_one(reg, w2, {out(&x, 0)}), 0);
    EXPECT_EQ(reg.interval_count(), 0u);
    // A real access on the same address is unaffected by the empty ones.
    EXPECT_EQ(register_one(reg, real, {out(&x, sizeof x)}), 0);
    EXPECT_EQ(real->pred_count, 0);
    EXPECT_EQ(reg.interval_count(), 1u);
}

TEST(DependencyRegistry, MixedEmptyAndRealRegionsUseOnlyRealOnes) {
    DependencyRegistry reg;
    double x = 0, y = 0;
    auto w = make_node(1), r = make_node(2);
    register_one(reg, w, {out(&x, sizeof x), out(&y, 0)});
    EXPECT_EQ(register_one(reg, r, {in(&x, sizeof x), in(&y, 0)}), 1);
    EXPECT_TRUE(has_edge(w, r));
}

// --- elided-edge accounting -------------------------------------------------

TEST(DependencyRegistry, ReleasedPredecessorElidesEdgeAndCountsIt) {
    DependencyRegistry reg;
    double x = 0;
    auto w = make_node(1), r = make_node(2);
    register_one(reg, w, {out(&x, sizeof x)});
    w->dep_released = true;  // completed before the reader was submitted
    EXPECT_EQ(register_one(reg, r, {in(&x, sizeof x)}), 0);
    EXPECT_FALSE(has_edge(w, r));
    EXPECT_EQ(r->pred_count, 0);
    EXPECT_EQ(reg.edges_elided(), 1u);
    // The same conflicting pair is not double-counted on a second region.
    auto r2 = make_node(3);
    EXPECT_EQ(register_one(reg, r2, {in(&x, sizeof x)}), 0);
    EXPECT_EQ(reg.edges_elided(), 2u);
}

// --- garbage collection -----------------------------------------------------

TEST(DependencyRegistry, GarbageCollectPrunesOnlyFullyReleasedIntervals) {
    DependencyRegistry reg;
    double x = 0, y = 0;
    auto wx = make_node(1), wy = make_node(2);
    register_one(reg, wx, {out(&x, sizeof x)});
    register_one(reg, wy, {out(&y, sizeof y)});
    EXPECT_EQ(reg.interval_count(), 2u);
    wx->dep_released = true;
    reg.garbage_collect();
    EXPECT_EQ(reg.interval_count(), 1u);  // y's writer is still live
    // A new writer on x after the prune starts a fresh interval with no
    // predecessors (the ordering held by completion time; nothing to elide
    // either — the old interval is gone).
    auto wx2 = make_node(3);
    EXPECT_EQ(register_one(reg, wx2, {out(&x, sizeof x)}), 0);
    EXPECT_EQ(wx2->pred_count, 0);
}

}  // namespace
}  // namespace dfamr::tasking
