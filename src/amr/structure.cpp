#include "amr/structure.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"

namespace dfamr::amr {

GlobalStructure::GlobalStructure(const Config& cfg)
    : max_level_(cfg.num_refine), num_ranks_(cfg.num_ranks()) {
    level0_blocks_ = {cfg.npx * cfg.init_x, cfg.npy * cfg.init_y, cfg.npz * cfg.init_z};
    const std::int64_t side0 = std::int64_t{1} << max_level_;
    domain_units_ = {level0_blocks_.x * side0, level0_blocks_.y * side0,
                     level0_blocks_.z * side0};
    for (int bx = 0; bx < level0_blocks_.x; ++bx) {
        for (int by = 0; by < level0_blocks_.y; ++by) {
            for (int bz = 0; bz < level0_blocks_.z; ++bz) {
                const int rx = bx / cfg.init_x;
                const int ry = by / cfg.init_y;
                const int rz = bz / cfg.init_z;
                const int rank = rx + cfg.npx * (ry + cfg.npy * rz);
                BlockKey key;
                key.level = 0;
                key.anchor = {bx * side0, by * side0, bz * side0};
                owners_.emplace(key, rank);
            }
        }
    }
}

int GlobalStructure::owner(const BlockKey& key) const {
    auto it = owners_.find(key);
    DFAMR_REQUIRE(it != owners_.end(), "block is not a leaf of the current structure");
    return it->second;
}

std::vector<BlockKey> GlobalStructure::blocks_of(int rank) const {
    std::vector<BlockKey> result;
    for (const auto& [key, owner_rank] : owners_) {
        if (owner_rank == rank) result.push_back(key);
    }
    return result;
}

std::vector<std::int64_t> GlobalStructure::blocks_per_rank() const {
    std::vector<std::int64_t> counts(static_cast<std::size_t>(num_ranks_), 0);
    for (const auto& [key, owner_rank] : owners_) {
        ++counts[static_cast<std::size_t>(owner_rank)];
    }
    return counts;
}

Box GlobalStructure::box(const BlockKey& key) const {
    const std::int64_t side = key.side(max_level_);
    Box b;
    for (int a = 0; a < 3; ++a) {
        const double du = static_cast<double>(domain_units_[a]);
        b.lo[a] = static_cast<double>(key.anchor[a]) / du;
        b.hi[a] = static_cast<double>(key.anchor[a] + side) / du;
    }
    return b;
}

bool GlobalStructure::at_domain_boundary(const BlockKey& key, int axis, int sense) const {
    const std::int64_t side = key.side(max_level_);
    if (sense > 0) return key.anchor[axis] + side >= domain_units_[axis];
    return key.anchor[axis] == 0;
}

std::vector<FaceNeighbor> GlobalStructure::face_neighbors(const BlockKey& key, int axis,
                                                          int sense) const {
    std::vector<FaceNeighbor> result;
    if (at_domain_boundary(key, axis, sense)) return result;

    const std::int64_t side = key.side(max_level_);
    const auto [ua, va] = BlockShape{2, 2, 2, 1}.plane_axes(axis);

    // Same level.
    BlockKey same = key;
    same.anchor[axis] += sense > 0 ? side : -side;
    if (auto it = owners_.find(same); it != owners_.end()) {
        result.push_back(FaceNeighbor{same, it->second, FaceRel::Same, 0});
        return result;
    }

    // Coarser (level - 1): the block containing the cell just across the face.
    if (key.level > 0) {
        const std::int64_t cside = side * 2;
        Vec3l probe = key.anchor;
        probe[axis] += sense > 0 ? side : -1;
        BlockKey coarse;
        coarse.level = key.level - 1;
        coarse.anchor = {(probe.x / cside) * cside, (probe.y / cside) * cside,
                         (probe.z / cside) * cside};
        if (auto it = owners_.find(coarse); it != owners_.end()) {
            const int qu = static_cast<int>((key.anchor[ua] - coarse.anchor[ua]) / side) & 1;
            const int qv = static_cast<int>((key.anchor[va] - coarse.anchor[va]) / side) & 1;
            result.push_back(FaceNeighbor{coarse, it->second, FaceRel::Coarser, qu + 2 * qv});
            return result;
        }
    }

    // Finer (level + 1): up to four quarter-face neighbors.
    if (key.level < max_level_) {
        const std::int64_t fside = side / 2;
        for (int qv = 0; qv < 2; ++qv) {
            for (int qu = 0; qu < 2; ++qu) {
                BlockKey fine;
                fine.level = key.level + 1;
                fine.anchor = key.anchor;
                fine.anchor[axis] += sense > 0 ? side : -fside;
                fine.anchor[ua] += qu * fside;
                fine.anchor[va] += qv * fside;
                auto it = owners_.find(fine);
                DFAMR_REQUIRE(it != owners_.end(),
                              "mesh structure violates the 2:1 constraint (missing neighbor)");
                result.push_back(FaceNeighbor{fine, it->second, FaceRel::Finer, qu + 2 * qv});
            }
        }
        return result;
    }
    throw Error("mesh structure inconsistent: no neighbor found across an interior face");
}

bool GlobalStructure::two_to_one_ok() const {
    try {
        for (const auto& [key, owner_rank] : owners_) {
            for (int axis = 0; axis < 3; ++axis) {
                for (int sense : {+1, -1}) {
                    (void)face_neighbors(key, axis, sense);
                }
            }
        }
    } catch (const Error&) {
        return false;
    }
    return true;
}

RefineRound GlobalStructure::plan_refine_round_marks(std::map<BlockKey, int> marks) const {
    DFAMR_REQUIRE(marks.size() == owners_.size(), "marks must cover exactly the current leaves");

    // 2:1 propagation: a refining block forces its coarser face neighbors to
    // refine as well (otherwise its children would differ by two levels).
    std::deque<BlockKey> worklist;
    for (const auto& [key, mark] : marks) {
        if (mark == +1) worklist.push_back(key);
    }
    while (!worklist.empty()) {
        const BlockKey key = worklist.front();
        worklist.pop_front();
        for (int axis = 0; axis < 3; ++axis) {
            for (int sense : {+1, -1}) {
                for (const FaceNeighbor& nb : face_neighbors(key, axis, sense)) {
                    if (nb.rel == FaceRel::Coarser && marks.at(nb.key) != +1) {
                        marks[nb.key] = +1;
                        worklist.push_back(nb.key);
                    }
                }
            }
        }
    }

    RefineRound round;
    for (const auto& [key, mark] : marks) {
        if (mark == +1) round.refine.push_back(key);
    }

    // Coarsening: group willing leaves by parent; all eight siblings must be
    // willing leaves, and the merged parent must still satisfy 2:1 against
    // every outward neighbor's post-round level (refines included,
    // other coarsenings conservatively ignored).
    std::map<BlockKey, int> willing_children;  // parent -> count
    for (const auto& [key, mark] : marks) {
        if (mark == -1) ++willing_children[key.parent(max_level_)];
    }
    for (const auto& [parent, count] : willing_children) {
        if (count != 8) continue;
        bool safe = true;
        const std::int64_t pside = parent.side(max_level_) / 2;  // child side
        (void)pside;
        for (int octant = 0; octant < 8 && safe; ++octant) {
            const BlockKey child = parent.child(octant, max_level_);
            for (int axis = 0; axis < 3 && safe; ++axis) {
                for (int sense : {+1, -1}) {
                    // Only outward faces of the parent region matter.
                    const BlockKey sibling_probe = [&] {
                        BlockKey s = child;
                        s.anchor[axis] += (sense > 0 ? child.side(max_level_)
                                                     : -child.side(max_level_));
                        return s;
                    }();
                    const bool inward =
                        sibling_probe.anchor[axis] >= parent.anchor[axis] &&
                        sibling_probe.anchor[axis] < parent.anchor[axis] + parent.side(max_level_);
                    if (inward) continue;
                    for (const FaceNeighbor& nb : face_neighbors(child, axis, sense)) {
                        const int post = nb.key.level + (marks.at(nb.key) == +1 ? 1 : 0);
                        if (post > parent.level + 1) {
                            safe = false;
                            break;
                        }
                    }
                    if (!safe) break;
                }
            }
        }
        if (safe) round.coarsen_parents.push_back(parent);
    }
    return round;
}

void GlobalStructure::apply_refine_round(const RefineRound& round) {
    for (const BlockKey& key : round.refine) {
        auto it = owners_.find(key);
        DFAMR_REQUIRE(it != owners_.end(), "refining a non-leaf block");
        const int rank = it->second;
        owners_.erase(it);
        for (int octant = 0; octant < 8; ++octant) {
            owners_.emplace(key.child(octant, max_level_), rank);
        }
    }
    for (const BlockKey& parent : round.coarsen_parents) {
        int new_owner = -1;
        for (int octant = 0; octant < 8; ++octant) {
            auto it = owners_.find(parent.child(octant, max_level_));
            DFAMR_REQUIRE(it != owners_.end(), "coarsening with a missing child");
            if (octant == 0) new_owner = it->second;
            owners_.erase(it);
        }
        owners_.emplace(parent, new_owner);
    }
}

std::vector<BlockMove> GlobalStructure::coarsen_moves(const RefineRound& round) const {
    std::vector<BlockMove> moves;
    int id = 0;
    for (const BlockKey& parent : round.coarsen_parents) {
        const int merger = owner(parent.child(0, max_level_));
        for (int octant = 1; octant < 8; ++octant, ++id) {
            const BlockKey child = parent.child(octant, max_level_);
            const int from = owner(child);
            if (from != merger) moves.push_back(BlockMove{child, from, merger, id});
        }
    }
    return moves;
}

double GlobalStructure::imbalance() const {
    const auto counts = blocks_per_rank();
    std::int64_t total = 0, max_count = 0;
    for (std::int64_t c : counts) {
        total += c;
        max_count = std::max(max_count, c);
    }
    const double avg = static_cast<double>(total) / static_cast<double>(num_ranks_);
    if (avg <= 0) return 0.0;
    return (static_cast<double>(max_count) - avg) / avg;
}

void GlobalStructure::rcb_recurse(std::vector<std::pair<Vec3d, BlockKey>>& blocks, std::size_t lo,
                                  std::size_t hi, int rank_lo, int rank_hi,
                                  std::map<BlockKey, int>& result) const {
    const int nranks = rank_hi - rank_lo;
    if (nranks <= 1 || hi - lo <= 1) {
        for (std::size_t i = lo; i < hi; ++i) result[blocks[i].second] = rank_lo;
        return;
    }
    // Longest extent of the centers' bounding box decides the cut axis.
    Vec3d mins = blocks[lo].first, maxs = blocks[lo].first;
    for (std::size_t i = lo + 1; i < hi; ++i) {
        for (int a = 0; a < 3; ++a) {
            mins[a] = std::min(mins[a], blocks[i].first[a]);
            maxs[a] = std::max(maxs[a], blocks[i].first[a]);
        }
    }
    int axis = 0;
    double best = -1;
    for (int a = 0; a < 3; ++a) {
        if (maxs[a] - mins[a] > best) {
            best = maxs[a] - mins[a];
            axis = a;
        }
    }
    const int left_ranks = nranks / 2;
    const std::size_t n = hi - lo;
    std::size_t left_n = (n * static_cast<std::size_t>(left_ranks) +
                          static_cast<std::size_t>(nranks) / 2) /
                         static_cast<std::size_t>(nranks);
    left_n = std::min(left_n, n);
    auto cmp = [axis](const std::pair<Vec3d, BlockKey>& a, const std::pair<Vec3d, BlockKey>& b) {
        if (a.first[axis] != b.first[axis]) return a.first[axis] < b.first[axis];
        return a.second < b.second;  // deterministic tie-break
    };
    std::nth_element(blocks.begin() + static_cast<std::ptrdiff_t>(lo),
                     blocks.begin() + static_cast<std::ptrdiff_t>(lo + left_n),
                     blocks.begin() + static_cast<std::ptrdiff_t>(hi), cmp);
    rcb_recurse(blocks, lo, lo + left_n, rank_lo, rank_lo + left_ranks, result);
    rcb_recurse(blocks, lo + left_n, hi, rank_lo + left_ranks, rank_hi, result);
}

std::map<BlockKey, int> GlobalStructure::rcb_partition() const {
    std::vector<std::pair<Vec3d, BlockKey>> blocks;
    blocks.reserve(owners_.size());
    for (const auto& [key, owner_rank] : owners_) {
        blocks.emplace_back(box(key).center(), key);
    }
    std::map<BlockKey, int> result;
    rcb_recurse(blocks, 0, blocks.size(), 0, num_ranks_, result);
    return result;
}

void GlobalStructure::set_owners(const std::map<BlockKey, int>& new_owners) {
    DFAMR_REQUIRE(new_owners.size() == owners_.size(),
                  "new ownership map must cover exactly the current leaves");
    for (auto& [key, owner_rank] : owners_) {
        auto it = new_owners.find(key);
        DFAMR_REQUIRE(it != new_owners.end(), "new ownership map misses a leaf");
        DFAMR_REQUIRE(it->second >= 0 && it->second < num_ranks_, "owner rank out of range");
        owner_rank = it->second;
    }
}

std::vector<BlockMove> GlobalStructure::moves_to(const std::map<BlockKey, int>& new_owners) const {
    std::vector<BlockMove> moves;
    int id = 0;
    for (const auto& [key, owner_rank] : owners_) {
        const int target = new_owners.at(key);
        if (target != owner_rank) moves.push_back(BlockMove{key, owner_rank, target, id});
        ++id;
    }
    return moves;
}

void GlobalStructure::restore_leaves(const std::map<BlockKey, int>& leaves) {
    DFAMR_REQUIRE(!leaves.empty(), "restored structure must have at least one leaf");
    for (const auto& [key, owner_rank] : leaves) {
        DFAMR_REQUIRE(key.level >= 0 && key.level <= max_level_,
                      "restored leaf level out of range");
        DFAMR_REQUIRE(owner_rank >= 0 && owner_rank < num_ranks_,
                      "restored owner rank out of range");
    }
    const std::map<BlockKey, int> previous = std::move(owners_);
    owners_ = leaves;
    if (!two_to_one_ok()) {
        owners_ = previous;
        DFAMR_REQUIRE(false, "restored structure violates the 2:1 invariant");
    }
}

}  // namespace dfamr::amr
