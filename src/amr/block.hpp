// Mesh blocks: identity (BlockKey), cell storage, face pack/unpack with
// inter-level restriction/prolongation, refinement data operations, the
// stencils, and per-block checksums.
//
// Every block has the same cell count (nx × ny × nz) regardless of its
// refinement level — finer blocks simply cover a smaller physical region at
// higher resolution (the defining property of miniAMR's octree scheme).
// Storage follows Rico et al.: one contiguous array per block holding all
// variables, with a one-cell ghost shell per variable
// (layout [var][x][y][z], z contiguous). The array is a BlockArena buffer.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "amr/block_arena.hpp"
#include "amr/scratch.hpp"
#include "common/geometry.hpp"

namespace dfamr::amr {

/// Identity of a block in the global octree forest: refinement level plus
/// the lower corner ("anchor") measured in finest-level block units.
/// A level-l block spans 2^(max_level - l) units per dimension.
struct BlockKey {
    int level = 0;
    Vec3l anchor{0, 0, 0};

    friend bool operator==(const BlockKey&, const BlockKey&) = default;
    friend auto operator<=>(const BlockKey& a, const BlockKey& b) {
        if (auto c = a.level <=> b.level; c != 0) return c;
        if (auto c = a.anchor.x <=> b.anchor.x; c != 0) return c;
        if (auto c = a.anchor.y <=> b.anchor.y; c != 0) return c;
        return a.anchor.z <=> b.anchor.z;
    }

    /// Child in octant o (bit0 = x-half, bit1 = y-half, bit2 = z-half).
    BlockKey child(int octant, int max_level) const;
    BlockKey parent(int max_level) const;
    int octant_in_parent(int max_level) const;
    /// Side length in finest units.
    std::int64_t side(int max_level) const { return std::int64_t{1} << (max_level - level); }
};

/// How a face neighbor's refinement level relates to mine.
enum class FaceRel : std::uint8_t { Same, Coarser, Finer };

/// Geometry of one block-face transfer. `quad` identifies which quarter of
/// the coarser face is involved when levels differ (0..3; u-half in bit 0,
/// v-half in bit 1, where (u,v) are the in-plane axes in ascending order).
struct FaceGeom {
    int axis = 0;    // 0=x, 1=y, 2=z
    int sense = +1;  // +1: my high face, -1: my low face
    FaceRel rel = FaceRel::Same;
    int quad = 0;
};

/// Storage strides of the planes orthogonal to one axis, in doubles. The
/// face kernels walk a face as U rows of V cells: rows step along the
/// in-plane axis u, cells along v, with (u, v) = BlockShape::plane_axes.
/// On x and y faces v is z, so `v == 1` and every row is contiguous; on z
/// faces v is y and rows are strided by nz + 2.
struct FaceStrides {
    std::int64_t var = 0;    // between variables
    std::int64_t plane = 0;  // along the face normal
    std::int64_t u = 0;      // between rows
    std::int64_t v = 0;      // between the cells of a row
    int U = 0, V = 0;        // interior cells along u and v

    /// Index of variable k's cell at plane coordinate `a` and in-plane
    /// (iu, iv), in Block::at's 1-based ghosted frame.
    std::int64_t index(int k, int a, int iu, int iv) const {
        return k * var + a * plane + iu * u + iv * v;
    }
};

/// Fixed per-run block shape parameters.
struct BlockShape {
    int nx = 0, ny = 0, nz = 0;
    int num_vars = 0;

    friend bool operator==(const BlockShape&, const BlockShape&) = default;

    std::int64_t stride_z() const { return 1; }
    std::int64_t stride_y() const { return nz + 2; }
    std::int64_t stride_x() const { return static_cast<std::int64_t>(ny + 2) * (nz + 2); }
    std::int64_t stride_var() const { return static_cast<std::int64_t>(nx + 2) * stride_x(); }
    std::int64_t total_cells() const { return stride_var() * num_vars; }
    int dim(int axis) const { return axis == 0 ? nx : (axis == 1 ? ny : nz); }

    /// In-plane axes (u, v) for a face orthogonal to `axis`, ascending order.
    std::array<int, 2> plane_axes(int axis) const {
        if (axis == 0) return {1, 2};
        if (axis == 1) return {0, 2};
        return {0, 1};
    }
    /// Strides of the planes orthogonal to `axis` (computed once per face
    /// transfer, not per cell).
    FaceStrides face_strides(int axis) const {
        const auto [ua, va] = plane_axes(axis);
        const auto stride = [this](int a) {
            return a == 0 ? stride_x() : (a == 1 ? stride_y() : stride_z());
        };
        return FaceStrides{stride_var(), stride(axis), stride(ua), stride(va), dim(ua), dim(va)};
    }
    /// Values in a same-level face message for `vars` variables.
    std::int64_t face_values_same(int axis, int vars) const {
        const auto [u, v] = plane_axes(axis);
        return static_cast<std::int64_t>(dim(u)) * dim(v) * vars;
    }
    /// Values in a level-crossing face message (restricted / quarter face).
    std::int64_t face_values_mixed(int axis, int vars) const {
        const auto [u, v] = plane_axes(axis);
        return static_cast<std::int64_t>(dim(u) / 2) * (dim(v) / 2) * vars;
    }
};

/// A mesh block with data. Movable, non-copyable (data can be large).
/// Its cells live in a buffer of its arena, zeroed at construction and
/// returned to the arena by the destructor. Moving hands the buffer over;
/// a moved-from block holds none.
class Block {
public:
    /// A block with a private arena.
    Block(BlockKey key, const BlockShape& shape);
    /// A block whose buffer comes from `arena` (sized for `shape`).
    Block(BlockKey key, const BlockShape& shape, std::shared_ptr<BlockArena> arena);
    ~Block();

    Block(Block&& other) noexcept;
    Block& operator=(Block&& other) noexcept;
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    const BlockKey& key() const { return key_; }
    void set_key(BlockKey k) { key_ = k; }
    const BlockShape& shape() const { return shape_; }

    double* data() { return data_; }
    const double* data() const { return data_; }
    std::size_t data_size() const {
        return data_ != nullptr ? static_cast<std::size_t>(shape_.total_cells()) : 0;
    }
    /// Contiguous storage of variables [var_begin, var_end) — the unit the
    /// paper's task dependencies are declared on (§IV-D).
    std::span<double> group_span(int var_begin, int var_end);
    std::span<const double> group_span(int var_begin, int var_end) const;

    double& at(int var, int x, int y, int z) {
        return data_[static_cast<std::size_t>(index(var, x, y, z))];
    }
    double at(int var, int x, int y, int z) const {
        return data_[static_cast<std::size_t>(index(var, x, y, z))];
    }

    /// Initializes interior cells from the deterministic field function
    /// evaluated at each cell's physical center (identical across variants
    /// and decompositions). `box` is the block's physical region.
    void init_cells(const Box& box, std::uint64_t seed);

    // --- face transfers -------------------------------------------------
    /// Number of doubles pack/unpack move for this geometry and var range.
    std::int64_t face_value_count(const FaceGeom& g, int vars) const;
    /// Packs this block's boundary face into `out` (sized face_value_count).
    /// Applies restriction when the receiver is coarser, and selects the
    /// correct quarter when the receiver is finer.
    void pack_face(const FaceGeom& g, int var_begin, int var_end, std::span<double> out) const;
    /// Unpacks a received face into this block's ghost layer. Applies
    /// prolongation when the sender is coarser.
    void unpack_face(const FaceGeom& g, int var_begin, int var_end, std::span<const double> in);
    /// Direct intra-rank ghost fill: moves exactly the values src.pack_face
    /// followed by this->unpack_face would, with no buffer in between.
    /// `src` must have this block's shape.
    void copy_face_from(const Block& src, const FaceGeom& g, int var_begin, int var_end);
    /// Domain-boundary ghost fill: reflects the boundary plane (Neumann).
    void reflect_face(int axis, int sense, int var_begin, int var_end);

    // --- refinement data operations --------------------------------------
    /// Fills this block (a child in `octant`) from its parent's data:
    /// every parent cell is replicated 2x2x2 at the finer resolution.
    void fill_from_parent(const Block& parent, int octant);
    /// Accumulates a child's data into this (parent) block: each parent cell
    /// becomes the average of the 8 covering child cells.
    void absorb_child(const Block& child, int octant);

    // --- compute -----------------------------------------------------------
    /// 7-point stencil sweep over [var_begin, var_end). Returns FLOPs done.
    std::int64_t stencil7(int var_begin, int var_end);
    /// 27-point stencil sweep (miniAMR's alternative stencil).
    std::int64_t stencil27(int var_begin, int var_end);
    /// In-place update of variables [var_begin, var_end), one z-row at a
    /// time: `row(v, x, y, in, out)` writes the new values of row (v, x, y)'s
    /// nz interior cells to out[0, nz), reading only original values. in[k]
    /// is cell (v, x, y, k + 1); its neighbours are in[k ± 1] along z,
    /// in[k ± stride_y()] along y and in[k ± stride_x()] along x, ghosts
    /// included. Rows of plane x read planes x-1..x+1 only, so two scratch
    /// planes suffice: plane x-1 is copied back once plane x is done. The
    /// planes live in this thread's tls_scratch, which `row` must not use.
    template <class Row>
    void update_rows(int var_begin, int var_end, Row&& row);
    /// Dispatches on the configured stencil (7 or 27 points).
    std::int64_t apply_stencil(int stencil_points, int var_begin, int var_end) {
        return stencil_points == 27 ? stencil27(var_begin, var_end)
                                    : stencil7(var_begin, var_end);
    }
    /// Sum of interior cells over [var_begin, var_end).
    double checksum(int var_begin, int var_end) const;

private:
    std::int64_t index(int var, int x, int y, int z) const {
        return var * shape_.stride_var() + x * shape_.stride_x() + y * shape_.stride_y() + z;
    }
    /// Fills edge/corner ghosts (not covered by face exchange) by clamping
    /// to the nearest valid cell — needed by the 27-point stencil.
    void fill_ghost_edges(int var);

    BlockKey key_;
    BlockShape shape_;
    std::shared_ptr<BlockArena> arena_;
    double* data_ = nullptr;
};

template <class Row>
void Block::update_rows(int var_begin, int var_end, Row&& row) {
    const int nx = shape_.nx, ny = shape_.ny, nz = shape_.nz;
    const std::size_t plane = static_cast<std::size_t>(ny) * nz;
    double* const scratch = tls_scratch(2 * plane).data();
    const auto buffer = [&](int x, int y) {
        return scratch + static_cast<std::size_t>(x & 1) * plane +
               static_cast<std::size_t>(y - 1) * nz;
    };
    const auto write_back = [&](int v, int x) {
        for (int y = 1; y <= ny; ++y) std::copy_n(buffer(x, y), nz, &at(v, x, y, 1));
    };
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= nx; ++x) {
            for (int y = 1; y <= ny; ++y) {
                row(v, x, y, static_cast<const double*>(&at(v, x, y, 1)), buffer(x, y));
            }
            if (x > 1) write_back(v, x - 1);
        }
        write_back(v, nx);
    }
}

}  // namespace dfamr::amr
