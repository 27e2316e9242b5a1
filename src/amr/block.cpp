#include "amr/block.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace dfamr::amr {

namespace {

/// Deterministic cell field: hash of the quantized physical position and the
/// variable index, mapped to [1, 2). Identical across variants and
/// decompositions by construction.
double field_value(int var, const Vec3d& pos, std::uint64_t seed) {
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    constexpr double kScale = 1 << 20;
    std::uint64_t h = seed;
    h = mix(h ^ static_cast<std::uint64_t>(var));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.x * kScale)));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.y * kScale)));
    h = mix(h ^ static_cast<std::uint64_t>(std::llround(pos.z * kScale)));
    return 1.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

BlockKey BlockKey::child(int octant, int max_level) const {
    DFAMR_ASSERT(level < max_level && octant >= 0 && octant < 8);
    const std::int64_t half = side(max_level) / 2;
    BlockKey c;
    c.level = level + 1;
    c.anchor = {anchor.x + ((octant & 1) ? half : 0), anchor.y + ((octant & 2) ? half : 0),
                anchor.z + ((octant & 4) ? half : 0)};
    return c;
}

BlockKey BlockKey::parent(int max_level) const {
    DFAMR_ASSERT(level > 0);
    const std::int64_t parent_side = side(max_level) * 2;
    BlockKey p;
    p.level = level - 1;
    p.anchor = {(anchor.x / parent_side) * parent_side, (anchor.y / parent_side) * parent_side,
                (anchor.z / parent_side) * parent_side};
    return p;
}

int BlockKey::octant_in_parent(int max_level) const {
    const std::int64_t s = side(max_level);
    const BlockKey p = parent(max_level);
    int o = 0;
    if (anchor.x - p.anchor.x >= s) o |= 1;
    if (anchor.y - p.anchor.y >= s) o |= 2;
    if (anchor.z - p.anchor.z >= s) o |= 4;
    return o;
}

namespace {
std::size_t checked_cells(const BlockShape& shape) {
    DFAMR_REQUIRE(shape.nx > 0 && shape.ny > 0 && shape.nz > 0 && shape.num_vars > 0,
                  "invalid block shape");
    return static_cast<std::size_t>(shape.total_cells());
}
}  // namespace

Block::Block(BlockKey key, const BlockShape& shape)
    : Block(key, shape, std::make_shared<BlockArena>(checked_cells(shape))) {}

Block::Block(BlockKey key, const BlockShape& shape, std::shared_ptr<BlockArena> arena)
    : key_(key), shape_(shape), arena_(std::move(arena)) {
    DFAMR_REQUIRE(arena_ != nullptr && arena_->buffer_doubles() == checked_cells(shape),
                  "block arena buffers do not match the block shape");
    data_ = arena_->acquire();
}

Block::~Block() {
    if (data_ != nullptr) arena_->release(data_);
}

Block::Block(Block&& other) noexcept
    : key_(other.key_),
      shape_(other.shape_),
      arena_(std::move(other.arena_)),
      data_(std::exchange(other.data_, nullptr)) {}

Block& Block::operator=(Block&& other) noexcept {
    if (this != &other) {
        if (data_ != nullptr) arena_->release(data_);
        key_ = other.key_;
        shape_ = other.shape_;
        arena_ = std::move(other.arena_);
        data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
}

std::span<double> Block::group_span(int var_begin, int var_end) {
    return {data_ + var_begin * shape_.stride_var(),
            static_cast<std::size_t>((var_end - var_begin) * shape_.stride_var())};
}
std::span<const double> Block::group_span(int var_begin, int var_end) const {
    return {data_ + var_begin * shape_.stride_var(),
            static_cast<std::size_t>((var_end - var_begin) * shape_.stride_var())};
}

void Block::init_cells(const Box& box, std::uint64_t seed) {
    const Vec3d ext = box.extent();
    const Vec3d cell{ext.x / shape_.nx, ext.y / shape_.ny, ext.z / shape_.nz};
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    const Vec3d pos{box.lo.x + (x - 0.5) * cell.x, box.lo.y + (y - 0.5) * cell.y,
                                    box.lo.z + (z - 0.5) * cell.z};
                    at(v, x, y, z) = field_value(v, pos, seed);
                }
            }
        }
    }
}

std::int64_t Block::face_value_count(const FaceGeom& g, int vars) const {
    return g.rel == FaceRel::Same ? shape_.face_values_same(g.axis, vars)
                                  : shape_.face_values_mixed(g.axis, vars);
}

namespace {

using Unit = std::integral_constant<std::int64_t, 1>;

/// Rows of a face or a message through a raw pointer: row r starts at
/// `p + r * row` and its cell c sits at `c * cell` from there. `Cell` is
/// the compile-time Unit for contiguous rows (message buffers, and x and y
/// faces, whose rows run along z) and the runtime nz + 2 on z faces.
template <class T, class Cell>
struct Rows {
    T* p;
    std::int64_t row;
    Cell cell;

    static constexpr bool kContiguous = std::is_same_v<Cell, Unit>;

    T* operator[](std::int64_t r) const { return p + r * row; }
    /// The quarter `quad` of an (2 hu) x (2 hv) window (u-half in bit 0,
    /// v-half in bit 1, as FaceGeom::quad).
    Rows quarter(int quad, int hu, int hv) const {
        return {p + (quad & 1) * hu * row + ((quad >> 1) & 1) * hv * cell, row, cell};
    }
};

/// A message section: rows of `width` values, back to back.
template <class T>
Rows<T, Unit> dense(T* p, int width) {
    return {p, width, Unit{}};
}

/// The interior U x V window of variable `k`'s plane `a` along the face
/// normal.
template <class T, class Cell>
Rows<T, Cell> face_rows(T* data, const FaceStrides& f, int k, int a, Cell cell) {
    return {data + f.index(k, a, 1, 1), f.u, cell};
}

/// Runs `body(cell)` with the face's in-row stride, as the compile-time
/// Unit when it is 1 so x- and y-face rows compile to contiguous copies.
template <class Body>
void with_cell_stride(const FaceStrides& f, Body&& body) {
    if (f.v == 1) {
        body(Unit{});
    } else {
        body(f.v);
    }
}

/// dst[u][v] = src[u][v] over nu x nv.
template <class D, class S>
void copy_rows(const D& dst, const S& src, int nu, int nv) {
    for (int u = 0; u < nu; ++u) {
        auto* d = dst[u];
        const auto* s = src[u];
        if constexpr (D::kContiguous && S::kContiguous) {
            std::copy_n(s, nv, d);
        } else {
            for (std::int64_t v = 0; v < nv; ++v) d[v * dst.cell] = s[v * src.cell];
        }
    }
}

/// dst[u][v] = the quarter-average of src's 2x2 cells at (2u, 2v), over
/// nu x nv coarse cells. The sum starts from +0.0 and adds the cells in
/// (du, dv) order (0,0), (0,1), (1,0), (1,1): the exact arithmetic every
/// message carries, down to the sign of a zero.
template <class D, class S>
void restrict_rows(const D& dst, const S& src, int nu, int nv) {
    for (int u = 0; u < nu; ++u) {
        auto* d = dst[u];
        const auto* s0 = src[2 * u];
        const auto* s1 = src[2 * u + 1];
        for (std::int64_t v = 0; v < nv; ++v) {
            const std::int64_t c0 = 2 * v * src.cell, c1 = (2 * v + 1) * src.cell;
            double sum = 0;
            sum += s0[c0];
            sum += s0[c1];
            sum += s1[c0];
            sum += s1[c1];
            d[v * dst.cell] = 0.25 * sum;
        }
    }
}

/// dst[u][v] = src[u / 2][v / 2] over nu x nv fine cells (nv is even:
/// Config::validate keeps block sizes even for level-crossing faces).
template <class D, class S>
void prolong_rows(const D& dst, const S& src, int nu, int nv) {
    for (int u = 0; u < nu; ++u) {
        auto* d = dst[u];
        const auto* s = src[u / 2];
        for (std::int64_t v = 0; v < nv / 2; ++v) {
            const double x = s[v * src.cell];
            d[2 * v * dst.cell] = x;
            d[(2 * v + 1) * dst.cell] = x;
        }
    }
}

}  // namespace

void Block::pack_face(const FaceGeom& g, int var_begin, int var_end, std::span<double> out) const {
    DFAMR_REQUIRE(static_cast<std::int64_t>(out.size()) == face_value_count(g, var_end - var_begin),
                  "pack_face: wrong buffer size");
    const FaceStrides f = shape_.face_strides(g.axis);
    const int hu = f.U / 2, hv = f.V / 2;
    const int a = g.sense > 0 ? shape_.dim(g.axis) : 1;  // interior boundary plane
    double* o = out.data();
    with_cell_stride(f, [&](auto cell) {
        for (int var = var_begin; var < var_end; ++var) {
            const auto mine = face_rows(data(), f, var, a, cell);
            switch (g.rel) {
                case FaceRel::Same:
                    copy_rows(dense(o, f.V), mine, f.U, f.V);
                    o += f.U * f.V;
                    break;
                case FaceRel::Coarser:  // receiver coarser: restrict my whole face
                    restrict_rows(dense(o, hv), mine, hu, hv);
                    o += hu * hv;
                    break;
                case FaceRel::Finer:  // receiver finer: send quarter `quad` raw
                    copy_rows(dense(o, hv), mine.quarter(g.quad, hu, hv), hu, hv);
                    o += hu * hv;
                    break;
            }
        }
    });
}

void Block::unpack_face(const FaceGeom& g, int var_begin, int var_end,
                        std::span<const double> in) {
    DFAMR_REQUIRE(static_cast<std::int64_t>(in.size()) == face_value_count(g, var_end - var_begin),
                  "unpack_face: wrong buffer size");
    const FaceStrides f = shape_.face_strides(g.axis);
    const int hu = f.U / 2, hv = f.V / 2;
    const int a = g.sense > 0 ? shape_.dim(g.axis) + 1 : 0;  // ghost plane
    const double* o = in.data();
    with_cell_stride(f, [&](auto cell) {
        for (int var = var_begin; var < var_end; ++var) {
            const auto mine = face_rows(data_, f, var, a, cell);
            switch (g.rel) {
                case FaceRel::Same:
                    copy_rows(mine, dense(o, f.V), f.U, f.V);
                    o += f.U * f.V;
                    break;
                case FaceRel::Coarser:  // sender coarser: prolong onto my ghosts
                    prolong_rows(mine, dense(o, hv), f.U, f.V);
                    o += hu * hv;
                    break;
                case FaceRel::Finer:  // sender finer: place into quarter `quad`
                    copy_rows(mine.quarter(g.quad, hu, hv), dense(o, hv), hu, hv);
                    o += hu * hv;
                    break;
            }
        }
    });
}

void Block::copy_face_from(const Block& src, const FaceGeom& g, int var_begin, int var_end) {
    // `g` is my view: rel = the source's level vs mine, sense = the side of
    // me the source is on; `quad` names the quarter of the coarser side's
    // face. The values are exactly those src.pack_face (in the sender's
    // view) followed by unpack_face would move, without the buffer.
    DFAMR_REQUIRE(src.shape_ == shape_, "copy_face_from: source block has another shape");
    const FaceStrides f = shape_.face_strides(g.axis);
    const int hu = f.U / 2, hv = f.V / 2;
    const int n = shape_.dim(g.axis);
    const int ghost = g.sense > 0 ? n + 1 : 0;
    const int boundary = g.sense > 0 ? 1 : n;  // the source's interior plane facing me
    with_cell_stride(f, [&](auto cell) {
        for (int var = var_begin; var < var_end; ++var) {
            const auto mine = face_rows(data_, f, var, ghost, cell);
            const auto theirs = face_rows(src.data(), f, var, boundary, cell);
            switch (g.rel) {
                case FaceRel::Same:
                    copy_rows(mine, theirs, f.U, f.V);
                    break;
                case FaceRel::Coarser:  // prolong from the source's quarter `quad`
                    prolong_rows(mine, theirs.quarter(g.quad, hu, hv), f.U, f.V);
                    break;
                case FaceRel::Finer:  // restrict the source into my quarter `quad`
                    restrict_rows(mine.quarter(g.quad, hu, hv), theirs, hu, hv);
                    break;
            }
        }
    });
}

void Block::reflect_face(int axis, int sense, int var_begin, int var_end) {
    const FaceStrides f = shape_.face_strides(axis);
    const int n = shape_.dim(axis);
    with_cell_stride(f, [&](auto cell) {
        for (int var = var_begin; var < var_end; ++var) {
            copy_rows(face_rows(data_, f, var, sense > 0 ? n + 1 : 0, cell),
                      face_rows(data_, f, var, sense > 0 ? n : 1, cell),
                      f.U, f.V);
        }
    });
}

void Block::fill_from_parent(const Block& parent, int octant) {
    const int ox = (octant & 1) * (shape_.nx / 2);
    const int oy = ((octant >> 1) & 1) * (shape_.ny / 2);
    const int oz = ((octant >> 2) & 1) * (shape_.nz / 2);
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            const int px = ox + (x + 1) / 2;
            for (int y = 1; y <= shape_.ny; ++y) {
                const int py = oy + (y + 1) / 2;
                for (int z = 1; z <= shape_.nz; ++z) {
                    const int pz = oz + (z + 1) / 2;
                    at(v, x, y, z) = parent.at(v, px, py, pz);
                }
            }
        }
    }
}

void Block::absorb_child(const Block& child, int octant) {
    const int ox = (octant & 1) * (shape_.nx / 2);
    const int oy = ((octant >> 1) & 1) * (shape_.ny / 2);
    const int oz = ((octant >> 2) & 1) * (shape_.nz / 2);
    // Zero my octant region, then accumulate the average of 2x2x2 children.
    for (int v = 0; v < shape_.num_vars; ++v) {
        for (int x = 1; x <= shape_.nx / 2; ++x) {
            for (int y = 1; y <= shape_.ny / 2; ++y) {
                for (int z = 1; z <= shape_.nz / 2; ++z) {
                    at(v, ox + x, oy + y, oz + z) = 0.0;
                }
            }
        }
        for (int x = 1; x <= shape_.nx; ++x) {
            const int px = ox + (x + 1) / 2;
            for (int y = 1; y <= shape_.ny; ++y) {
                const int py = oy + (y + 1) / 2;
                for (int z = 1; z <= shape_.nz; ++z) {
                    const int pz = oz + (z + 1) / 2;
                    at(v, px, py, pz) += 0.125 * child.at(v, x, y, z);
                }
            }
        }
    }
}

std::int64_t Block::stencil7(int var_begin, int var_end) {
    // The per-cell expression is the contract that keeps checksums
    // bit-identical: the six neighbours in this order, then the centre, then
    // / 7.0 (1/7 is not exactly representable, so a multiplication would
    // change results).
    const std::int64_t sx = shape_.stride_x(), sy = shape_.stride_y();
    const int nz = shape_.nz;
    update_rows(var_begin, var_end, [=](int, int, int, const double* in, double* out) {
        for (int k = 0; k < nz; ++k) {
            out[k] = (in[k - sx] + in[k + sx] + in[k - sy] + in[k + sy] + in[k - 1] + in[k + 1] +
                      in[k]) /
                     7.0;
        }
    });
    // miniAMR accounting: 7 floating-point operations per cell per variable.
    return 7 * static_cast<std::int64_t>(shape_.nx) * shape_.ny * shape_.nz *
           (var_end - var_begin);
}

void Block::fill_ghost_edges(int var) {
    // Face exchange fills face ghosts only; the 27-point stencil also reads
    // the 12 edges and 8 corners of the ghost shell. Fill them block-locally
    // by clamping to the nearest interior cell (deterministic and identical
    // across variants). Every source is an interior cell, so the visiting
    // order cannot matter.
    const int nx = shape_.nx, ny = shape_.ny, nz = shape_.nz;
    const auto clamp1 = [](int c, int n) { return c < 1 ? 1 : (c > n ? n : c); };
    const auto fill = [&](int x, int y, int z) {
        at(var, x, y, z) = at(var, clamp1(x, nx), clamp1(y, ny), clamp1(z, nz));
    };
    for (const int x : {0, nx + 1}) {
        for (const int y : {0, ny + 1}) {
            for (int z = 0; z <= nz + 1; ++z) fill(x, y, z);  // edges along z, and corners
        }
        for (int y = 1; y <= ny; ++y) {
            for (const int z : {0, nz + 1}) fill(x, y, z);  // edges along y
        }
    }
    for (int x = 1; x <= nx; ++x) {
        for (const int y : {0, ny + 1}) {
            for (const int z : {0, nz + 1}) fill(x, y, z);  // edges along x
        }
    }
}

std::int64_t Block::stencil27(int var_begin, int var_end) {
    // Bit-identical contract as in stencil7: the sum starts from +0.0 and
    // adds the 27 cells in (dx, dy, dz) order, dz innermost, each from -1 to
    // +1, then divides by 27.0.
    const std::int64_t sx = shape_.stride_x(), sy = shape_.stride_y();
    const int nz = shape_.nz;
    for (int v = var_begin; v < var_end; ++v) fill_ghost_edges(v);
    update_rows(var_begin, var_end, [=](int, int, int, const double* in, double* out) {
        // The nine rows around this one, in (dx, dy) order.
        std::array<const double*, 9> rows{};
        std::size_t i = 0;
        for (int dx = -1; dx <= 1; ++dx) {
            for (int dy = -1; dy <= 1; ++dy) rows[i++] = in + dx * sx + dy * sy;
        }
        for (int k = 0; k < nz; ++k) {
            double sum = 0;
            for (const double* r : rows) {
                sum += r[k - 1];
                sum += r[k];
                sum += r[k + 1];
            }
            out[k] = sum / 27.0;
        }
    });
    return 27 * static_cast<std::int64_t>(shape_.nx) * shape_.ny * shape_.nz *
           (var_end - var_begin);
}

double Block::checksum(int var_begin, int var_end) const {
    double sum = 0;
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= shape_.nx; ++x) {
            for (int y = 1; y <= shape_.ny; ++y) {
                for (int z = 1; z <= shape_.nz; ++z) {
                    sum += at(v, x, y, z);
                }
            }
        }
    }
    return sum;
}

}  // namespace dfamr::amr
