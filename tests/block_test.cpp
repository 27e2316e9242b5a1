// Tests for Block: keys, storage, face pack/unpack (incl. restriction and
// prolongation), refinement data operations, stencils, checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amr/block.hpp"
#include "amr/flux_register.hpp"
#include "common/error.hpp"

namespace dfamr::amr {
namespace {

constexpr int kMaxLevel = 4;

BlockShape small_shape() { return BlockShape{4, 4, 4, 2}; }

Block make_filled(const BlockShape& shape, double base = 0.0) {
    Block b(BlockKey{}, shape);
    for (int v = 0; v < shape.num_vars; ++v) {
        for (int x = 0; x <= shape.nx + 1; ++x) {
            for (int y = 0; y <= shape.ny + 1; ++y) {
                for (int z = 0; z <= shape.nz + 1; ++z) {
                    b.at(v, x, y, z) = base + v * 10000 + x * 100 + y * 10 + z;
                }
            }
        }
    }
    return b;
}

TEST(BlockKey, ChildParentRoundTrip) {
    BlockKey root{1, {8, 16, 24}};
    for (int octant = 0; octant < 8; ++octant) {
        const BlockKey c = root.child(octant, kMaxLevel);
        EXPECT_EQ(c.level, 2);
        EXPECT_EQ(c.parent(kMaxLevel), root) << "octant " << octant;
        EXPECT_EQ(c.octant_in_parent(kMaxLevel), octant);
    }
}

TEST(BlockKey, ChildAnchors) {
    BlockKey root{0, {0, 0, 0}};
    EXPECT_EQ(root.side(kMaxLevel), 16);
    const BlockKey c7 = root.child(7, kMaxLevel);
    EXPECT_EQ(c7.anchor, (Vec3l{8, 8, 8}));
    const BlockKey c1 = root.child(1, kMaxLevel);
    EXPECT_EQ(c1.anchor, (Vec3l{8, 0, 0}));
    const BlockKey c2 = root.child(2, kMaxLevel);
    EXPECT_EQ(c2.anchor, (Vec3l{0, 8, 0}));
    const BlockKey c4 = root.child(4, kMaxLevel);
    EXPECT_EQ(c4.anchor, (Vec3l{0, 0, 8}));
}

TEST(Block, GroupSpanCoversVariables) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    auto s01 = b.group_span(0, 2);
    EXPECT_EQ(static_cast<std::int64_t>(s01.size()), shape.total_cells());
    auto s1 = b.group_span(1, 2);
    EXPECT_EQ(s1.data(), b.data() + shape.stride_var());
}

TEST(Block, InitCellsDeterministicAndDecompositionInvariant) {
    const BlockShape shape = small_shape();
    const Box box{{0, 0, 0}, {0.5, 0.5, 0.5}};
    Block a(BlockKey{}, shape), b(BlockKey{}, shape);
    a.init_cells(box, 42);
    b.init_cells(box, 42);
    EXPECT_EQ(a.at(0, 1, 1, 1), b.at(0, 1, 1, 1));
    EXPECT_EQ(a.at(1, 4, 4, 4), b.at(1, 4, 4, 4));
    Block c(BlockKey{}, shape);
    c.init_cells(box, 43);
    EXPECT_NE(a.at(0, 1, 1, 1), c.at(0, 1, 1, 1));
    // Values live in [1, 2).
    for (int x = 1; x <= 4; ++x) {
        EXPECT_GE(a.at(0, x, 1, 1), 1.0);
        EXPECT_LT(a.at(0, x, 1, 1), 2.0);
    }
}

TEST(Block, PackUnpackSameLevelRoundTrip) {
    const BlockShape shape = small_shape();
    Block src = make_filled(shape);
    Block dst(BlockKey{}, shape);

    // src's +x boundary becomes dst's -x ghost (dst sits at src's +x side).
    FaceGeom pack_geom{0, +1, FaceRel::Same, 0};
    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_same(0, 2)));
    src.pack_face(pack_geom, 0, 2, buf);

    FaceGeom unpack_geom{0, -1, FaceRel::Same, 0};
    dst.unpack_face(unpack_geom, 0, 2, buf);
    for (int v = 0; v < 2; ++v) {
        for (int y = 1; y <= 4; ++y) {
            for (int z = 1; z <= 4; ++z) {
                EXPECT_EQ(dst.at(v, 0, y, z), src.at(v, 4, y, z));
            }
        }
    }
}

TEST(Block, CopyFaceMatchesPackUnpack) {
    const BlockShape shape = small_shape();
    Block src = make_filled(shape, 5.0);
    Block a(BlockKey{}, shape), b(BlockKey{}, shape);

    FaceGeom geom{1, +1, FaceRel::Same, 0};  // my +y neighbor is src
    a.copy_face_from(src, geom, 0, 2);

    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_same(1, 2)));
    src.pack_face(FaceGeom{1, -1, FaceRel::Same, 0}, 0, 2, buf);
    b.unpack_face(geom, 0, 2, buf);
    for (int v = 0; v < 2; ++v) {
        for (int x = 1; x <= 4; ++x) {
            for (int z = 1; z <= 4; ++z) {
                EXPECT_EQ(a.at(v, x, 5, z), b.at(v, x, 5, z));
                EXPECT_EQ(a.at(v, x, 5, z), src.at(v, x, 1, z));
            }
        }
    }
}

TEST(Block, RestrictionAveragesFourCells) {
    const BlockShape shape = small_shape();
    Block fine = make_filled(shape);
    // Fine sends its +x face to a coarser receiver: restricted to 2x2 values.
    FaceGeom geom{0, +1, FaceRel::Coarser, 0};
    std::vector<double> buf(static_cast<std::size_t>(shape.face_values_mixed(0, 1)));
    fine.pack_face(geom, 0, 1, buf);
    ASSERT_EQ(buf.size(), 4u);
    const double expect00 = 0.25 * (fine.at(0, 4, 1, 1) + fine.at(0, 4, 1, 2) +
                                    fine.at(0, 4, 2, 1) + fine.at(0, 4, 2, 2));
    EXPECT_DOUBLE_EQ(buf[0], expect00);
}

TEST(Block, ProlongationReplicatesCoarseCells) {
    const BlockShape shape = small_shape();
    Block fine(BlockKey{}, shape);
    // Fine receives its whole -x ghost plane from a coarser sender: the
    // message holds 2x2 coarse values, each replicated to 2x2 fine ghosts.
    std::vector<double> buf = {10, 20, 30, 40};  // (u,v) = (0,0),(0,1),(1,0),(1,1)
    FaceGeom geom{0, -1, FaceRel::Coarser, 0};
    fine.unpack_face(geom, 0, 1, buf);
    // u indexes y, v indexes z; layout is u-major (v contiguous).
    EXPECT_EQ(fine.at(0, 0, 1, 1), 10);
    EXPECT_EQ(fine.at(0, 0, 1, 2), 10);
    EXPECT_EQ(fine.at(0, 0, 2, 2), 10);
    EXPECT_EQ(fine.at(0, 0, 1, 3), 20);
    EXPECT_EQ(fine.at(0, 0, 3, 1), 30);
    EXPECT_EQ(fine.at(0, 0, 4, 4), 40);
}

TEST(Block, QuarterFacePlacementForFinerNeighbors) {
    const BlockShape shape = small_shape();
    Block coarse(BlockKey{}, shape);
    // A finer neighbor in quad 3 (u-half 1, v-half 1) sends its restricted
    // face; it lands in the (y in 3..4, z in 3..4) quarter of the ghost.
    std::vector<double> buf = {1, 2, 3, 4};
    FaceGeom geom{0, +1, FaceRel::Finer, 3};
    coarse.unpack_face(geom, 0, 1, buf);
    EXPECT_EQ(coarse.at(0, 5, 3, 3), 1);
    EXPECT_EQ(coarse.at(0, 5, 3, 4), 2);
    EXPECT_EQ(coarse.at(0, 5, 4, 3), 3);
    EXPECT_EQ(coarse.at(0, 5, 4, 4), 4);
    EXPECT_EQ(coarse.at(0, 5, 1, 1), 0) << "other quarters untouched";
}

TEST(Block, MixedLevelCopyRoundTripConservesFaceMean) {
    // fine -> coarse restriction followed by coarse -> fine prolongation
    // preserves each 2x2 group's mean.
    const BlockShape shape = small_shape();
    Block fine = make_filled(shape);
    Block coarse(BlockKey{}, shape);
    // Coarse's -x neighbor region quad 0 is the fine block.
    coarse.copy_face_from(fine, FaceGeom{0, -1, FaceRel::Finer, 0}, 0, 1);
    const double mean = 0.25 * (fine.at(0, 4, 1, 1) + fine.at(0, 4, 1, 2) +
                                fine.at(0, 4, 2, 1) + fine.at(0, 4, 2, 2));
    EXPECT_DOUBLE_EQ(coarse.at(0, 0, 1, 1), mean);
}

TEST(Block, ReflectFaceCopiesBoundaryPlane) {
    const BlockShape shape = small_shape();
    Block b = make_filled(shape);
    b.reflect_face(2, -1, 0, 2);
    for (int v = 0; v < 2; ++v) {
        for (int x = 1; x <= 4; ++x) {
            for (int y = 1; y <= 4; ++y) {
                EXPECT_EQ(b.at(v, x, y, 0), b.at(v, x, y, 1));
            }
        }
    }
}

// --- face-kernel oracle ------------------------------------------------------
// Element-wise reference kernels: one cell at a time through (axis, plane
// coordinate a, in-plane u, v) -> (x, y, z) and Block::at. They pin the face
// transfers' value order and arithmetic independently of the production
// kernels' strides, on a non-cubic shape so an axis mix-up cannot cancel out.

const BlockShape kNonCubic{6, 4, 8, 3};
constexpr int kVarBegin = 1, kVarEnd = 3;

/// Cell (x, y, z) at plane coordinate `a` along `axis`, in-plane (u, v).
Vec3i face_cell(int axis, int a, int u, int v) {
    const auto [ua, va] = BlockShape{}.plane_axes(axis);
    Vec3i c;
    c[axis] = a;
    c[ua] = u;
    c[va] = v;
    return c;
}

std::vector<double> ref_pack(const Block& b, const FaceGeom& g, int var_begin, int var_end) {
    const BlockShape& s = b.shape();
    const auto [ua, va] = s.plane_axes(g.axis);
    const int U = s.dim(ua), V = s.dim(va);
    const int a = g.sense > 0 ? s.dim(g.axis) : 1;  // interior boundary plane
    const auto val = [&](int var, int u, int v) {
        const Vec3i c = face_cell(g.axis, a, u, v);
        return b.at(var, c.x, c.y, c.z);
    };
    std::vector<double> out;
    for (int var = var_begin; var < var_end; ++var) {
        if (g.rel == FaceRel::Same) {
            for (int u = 1; u <= U; ++u) {
                for (int v = 1; v <= V; ++v) out.push_back(val(var, u, v));
            }
        } else if (g.rel == FaceRel::Coarser) {
            for (int u = 0; u < U / 2; ++u) {
                for (int v = 0; v < V / 2; ++v) {
                    double sum = 0;
                    for (int du = 1; du <= 2; ++du) {
                        for (int dv = 1; dv <= 2; ++dv) sum += val(var, 2 * u + du, 2 * v + dv);
                    }
                    out.push_back(0.25 * sum);
                }
            }
        } else {
            const int qu = (g.quad & 1) * (U / 2);
            const int qv = ((g.quad >> 1) & 1) * (V / 2);
            for (int u = 0; u < U / 2; ++u) {
                for (int v = 0; v < V / 2; ++v) out.push_back(val(var, qu + u + 1, qv + v + 1));
            }
        }
    }
    return out;
}

void ref_unpack(Block& b, const FaceGeom& g, int var_begin, int var_end,
                const std::vector<double>& in) {
    const BlockShape& s = b.shape();
    const auto [ua, va] = s.plane_axes(g.axis);
    const int U = s.dim(ua), V = s.dim(va);
    const int a = g.sense > 0 ? s.dim(g.axis) + 1 : 0;  // ghost plane
    const auto cell = [&](int var, int u, int v) -> double& {
        const Vec3i c = face_cell(g.axis, a, u, v);
        return b.at(var, c.x, c.y, c.z);
    };
    std::size_t o = 0;
    for (int var = var_begin; var < var_end; ++var) {
        if (g.rel == FaceRel::Same) {
            for (int u = 1; u <= U; ++u) {
                for (int v = 1; v <= V; ++v) cell(var, u, v) = in.at(o++);
            }
        } else if (g.rel == FaceRel::Coarser) {
            for (int u = 1; u <= U; ++u) {
                for (int v = 1; v <= V; ++v) {
                    cell(var, u, v) =
                        in.at(o + static_cast<std::size_t>(((u - 1) / 2) * (V / 2) + (v - 1) / 2));
                }
            }
            o += static_cast<std::size_t>((U / 2) * (V / 2));
        } else {
            const int qu = (g.quad & 1) * (U / 2);
            const int qv = ((g.quad >> 1) & 1) * (V / 2);
            for (int u = 0; u < U / 2; ++u) {
                for (int v = 0; v < V / 2; ++v) cell(var, qu + u + 1, qv + v + 1) = in.at(o++);
            }
        }
    }
    ASSERT_EQ(o, in.size());
}

void ref_reflect(Block& b, int axis, int sense, int var_begin, int var_end) {
    const BlockShape& s = b.shape();
    const auto [ua, va] = s.plane_axes(axis);
    const int a_ghost = sense > 0 ? s.dim(axis) + 1 : 0;
    const int a_int = sense > 0 ? s.dim(axis) : 1;
    for (int var = var_begin; var < var_end; ++var) {
        for (int u = 1; u <= s.dim(ua); ++u) {
            for (int v = 1; v <= s.dim(va); ++v) {
                const Vec3i cg = face_cell(axis, a_ghost, u, v);
                const Vec3i ci = face_cell(axis, a_int, u, v);
                b.at(var, cg.x, cg.y, cg.z) = b.at(var, ci.x, ci.y, ci.z);
            }
        }
    }
}

/// Distinct pseudo-random values of either sign.
void fill_random(std::span<double> out, std::uint64_t seed) {
    std::uint64_t x = seed;
    for (double& d : out) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        d = static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
    }
}

/// Every cell, ghosts included, is random, so a misplaced or stray write
/// cannot go unnoticed.
Block make_random(const BlockShape& shape, std::uint64_t seed) {
    Block b(BlockKey{}, shape);
    fill_random({b.data(), b.data_size()}, seed);
    return b;
}

/// Bitwise equality of two blocks' whole storage (tells -0.0 from +0.0).
::testing::AssertionResult same_bits(const Block& a, const Block& b) {
    if (a.data_size() != b.data_size()) return ::testing::AssertionFailure() << "sizes differ";
    for (std::size_t i = 0; i < a.data_size(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                   << "first difference at index " << i << ": " << a.data()[i] << " vs "
                   << b.data()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/// The receiver's view of all 54 face geometries: 3 axes x 2 senses x
/// {Same, Coarser quad 0-3, Finer quad 0-3}.
std::vector<FaceGeom> all_face_geoms() {
    std::vector<FaceGeom> geoms;
    for (int axis = 0; axis < 3; ++axis) {
        for (int sense : {-1, +1}) {
            geoms.push_back(FaceGeom{axis, sense, FaceRel::Same, 0});
            for (FaceRel rel : {FaceRel::Coarser, FaceRel::Finer}) {
                for (int quad = 0; quad < 4; ++quad) {
                    geoms.push_back(FaceGeom{axis, sense, rel, quad});
                }
            }
        }
    }
    return geoms;
}

std::string describe(const FaceGeom& g) {
    const char* rel = g.rel == FaceRel::Same      ? "Same"
                      : g.rel == FaceRel::Coarser ? "Coarser"
                                                  : "Finer";
    return "axis " + std::to_string(g.axis) + " sense " + std::to_string(g.sense) + " " + rel +
           " quad " + std::to_string(g.quad);
}

/// The sender's view of the face whose receiver sees `g`.
FaceGeom sender_view(const FaceGeom& g) {
    FaceGeom s = g;
    s.sense = -g.sense;
    if (g.rel == FaceRel::Coarser) s.rel = FaceRel::Finer;
    if (g.rel == FaceRel::Finer) s.rel = FaceRel::Coarser;
    return s;
}

TEST(Block, CopyFaceFromEqualsPackThenUnpackOnEveryGeometry) {
    const Block src = make_random(kNonCubic, 1);
    for (const FaceGeom& g : all_face_geoms()) {
        Block direct = make_random(kNonCubic, 2);
        direct.copy_face_from(src, g, kVarBegin, kVarEnd);

        const FaceGeom sg = sender_view(g);
        std::vector<double> buf(
            static_cast<std::size_t>(src.face_value_count(sg, kVarEnd - kVarBegin)));
        src.pack_face(sg, kVarBegin, kVarEnd, buf);
        Block staged = make_random(kNonCubic, 2);
        staged.unpack_face(g, kVarBegin, kVarEnd, buf);
        EXPECT_TRUE(same_bits(direct, staged)) << describe(g);
    }
}

TEST(Block, PackUnpackAndReflectMatchElementwiseReference) {
    const Block src = make_random(kNonCubic, 3);
    for (const FaceGeom& g : all_face_geoms()) {
        const std::size_t n =
            static_cast<std::size_t>(src.face_value_count(g, kVarEnd - kVarBegin));
        std::vector<double> packed(n);
        src.pack_face(g, kVarBegin, kVarEnd, packed);
        const std::vector<double> expect = ref_pack(src, g, kVarBegin, kVarEnd);
        ASSERT_EQ(expect.size(), n) << describe(g);
        EXPECT_EQ(0, std::memcmp(packed.data(), expect.data(), n * sizeof(double)))
            << describe(g);

        std::vector<double> in(n);
        fill_random(in, 4);
        Block got = make_random(kNonCubic, 5);
        got.unpack_face(g, kVarBegin, kVarEnd, in);
        Block ref = make_random(kNonCubic, 5);
        ref_unpack(ref, g, kVarBegin, kVarEnd, in);
        EXPECT_TRUE(same_bits(got, ref)) << describe(g);
    }
    for (int axis = 0; axis < 3; ++axis) {
        for (int sense : {-1, +1}) {
            Block got = make_random(kNonCubic, 6);
            got.reflect_face(axis, sense, kVarBegin, kVarEnd);
            Block ref = make_random(kNonCubic, 6);
            ref_reflect(ref, axis, sense, kVarBegin, kVarEnd);
            EXPECT_TRUE(same_bits(got, ref)) << "reflect axis " << axis << " sense " << sense;
        }
    }
}

// --- stencil oracle -----------------------------------------------------------
// Element-wise references for the two stencils: every cell through Block::at,
// from a snapshot of the input, in the per-cell order the kernels must keep.

Block snapshot(const Block& b) {
    Block copy(b.key(), b.shape());
    std::copy_n(b.data(), b.data_size(), copy.data());
    return copy;
}

void ref_stencil7(Block& b, int var_begin, int var_end) {
    const BlockShape& s = b.shape();
    const Block in = snapshot(b);
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    b.at(v, x, y, z) = (in.at(v, x - 1, y, z) + in.at(v, x + 1, y, z) +
                                        in.at(v, x, y - 1, z) + in.at(v, x, y + 1, z) +
                                        in.at(v, x, y, z - 1) + in.at(v, x, y, z + 1) +
                                        in.at(v, x, y, z)) /
                                       7.0;
                }
            }
        }
    }
}

void ref_stencil27(Block& b, int var_begin, int var_end) {
    const BlockShape& s = b.shape();
    // Edge and corner ghosts (outside the interior along two or three axes)
    // take the nearest interior cell; face ghosts stay as they are.
    const auto clamp1 = [](int c, int n) { return std::clamp(c, 1, n); };
    const auto outside = [](int c, int n) { return c < 1 || c > n ? 1 : 0; };
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 0; x <= s.nx + 1; ++x) {
            for (int y = 0; y <= s.ny + 1; ++y) {
                for (int z = 0; z <= s.nz + 1; ++z) {
                    if (outside(x, s.nx) + outside(y, s.ny) + outside(z, s.nz) < 2) continue;
                    b.at(v, x, y, z) =
                        b.at(v, clamp1(x, s.nx), clamp1(y, s.ny), clamp1(z, s.nz));
                }
            }
        }
    }
    const Block in = snapshot(b);
    for (int v = var_begin; v < var_end; ++v) {
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    double sum = 0;
                    for (int dx = -1; dx <= 1; ++dx) {
                        for (int dy = -1; dy <= 1; ++dy) {
                            for (int dz = -1; dz <= 1; ++dz) sum += in.at(v, x + dx, y + dy, z + dz);
                        }
                    }
                    b.at(v, x, y, z) = sum / 27.0;
                }
            }
        }
    }
}

TEST(Block, StencilsMatchElementwiseReference) {
    // Whole storage compared, so the edge and corner ghosts the 27-point
    // stencil fills are covered too.
    const std::int64_t cells = 6 * 4 * 8 * (kVarEnd - kVarBegin);
    Block got7 = make_random(kNonCubic, 7), ref7 = make_random(kNonCubic, 7);
    EXPECT_EQ(got7.stencil7(kVarBegin, kVarEnd), 7 * cells);
    ref_stencil7(ref7, kVarBegin, kVarEnd);
    EXPECT_TRUE(same_bits(got7, ref7)) << "stencil7";

    Block got27 = make_random(kNonCubic, 8), ref27 = make_random(kNonCubic, 8);
    EXPECT_EQ(got27.stencil27(kVarBegin, kVarEnd), 27 * cells);
    ref_stencil27(ref27, kVarBegin, kVarEnd);
    EXPECT_TRUE(same_bits(got27, ref27)) << "stencil27";
}

TEST(Block, RestrictingNegativeZeroFaceGivesPositiveZero) {
    // The restriction sums into `double sum = 0` (+0.0), and +0.0 + -0.0 is
    // +0.0; a bare 0.25 * (a + b + c + d) would keep the -0.0.
    Block src(BlockKey{}, kNonCubic);
    std::fill(src.data(), src.data() + src.data_size(), -0.0);
    for (const FaceGeom& g : all_face_geoms()) {
        if (g.rel != FaceRel::Finer) continue;  // my finer neighbor restricts
        const std::size_t n =
            static_cast<std::size_t>(src.face_value_count(g, kVarEnd - kVarBegin));
        std::vector<double> packed(n, 1.0);
        src.pack_face(sender_view(g), kVarBegin, kVarEnd, packed);
        for (double x : packed) {
            ASSERT_FALSE(std::signbit(x)) << describe(g);
            ASSERT_EQ(x, 0.0) << describe(g);
        }
        Block got = make_random(kNonCubic, 7);
        got.copy_face_from(src, g, kVarBegin, kVarEnd);
        Block ref = make_random(kNonCubic, 7);
        ref_unpack(ref, g, kVarBegin, kVarEnd, std::vector<double>(n, +0.0));
        EXPECT_TRUE(same_bits(got, ref)) << describe(g);
    }
}

TEST(Block, CopyFaceFromRejectsSourceOfAnotherShape) {
    const Block other = make_random(BlockShape{4, 4, 4, 3}, 8);
    Block dst = make_random(kNonCubic, 9);
    for (const FaceGeom& g : all_face_geoms()) {
        EXPECT_THROW(dst.copy_face_from(other, g, kVarBegin, kVarEnd), Error) << describe(g);
    }
}

TEST(Block, SplitMergeRoundTripConservesSum) {
    const BlockShape shape = small_shape();
    Block parent = make_filled(shape, 3.0);
    const double before = parent.checksum(0, shape.num_vars);

    std::vector<Block> children;
    for (int octant = 0; octant < 8; ++octant) {
        Block child(BlockKey{}, shape);
        child.fill_from_parent(parent, octant);
        children.push_back(std::move(child));
    }
    // Each child cell equals its covering parent cell.
    EXPECT_EQ(children[0].at(0, 1, 1, 1), parent.at(0, 1, 1, 1));
    EXPECT_EQ(children[0].at(0, 2, 2, 2), parent.at(0, 1, 1, 1));
    EXPECT_EQ(children[7].at(0, 4, 4, 4), parent.at(0, 4, 4, 4));

    Block merged(BlockKey{}, shape);
    for (int octant = 0; octant < 8; ++octant) {
        merged.absorb_child(children[static_cast<std::size_t>(octant)], octant);
    }
    EXPECT_NEAR(merged.checksum(0, shape.num_vars), before, 1e-9);
    EXPECT_DOUBLE_EQ(merged.at(0, 3, 3, 3), parent.at(0, 3, 3, 3));
}

TEST(Block, Stencil7UniformFieldIsFixpoint) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    for (int v = 0; v < 2; ++v) {
        for (int x = 0; x <= 5; ++x) {
            for (int y = 0; y <= 5; ++y) {
                for (int z = 0; z <= 5; ++z) {
                    b.at(v, x, y, z) = 3.5;
                }
            }
        }
    }
    const std::int64_t flops = b.stencil7(0, 2);
    EXPECT_EQ(flops, 7 * 4 * 4 * 4 * 2);
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 3.5);
    EXPECT_DOUBLE_EQ(b.at(1, 4, 4, 4), 3.5);
}

TEST(Block, Stencil7AveragesNeighbors) {
    const BlockShape shape{2, 2, 2, 1};
    Block b(BlockKey{}, shape);
    b.at(0, 1, 1, 1) = 7.0;  // all other cells zero
    b.stencil7(0, 1);
    EXPECT_DOUBLE_EQ(b.at(0, 1, 1, 1), 1.0);   // 7/7
    EXPECT_DOUBLE_EQ(b.at(0, 2, 1, 1), 1.0);   // neighbor sees the 7
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 0.0);   // diagonal: untouched by 7-pt
}

TEST(Block, Stencil27IncludesDiagonals) {
    const BlockShape shape{2, 2, 2, 1};
    Block b(BlockKey{}, shape);
    b.at(0, 1, 1, 1) = 27.0;
    const std::int64_t flops = b.stencil27(0, 1);
    EXPECT_EQ(flops, 27 * 8);
    EXPECT_DOUBLE_EQ(b.at(0, 2, 2, 2), 1.0);  // diagonal neighbor included
}

TEST(Block, ChecksumSumsInteriorOnly) {
    const BlockShape shape = small_shape();
    Block b(BlockKey{}, shape);
    for (int x = 0; x <= 5; ++x) {
        for (int y = 0; y <= 5; ++y) {
            for (int z = 0; z <= 5; ++z) {
                b.at(0, x, y, z) = 1.0;  // ghosts too
            }
        }
    }
    EXPECT_DOUBLE_EQ(b.checksum(0, 1), 64.0);  // 4^3 interior cells
    EXPECT_DOUBLE_EQ(b.checksum(1, 2), 0.0);
}

TEST(Block, MoveHandsTheBufferOver) {
    const BlockShape shape{4, 4, 4, 2};
    const auto arena = std::make_shared<BlockArena>(static_cast<std::size_t>(shape.total_cells()));
    {
        Block a(BlockKey{}, shape, arena);
        a.at(1, 2, 3, 4) = 7.0;
        double* const buffer = a.data();
        Block b(std::move(a));
        EXPECT_EQ(b.data(), buffer);
        EXPECT_EQ(b.at(1, 2, 3, 4), 7.0);
        EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(a.data_size(), 0u);
        {
            Block c(BlockKey{}, shape, arena);
            c = std::move(b);  // c's own buffer goes back, b's comes over
            EXPECT_EQ(c.data(), buffer);
            EXPECT_EQ(c.at(1, 2, 3, 4), 7.0);
            EXPECT_EQ(arena->free_buffers(), 1u);
        }
        EXPECT_EQ(arena->free_buffers(), 2u);
    }
    // The moved-from a and b released nothing.
    EXPECT_EQ(arena->free_buffers(), 2u);
}

TEST(Block, FaceValueCounts) {
    const BlockShape shape{6, 4, 8, 3};
    Block b(BlockKey{}, shape);
    EXPECT_EQ(b.face_value_count(FaceGeom{0, +1, FaceRel::Same, 0}, 3), 4 * 8 * 3);
    EXPECT_EQ(b.face_value_count(FaceGeom{0, +1, FaceRel::Coarser, 0}, 3), 2 * 4 * 3);
    EXPECT_EQ(b.face_value_count(FaceGeom{1, +1, FaceRel::Finer, 2}, 1), 3 * 4);
    EXPECT_EQ(b.face_value_count(FaceGeom{2, -1, FaceRel::Same, 0}, 2), 6 * 4 * 2);
}

TEST(FluxRegister, SlotsAreDisjointAcrossFacesVariablesAndCells) {
    const BlockShape shape{6, 4, 8, 2};  // anisotropic: catches axis mixups
    FluxRegister reg(shape);
    // Stamp every slot with a unique value through at(); if any two slots
    // aliased, the read-back pass would see a later stamp.
    double stamp = 1.0;
    for (int var = 0; var < shape.num_vars; ++var) {
        for (int axis = 0; axis < 3; ++axis) {
            const auto [ua, va] = shape.plane_axes(axis);
            for (int sense : {-1, +1}) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        reg.at(axis, sense, var, u, v) = stamp++;
                    }
                }
            }
        }
    }
    double expect = 1.0;
    for (int var = 0; var < shape.num_vars; ++var) {
        for (int axis = 0; axis < 3; ++axis) {
            const auto [ua, va] = shape.plane_axes(axis);
            for (int sense : {-1, +1}) {
                for (int u = 1; u <= shape.dim(ua); ++u) {
                    for (int v = 1; v <= shape.dim(va); ++v) {
                        EXPECT_EQ(reg.at(axis, sense, var, u, v), expect)
                            << "axis " << axis << " sense " << sense << " var " << var << " ("
                            << u << "," << v << ")";
                        ++expect;
                    }
                }
            }
        }
    }
    // Var-major slices: each variable's registers are one contiguous run of
    // per_var values, so group task dependencies can be declared per slice.
    const std::size_t per_var = reg.slice(0, 1).size();
    EXPECT_EQ(per_var, 2u * (4 * 8 + 6 * 8 + 6 * 4));
    EXPECT_EQ(reg.slice(0, 2).size(), 2 * per_var);
    EXPECT_EQ(reg.slice(1, 2).data(), reg.slice(0, 2).data() + per_var);
}

TEST(FluxRegister, PackRestrictedQuarterAveragesInCoarserPackOrder) {
    const BlockShape shape{4, 4, 4, 2};
    FluxRegister reg(shape);
    const int axis = 0, sense = +1;  // +x face: u indexes y, v indexes z
    for (int var = 0; var < 2; ++var) {
        for (int u = 1; u <= 4; ++u) {
            for (int v = 1; v <= 4; ++v) {
                reg.at(axis, sense, var, u, v) = 1000 * var + 10 * u + v;
            }
        }
    }
    std::vector<double> out(static_cast<std::size_t>(shape.face_values_mixed(axis, 2)));
    reg.pack_restricted(axis, sense, 0, 2, out);
    ASSERT_EQ(out.size(), 8u);
    const auto avg = [&](int var, int u0, int v0) {
        return 0.25 * (reg.at(axis, sense, var, u0, v0) + reg.at(axis, sense, var, u0, v0 + 1) +
                       reg.at(axis, sense, var, u0 + 1, v0) +
                       reg.at(axis, sense, var, u0 + 1, v0 + 1));
    };
    // u-major, v contiguous, variables outermost — exactly the order
    // Block::pack_face uses for FaceRel::Coarser, so the flux stream pairs
    // element-wise with the ghost plan's transfer lists.
    EXPECT_DOUBLE_EQ(out[0], avg(0, 1, 1));
    EXPECT_DOUBLE_EQ(out[1], avg(0, 1, 3));
    EXPECT_DOUBLE_EQ(out[2], avg(0, 3, 1));
    EXPECT_DOUBLE_EQ(out[3], avg(0, 3, 3));
    EXPECT_DOUBLE_EQ(out[4], avg(1, 1, 1));
    EXPECT_DOUBLE_EQ(out[7], avg(1, 3, 3));
}

}  // namespace
}  // namespace dfamr::amr
