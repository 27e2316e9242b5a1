// Tests for the ghost-exchange communication plan: symmetry between the two
// endpoints of every exchange, chunking under the paper's options, stream
// layout, tag-space partitioning, and the walk of same-rank items by
// destination block.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "amr/comm_plan.hpp"
#include "amr/mesh.hpp"
#include "object_round.hpp"

namespace dfamr::amr {
namespace {

Config plan_config(int npx = 2, int npy = 2, int npz = 1) {
    Config cfg;
    cfg.npx = npx;
    cfg.npy = npy;
    cfg.npz = npz;
    cfg.init_x = cfg.init_y = cfg.init_z = 2;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_refine = 2;
    return cfg;
}

/// Builds plans for every rank of the structure.
std::vector<CommPlan> all_plans(const GlobalStructure& gs, const BlockShape& shape,
                                const CommPlanOptions& opts) {
    std::vector<CommPlan> plans;
    for (int r = 0; r < gs.num_ranks(); ++r) {
        plans.emplace_back(gs, shape, r, opts);
    }
    return plans;
}

void expect_symmetric(const std::vector<CommPlan>& plans) {
    for (const CommPlan& plan : plans) {
        for (int d = 0; d < 3; ++d) {
            for (const NeighborExchange& ex : plan.direction(d).neighbors) {
                // Find the peer's mirror exchange.
                const CommPlan& peer = plans[static_cast<std::size_t>(ex.peer)];
                const NeighborExchange* mirror = nullptr;
                for (const NeighborExchange& pex : peer.direction(d).neighbors) {
                    if (pex.peer == plan.rank()) mirror = &pex;
                }
                ASSERT_NE(mirror, nullptr);
                // My sends match the peer's recvs one-to-one in order, size
                // and chunking.
                ASSERT_EQ(ex.sends.size(), mirror->recvs.size());
                for (std::size_t i = 0; i < ex.sends.size(); ++i) {
                    EXPECT_EQ(ex.sends[i].mine, mirror->recvs[i].theirs);
                    EXPECT_EQ(ex.sends[i].theirs, mirror->recvs[i].mine);
                    EXPECT_EQ(ex.sends[i].value_count, mirror->recvs[i].value_count);
                    EXPECT_EQ(ex.sends[i].value_offset, mirror->recvs[i].value_offset);
                }
                ASSERT_EQ(ex.send_chunks.size(), mirror->recv_chunks.size());
                for (std::size_t i = 0; i < ex.send_chunks.size(); ++i) {
                    EXPECT_EQ(ex.send_chunks[i].tag, mirror->recv_chunks[i].tag);
                    EXPECT_EQ(ex.send_chunks[i].value_count, mirror->recv_chunks[i].value_count);
                    EXPECT_EQ(ex.send_chunks[i].face_count, mirror->recv_chunks[i].face_count);
                }
                EXPECT_EQ(ex.send_values, mirror->recv_values);
            }
        }
    }
}

TEST(CommPlan, SymmetricOnUniformMesh) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    expect_symmetric(all_plans(gs, BlockShape{4, 4, 4, 4}, CommPlanOptions{}));
}

TEST(CommPlan, SymmetricWithRefinementAndAllOptions) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    // Refine a corner region so Coarser/Finer transfers appear.
    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0, 0, 0};
    sphere.size = {0.4, 0.4, 0.4};
    for (int i = 0; i < 2; ++i) {
        const RefineRound round = plan_object_round(gs, {sphere}, false);
        if (round.empty()) break;
        gs.apply_refine_round(round);
    }
    ASSERT_GT(gs.num_blocks(), 32u);

    for (bool send_faces : {false, true}) {
        for (int max_tasks : {0, 2, 8}) {
            CommPlanOptions opts;
            opts.send_faces = send_faces;
            opts.max_comm_tasks = max_tasks;
            expect_symmetric(all_plans(gs, BlockShape{4, 4, 4, 4}, opts));
        }
    }
}

TEST(CommPlan, DefaultAggregatesIntoOneChunk) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_EQ(ex.send_chunks.size(), 1u) << "one aggregated message per neighbor";
            EXPECT_EQ(ex.send_chunks[0].face_count, static_cast<int>(ex.sends.size()));
        }
    }
}

TEST(CommPlan, SendFacesMakesOneChunkPerFace) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlanOptions opts;
    opts.send_faces = true;
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_EQ(ex.send_chunks.size(), ex.sends.size());
            for (const MessageChunk& chunk : ex.send_chunks) EXPECT_EQ(chunk.face_count, 1);
        }
    }
}

TEST(CommPlan, MaxCommTasksBoundsChunks) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlanOptions opts;
    opts.send_faces = true;
    opts.max_comm_tasks = 2;
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            EXPECT_LE(ex.send_chunks.size(), 2u);
            int covered = 0;
            for (const MessageChunk& chunk : ex.send_chunks) covered += chunk.face_count;
            EXPECT_EQ(covered, static_cast<int>(ex.sends.size())) << "chunks cover all faces";
        }
    }
}

TEST(CommPlan, StreamOffsetsAreContiguous) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const NeighborExchange& ex : plan.direction(d).neighbors) {
            std::int64_t expect_offset = 0;
            for (const FaceTransfer& f : ex.sends) {
                EXPECT_EQ(f.value_offset, expect_offset);
                expect_offset += f.value_count;
            }
            EXPECT_EQ(expect_offset, ex.send_values);
        }
    }
}

TEST(CommPlan, TagSpacesAreDisjointPerDirection) {
    EXPECT_LT(direction_tag(0, kTagSpacePerDirection - 1), direction_tag(1, 0));
    EXPECT_LT(direction_tag(2, kTagSpacePerDirection - 1), kExchangeTagBase);
}

TEST(CommPlan, IntraCopiesStayLocal) {
    const Config cfg = plan_config(1, 1, 1);  // one rank: everything intra
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        EXPECT_TRUE(plan.direction(d).neighbors.empty());
        EXPECT_FALSE(plan.direction(d).copies.empty());
        EXPECT_FALSE(plan.direction(d).boundary.empty());
    }
    EXPECT_EQ(plan.total_send_messages(), 0);
}

TEST(CommPlan, BoundaryFacesAreDomainBoundaries) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan plan(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    for (int d = 0; d < 3; ++d) {
        for (const auto& [key, sense] : plan.direction(d).boundary) {
            EXPECT_TRUE(gs.at_domain_boundary(key, d, sense));
        }
    }
}

TEST(CommPlan, MessageCountsScaleWithSendFaces) {
    const Config cfg = plan_config();
    GlobalStructure gs(cfg);
    CommPlan aggregated(gs, BlockShape{4, 4, 4, 4}, 0, CommPlanOptions{});
    CommPlanOptions opts;
    opts.send_faces = true;
    CommPlan per_face(gs, BlockShape{4, 4, 4, 4}, 0, opts);
    EXPECT_GT(per_face.total_send_messages(), aggregated.total_send_messages());
    EXPECT_EQ(per_face.total_send_values(), aggregated.total_send_values());
}

/// Walks one direction's same-rank items and checks that each destination
/// comes once, in key order, and that the runs cover `copies` and
/// `boundary` item by item. Returns the destinations that have both.
int expect_destination_walk(std::span<const IntraCopy> copies,
                            std::span<const std::pair<BlockKey, int>> boundary) {
    std::size_t c = 0, b = 0;
    int mixed = 0;
    std::optional<BlockKey> last;
    for_each_destination(copies, boundary,
                         [&](const BlockKey& dst, std::span<const IntraCopy> dst_copies,
                             std::span<const std::pair<BlockKey, int>> dst_boundary) {
                             if (last.has_value()) {
                                 EXPECT_LT(*last, dst);
                             }
                             last = dst;
                             EXPECT_FALSE(dst_copies.empty() && dst_boundary.empty());
                             for (const IntraCopy& copy : dst_copies) {
                                 EXPECT_EQ(copy.dst, dst);
                                 EXPECT_EQ(&copy, &copies[c++]);
                             }
                             for (const auto& face : dst_boundary) {
                                 EXPECT_EQ(face.first, dst);
                                 EXPECT_EQ(&face, &boundary[b++]);
                             }
                             if (!dst_copies.empty() && !dst_boundary.empty()) ++mixed;
                         });
    EXPECT_EQ(c, copies.size());
    EXPECT_EQ(b, boundary.size());
    return mixed;
}

TEST(CommPlan, DestinationWalkCoversEverySameRankItemOnce) {
    const Config cfg = plan_config(2, 1, 1);
    GlobalStructure gs(cfg);
    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0, 0, 0};
    sphere.size = {0.4, 0.4, 0.4};
    for (int i = 0; i < 2; ++i) {
        const RefineRound round = plan_object_round(gs, {sphere}, false);
        if (round.empty()) break;
        gs.apply_refine_round(round);
    }
    const BlockShape shape{4, 4, 4, 4};
    int mixed = 0;
    std::size_t flux_copies = 0;
    for (int r = 0; r < gs.num_ranks(); ++r) {
        const CommPlan plan(gs, shape, r, CommPlanOptions{});
        const FluxPlan flux = build_flux_plan(plan, shape);
        for (int d = 0; d < 3; ++d) {
            mixed += expect_destination_walk(plan.direction(d).copies, plan.direction(d).boundary);
            expect_destination_walk(flux.direction(d).copies, {});
            flux_copies += flux.direction(d).copies.size();
        }
    }
    EXPECT_GT(mixed, 0) << "no destination with both copies and reflections";
    EXPECT_GT(flux_copies, 0u) << "no intra-rank reflux";
}

}  // namespace
}  // namespace dfamr::amr
