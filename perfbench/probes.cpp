#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "amr/block.hpp"
#include "amr/comm_plan.hpp"
#include "amr/flux_register.hpp"
#include "amr/mesh.hpp"
#include "common/error.hpp"
#include "common/timing.hpp"
#include "json_out.hpp"
#include "mpisim/mpi.hpp"
#include "scenario/problem_generator.hpp"
#include "scenario/refinement_condition.hpp"
#include "tasking/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dfamr;
using amr::BlockKey;

namespace {

constexpr int kReps = 7;                       // batches per probe; the median is reported
constexpr std::int64_t kBatchNs = 15'000'000;  // target length of one batch

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kReps batches of the mean cost of one fn() call, in ns.
/// The batch length is sized from one untimed warm-up call.
double ns_per_call(const std::function<void()>& fn) {
    std::int64_t t0 = now_ns();
    fn();
    const std::int64_t one = std::max<std::int64_t>(now_ns() - t0, 1);
    const std::int64_t calls = std::clamp<std::int64_t>(kBatchNs / one, 1, 1'000'000);
    std::vector<double> per_call;
    for (int r = 0; r < kReps; ++r) {
        t0 = now_ns();
        for (std::int64_t i = 0; i < calls; ++i) fn();
        per_call.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
    }
    return median(per_call);
}

struct FaceProbe {
    double ns_per_value;
    std::int64_t values;  // per call, all six faces
};

/// Times `op` over the six faces of a block for one level relation.
FaceProbe time_faces(const amr::Block& blk, amr::FaceRel rel, int vars,
                     const std::function<void(const amr::FaceGeom&)>& op) {
    std::vector<amr::FaceGeom> faces;
    std::int64_t values = 0;
    for (int axis = 0; axis < 3; ++axis) {
        for (const int sense : {-1, +1}) {
            faces.push_back({axis, sense, rel, 0});
            values += blk.face_value_count(faces.back(), vars);
        }
    }
    const double ns = ns_per_call([&] {
        for (const amr::FaceGeom& g : faces) op(g);
    });
    return {ns / static_cast<double>(values), values};
}

/// The workload's refined structure: the run's refinement rounds replayed
/// from the object positions (geometric estimators) or from the initial
/// field (field estimators, which refine the initial profile in round 0),
/// keeping the largest mesh seen. `marks` are the estimator's marks on it.
struct RefinedStructure {
    std::map<BlockKey, int> leaves;
    std::map<BlockKey, int> marks;
};

RefinedStructure refined_structure(const amr::Config& cfg) {
    const scenario::RefinementCondition* cond = scenario::find_condition(cfg.estimator);
    DFAMR_REQUIRE(cond != nullptr, "unknown estimator " + cfg.estimator);
    const bool field = cond->needs_field_data();
    amr::Mesh mesh(cfg, 0);
    amr::GlobalStructure& structure = mesh.structure();
    if (field) {
        mesh.init_blocks();
        const scenario::ProblemGenerator* gen = scenario::find_generator(cfg.scenario);
        DFAMR_REQUIRE(gen != nullptr, "field estimators need a scenario");
        for (const BlockKey& key : mesh.owned_keys()) gen->init_block(mesh.block(key), structure.box(key));
    }
    std::vector<amr::ObjectSpec> objects = cfg.objects;
    const scenario::ScoreContext ctx{&objects, cfg.uniform_refine};
    // The drivers' marking rule, minus the deref_count hysteresis: a
    // coarsen-willing block is marked at once.
    auto marks_now = [&] {
        std::map<BlockKey, int> marks;
        for (const auto& [key, owner] : structure.leaves()) {
            const double s = cond->score(field ? &mesh.block(key) : nullptr, structure.box(key), ctx);
            int mark = 0;
            if (s > cfg.refine_threshold && key.level < structure.max_level()) {
                mark = +1;
            } else if (key.level > 0 && s < cfg.refine_threshold * scenario::kDerefBand) {
                mark = -1;
            }
            marks.emplace(key, mark);
        }
        return marks;
    };

    RefinedStructure best{structure.leaves(), marks_now()};
    if (cfg.refine_freq == 0 || cfg.num_refine == 0) return best;
    // Field-driven marks only change when the field does, which this replay
    // does not advance: the initial phase is the whole replay for them.
    const int last_ts = field ? 0 : cfg.num_tsteps;
    for (int ts = 0; ts <= last_ts; ts += cfg.refine_freq) {
        if (ts > 0) {
            for (int i = 0; i < cfg.refine_freq; ++i) {
                for (amr::ObjectSpec& obj : objects) obj.step();
            }
        }
        for (int round_idx = 0; round_idx < cfg.max_block_change(); ++round_idx) {
            const amr::RefineRound round = structure.plan_refine_round_marks(marks_now());
            if (round.empty()) break;
            if (field) {
                for (const BlockKey& key : round.refine) mesh.split_block(key);
                for (const BlockKey& parent : round.coarsen_parents) mesh.merge_children(parent);
            }
            structure.apply_refine_round(round);
        }
        if (structure.num_blocks() > best.leaves.size()) best = {structure.leaves(), marks_now()};
    }
    return best;
}

}  // namespace

int run_probes(int argc, char** argv) {
    if (argc < 4) throw ConfigError("usage: probes <workload> <seed>");
    const std::string workload = argv[2];
    const auto seed = static_cast<std::uint64_t>(std::strtoull(argv[3], nullptr, 10));
    const amr::Config cfg = make_config(workload, find_layout("serial"), seed);
    const amr::Config cfg4 = make_config(workload, find_layout("mpi_only"), seed);
    const amr::Config cfg2 = make_config(workload, find_layout("tampi_oss"), seed);
    const int nv = cfg.num_vars;
    const amr::BlockShape shape{cfg.nx, cfg.ny, cfg.nz, nv};
    const double cells = static_cast<double>(cfg.cells_interior()) * nv;
    JsonObject out;
    JsonObject info;  // computed bytes and ops/byte (printed, not gated)

    // --- amr kernels on the workload's block shape -------------------------
    const amr::GlobalStructure level0(cfg);
    const BlockKey key0 = level0.leaves().begin()->first;
    const Box box0 = level0.box(key0);
    amr::Block a(key0, shape), b(key0, shape);
    a.init_cells(box0, cfg.seed);
    b.init_cells(box0, cfg.seed + 1);
    const double stencil_ns = ns_per_call([&] { a.stencil7(0, nv); }) / cells;
    out.num("amr.stencil7_ns_per_cell", stencil_ns);
    // Computed traffic of one sweep: read the ghosted block, write the interior.
    const double stencil_bytes =
        8.0 * nv * (static_cast<double>(cfg.cells_with_ghosts()) + cfg.cells_interior());
    info.num("stencil7_bytes_per_sweep", stencil_bytes);
    info.num("stencil7_flops_per_byte", 7.0 * cells / stencil_bytes);

    const std::pair<const char*, amr::FaceRel> rels[] = {
        {"same", amr::FaceRel::Same}, {"coarser", amr::FaceRel::Coarser}, {"finer", amr::FaceRel::Finer}};
    for (const auto& [name, rel] : rels) {
        const FaceProbe p = time_faces(a, rel, nv, [&](const amr::FaceGeom& g) {
            a.copy_face_from(b, g, 0, nv);
        });
        out.num(std::string("amr.copy_face_ns_per_value.") + name, p.ns_per_value);
        info.integer(std::string("copy_face_values.") + name, p.values);
    }
    std::vector<double> face_buf(static_cast<std::size_t>(shape.face_values_same(0, nv)) * 4);
    auto face_span = [&](const amr::FaceGeom& g) {
        return std::span<double>(face_buf.data(), static_cast<std::size_t>(a.face_value_count(g, nv)));
    };
    out.num("amr.pack_ns_per_value",
            time_faces(a, amr::FaceRel::Same, nv, [&](const amr::FaceGeom& g) {
                a.pack_face(g, 0, nv, face_span(g));
            }).ns_per_value);
    out.num("amr.unpack_ns_per_value",
            time_faces(a, amr::FaceRel::Same, nv, [&](const amr::FaceGeom& g) {
                const std::span<double> s = face_span(g);
                a.unpack_face(g, 0, nv, std::span<const double>(s.data(), s.size()));
            }).ns_per_value);
    info.num("face_bytes_per_value", 16.0);  // one read + one write per value

    // Split and merge alternate on one level-0 block of a serial mesh.
    {
        amr::Mesh mesh(cfg, 0);
        mesh.init_blocks();
        std::vector<double> split_ns, merge_ns;
        for (int r = 0; r < kReps; ++r) {
            std::int64_t split = 0, merge = 0;
            constexpr int kPairs = 8;
            for (int i = 0; i < kPairs; ++i) {
                std::int64_t t0 = now_ns();
                mesh.split_block(key0);
                split += now_ns() - t0;
                t0 = now_ns();
                mesh.merge_children(key0);
                merge += now_ns() - t0;
            }
            split_ns.push_back(static_cast<double>(split) / kPairs);
            merge_ns.push_back(static_cast<double>(merge) / kPairs);
        }
        out.num("amr.split_us_per_block", median(split_ns) * 1e-3);
        out.num("amr.merge_us_per_block", median(merge_ns) * 1e-3);
    }

    // --- amr structure + comm plan on the refined 4-rank structure ---------
    {
        const RefinedStructure refined = refined_structure(cfg);
        amr::GlobalStructure s4(cfg4);
        std::map<BlockKey, int> on_rank0;
        for (const auto& [key, owner] : refined.leaves) on_rank0.emplace(key, 0);
        s4.restore_leaves(on_rank0);
        s4.set_owners(s4.rcb_partition());
        const double blocks = static_cast<double>(s4.num_blocks());
        info.integer("refined_blocks", static_cast<std::int64_t>(s4.num_blocks()));
        out.num("amr.plan_round_us_per_block",
                ns_per_call([&] { s4.plan_refine_round_marks(refined.marks); }) * 1e-3 / blocks);
        out.num("amr.rcb_us_per_block", ns_per_call([&] { s4.rcb_partition(); }) * 1e-3 / blocks);
        amr::CommPlanOptions opts;
        out.num("amr.comm_plan_us_per_block", ns_per_call([&] {
                    for (int r = 0; r < cfg4.num_ranks(); ++r) amr::CommPlan(s4, shape, r, opts);
                }) * 1e-3 / blocks);
    }

    // --- scenario: flux-form advection with a flux register ----------------
    {
        const scenario::ProblemGenerator* gen =
            scenario::find_generator(cfg.scenario == "synthetic" ? "slotted_cylinder" : cfg.scenario);
        amr::Block blk(key0, shape);
        gen->init_block(blk, box0);
        amr::FluxRegister reg(shape);
        const double dt = gen->stable_dt(cfg);
        out.num("scenario.advect_ns_per_cell",
                ns_per_call([&] { gen->advance(blk, box0, 0, nv, dt, &reg); }) / cells);
    }

    // --- tasking: the hybrids' per-rank pool (rank thread + 1 worker) ------
    {
        tasking::Runtime rt(1);
        constexpr int kTasks = 2000;
        int sink = 0;
        out.num("tasking.ns_per_task.chain", ns_per_call([&] {
                    for (int i = 0; i < kTasks; ++i) {
                        rt.submit([&sink] { ++sink; }, {tasking::inout_id(1)}, "chain");
                    }
                    rt.taskwait();
                }) / kTasks);
        std::vector<int> slots(kTasks, 0);
        out.num("tasking.ns_per_task.fanout", ns_per_call([&] {
                    for (int i = 0; i < kTasks; ++i) {
                        rt.submit([&slots, i] { ++slots[static_cast<std::size_t>(i)]; }, {}, "fanout");
                    }
                    rt.taskwait();
                }) / kTasks);
    }

    // --- mpisim: in-process world ------------------------------------------
    {
        // One aggregated face message of the workload: the largest
        // (direction, neighbor) stream of the 2-rank level-0 plan.
        const amr::GlobalStructure s2(cfg2);
        const amr::CommPlan plan(s2, shape, 0, amr::CommPlanOptions{});
        std::int64_t face_values = 0;
        for (int d = 0; d < 3; ++d) {
            for (const amr::NeighborExchange& ex : plan.direction(d).neighbors) {
                face_values = std::max(face_values, ex.send_values * nv);
            }
        }
        const std::size_t face_bytes = static_cast<std::size_t>(face_values) * sizeof(double);
        info.integer("face_message_bytes", static_cast<std::int64_t>(face_bytes));

        // Half a round trip, median over kReps batches of `iters` round trips.
        auto pingpong_us = [](std::size_t bytes, int iters) {
            mpi::World world(2);
            std::vector<double> per_trip;
            world.run([&](mpi::Communicator& comm) {
                std::vector<char> buf(std::max<std::size_t>(bytes, 1));
                const int peer = 1 - comm.rank();
                for (int r = 0; r < kReps; ++r) {
                    comm.barrier();
                    const std::int64_t t0 = now_ns();
                    for (int i = 0; i < iters; ++i) {
                        if (comm.rank() == 0) {
                            comm.send(buf.data(), bytes, peer, 7);
                            comm.recv(buf.data(), bytes, peer, 7);
                        } else {
                            comm.recv(buf.data(), bytes, peer, 7);
                            comm.send(buf.data(), bytes, peer, 7);
                        }
                    }
                    if (comm.rank() == 0) {
                        per_trip.push_back(static_cast<double>(now_ns() - t0) / iters);
                    }
                }
            });
            return median(per_trip) * 0.5e-3;
        };
        out.num("mpisim.pingpong_us.8B", pingpong_us(8, 2000));
        out.num("mpisim.pingpong_us.face", pingpong_us(face_bytes, 100));

        mpi::World world4(4);
        std::vector<double> per_op;
        constexpr int kAllreduces = 1000;
        world4.run([&](mpi::Communicator& comm) {
            double in = comm.rank(), result = 0;
            for (int r = 0; r < kReps; ++r) {
                comm.barrier();
                const std::int64_t t0 = now_ns();
                for (int i = 0; i < kAllreduces; ++i) comm.allreduce(&in, &result, 1, mpi::Op::Sum);
                if (comm.rank() == 0) per_op.push_back(static_cast<double>(now_ns() - t0) / kAllreduces);
            }
        });
        out.num("mpisim.allreduce_us.4ranks", median(per_op) * 1e-3);
    }

    out.obj("info", info);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

}  // namespace perfbench
