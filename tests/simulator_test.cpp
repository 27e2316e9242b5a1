// Tests for the discrete-event cluster simulator.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/simulator.hpp"
#include "tasking/dependency.hpp"

namespace dfamr::sim {
namespace {

ClusterSpec tiny_cluster(int nodes = 1, int cores = 4, int rpn = 1) {
    ClusterSpec c;
    c.nodes = nodes;
    c.cores_per_node = cores;
    c.ranks_per_node = rpn;
    c.cores_per_socket = cores;  // single socket unless a test says otherwise
    return c;
}

CostModel unit_costs() {
    CostModel m;
    m.alpha_ns = 100;
    m.bytes_per_ns = 1.0;
    m.nic_gap_ns = 0;
    m.intra_node_alpha_ns = 100;
    m.intra_node_bytes_per_ns = 1.0;
    m.mpi_call_ns = 10;
    return m;
}

TEST(Simulator, SingleTaskRunsForItsCost) {
    Simulator sim(tiny_cluster(), unit_costs());
    auto t = sim.new_task(0, PhaseKind::Stencil, 1000);
    sim.submit(t);
    sim.run_until_drained();
    EXPECT_EQ(t->start_ns, 0);
    EXPECT_EQ(t->finish_ns, 1000);
    EXPECT_EQ(sim.global_time(), 1000);
    EXPECT_EQ(sim.stats().tasks, 1u);
    EXPECT_EQ(sim.stats().busy_ns, 1000);
}

TEST(Simulator, IndependentTasksUseAllCores) {
    Simulator sim(tiny_cluster(1, 4, 1), unit_costs());
    for (int i = 0; i < 8; ++i) {
        sim.submit(sim.new_task(0, PhaseKind::Stencil, 100));
    }
    sim.run_until_drained();
    EXPECT_EQ(sim.global_time(), 200);  // 8 tasks / 4 cores
}

TEST(Simulator, DependencyEdgesSerialize) {
    Simulator sim(tiny_cluster(1, 4, 1), unit_costs());
    tasking::DependencyRegistry reg;
    auto a = sim.new_task(0, PhaseKind::Stencil, 100);
    auto b = sim.new_task(0, PhaseKind::Stencil, 100);
    tasking::Dep d = tasking::inout_id(42);
    reg.register_accesses(a, std::span<const tasking::Dep>(&d, 1));
    sim.submit(a);
    reg.register_accesses(b, std::span<const tasking::Dep>(&d, 1));
    sim.submit(b);
    sim.run_until_drained();
    EXPECT_EQ(b->start_ns, 100);
    EXPECT_EQ(sim.global_time(), 200);
}

TEST(Simulator, PinnedTasksShareOneCore) {
    Simulator sim(tiny_cluster(1, 4, 1), unit_costs());
    for (int i = 0; i < 3; ++i) {
        sim.submit(sim.new_task(0, PhaseKind::Control, 100, /*pinned_core=*/0));
    }
    sim.run_until_drained();
    EXPECT_EQ(sim.global_time(), 300);
}

TEST(Simulator, MessageGatesDependencyRelease) {
    // recv's successor can only run after the wire delay, even though the
    // recv body is instantaneous (TAMPI external-event semantics).
    Simulator sim(tiny_cluster(2, 1, 1), unit_costs());
    auto send = sim.new_task(0, PhaseKind::Send, 10);
    auto recv = sim.new_task(1, PhaseKind::Recv, 10);
    auto consumer = sim.new_task(1, PhaseKind::Stencil, 5);
    recv->successors.push_back(consumer.get());
    ++consumer->pred_count;
    sim.add_message(send, recv, 1000);
    sim.submit(send);
    sim.submit(recv);
    sim.submit(consumer);
    sim.run_until_drained();
    // send body ends at 10; wire = alpha(100) + 1000B/1Bpns = 1100 -> arrival 1110.
    EXPECT_EQ(recv->finish_ns, 10 + 100 + 1000);
    EXPECT_EQ(consumer->start_ns, recv->finish_ns);
}

TEST(Simulator, NicSerializesEgress) {
    // Two inter-node messages from the same node share the NIC.
    Simulator sim(tiny_cluster(2, 2, 2), unit_costs());
    // ranks 0,1 on node 0; ranks 2,3 on node 1.
    auto s0 = sim.new_task(0, PhaseKind::Send, 0);
    auto s1 = sim.new_task(1, PhaseKind::Send, 0);
    auto r0 = sim.new_task(2, PhaseKind::Recv, 0);
    auto r1 = sim.new_task(3, PhaseKind::Recv, 0);
    sim.add_message(s0, r0, 1000);
    sim.add_message(s1, r1, 1000);
    for (auto& t : {s0, s1, r0, r1}) sim.submit(t);
    sim.run_until_drained();
    const std::int64_t first = std::min(r0->finish_ns, r1->finish_ns);
    const std::int64_t second = std::max(r0->finish_ns, r1->finish_ns);
    EXPECT_EQ(first, 1000 + 100);
    EXPECT_EQ(second, 2000 + 100);  // serialized behind the first
}

TEST(Simulator, IntraNodeMessagesBypassNic) {
    Simulator sim(tiny_cluster(1, 2, 2), unit_costs());
    auto s = sim.new_task(0, PhaseKind::Send, 0);
    auto r = sim.new_task(1, PhaseKind::Recv, 0);
    sim.add_message(s, r, 1000);
    sim.submit(s);
    sim.submit(r);
    sim.run_until_drained();
    EXPECT_EQ(r->finish_ns, 100 + 1000);
}

TEST(Simulator, CollectiveWaitsForSlowestMember) {
    Simulator sim(tiny_cluster(4, 1, 1), unit_costs());
    // Rank 2 is delayed by earlier work.
    sim.submit(sim.new_task(2, PhaseKind::Stencil, 5000));
    const int coll = sim.new_collective(8);
    std::vector<SimTaskPtr> members;
    for (int r = 0; r < 4; ++r) {
        auto m = sim.new_task(r, PhaseKind::ChecksumReduce, 10);
        sim.set_collective(m, coll);
        sim.submit(m);
        members.push_back(std::move(m));
    }
    sim.close_collective(coll);
    sim.run_until_drained();
    const CostModel m = unit_costs();
    const std::int64_t expected = 5000 + 10 + m.collective_ns(4, 8);
    for (const auto& member : members) {
        EXPECT_EQ(member->finish_ns, expected);
    }
    EXPECT_EQ(sim.stats().collectives, 1u);
}

TEST(Simulator, CollectiveHoldsCores) {
    // While rank 0 waits in the collective, its only core cannot run other
    // work; a later-submitted independent task must wait.
    Simulator sim(tiny_cluster(2, 1, 1), unit_costs());
    sim.submit(sim.new_task(1, PhaseKind::Stencil, 1000));
    const int coll = sim.new_collective(0);
    auto m0 = sim.new_task(0, PhaseKind::ChecksumReduce, 0);
    auto m1 = sim.new_task(1, PhaseKind::ChecksumReduce, 0);
    sim.set_collective(m0, coll);
    sim.set_collective(m1, coll);
    sim.submit(m0);
    auto blocked = sim.new_task(0, PhaseKind::Stencil, 10);
    sim.submit(blocked);
    sim.submit(m1);
    sim.close_collective(coll);
    sim.run_until_drained();
    EXPECT_GE(blocked->start_ns, m0->finish_ns);
}

TEST(Simulator, DrainDetectsStuckTasks) {
    Simulator sim(tiny_cluster(), unit_costs());
    auto a = sim.new_task(0, PhaseKind::Stencil, 10);
    a->pred_count = 1;  // predecessor that never exists
    sim.submit(a);
    EXPECT_THROW(sim.run_until_drained(), Error);
}

TEST(Simulator, AdvanceRanksActsAsBarrier) {
    Simulator sim(tiny_cluster(2, 1, 1), unit_costs());
    sim.submit(sim.new_task(0, PhaseKind::Stencil, 100));
    sim.run_until_drained();
    sim.advance_all_ranks_to(5000);
    sim.submit(sim.new_task(1, PhaseKind::Stencil, 10));
    sim.run_until_drained();
    EXPECT_EQ(sim.global_time(), 5010);
}

TEST(Simulator, DeterministicAcrossRuns) {
    auto run_once = [] {
        Simulator sim(tiny_cluster(2, 2, 2), unit_costs());
        tasking::DependencyRegistry reg;
        std::vector<SimTaskPtr> tasks;
        for (int i = 0; i < 50; ++i) {
            auto t = sim.new_task(i % 4, PhaseKind::Stencil, 100 + i);
            tasking::Dep d = tasking::inout_id(static_cast<std::uint64_t>(i % 7));
            reg.register_accesses(t, std::span<const tasking::Dep>(&d, 1));
            sim.submit(t);
            tasks.push_back(std::move(t));
        }
        sim.run_until_drained();
        std::vector<std::int64_t> times;
        for (const auto& t : tasks) times.push_back(t->finish_ns);
        return times;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CostModel, CollectiveScalesLogarithmically) {
    CostModel m = unit_costs();
    EXPECT_EQ(m.collective_ns(1, 8), 0);
    EXPECT_GT(m.collective_ns(16, 8), m.collective_ns(4, 8));
    EXPECT_EQ(m.collective_ns(16, 8), 4 * (m.collective_ns(2, 8)));
}

TEST(CostModel, CalibrationProducesPositiveConstants) {
    const CostModel m = calibrate(8, 4);
    EXPECT_GT(m.stencil_ns_per_cell_var, 0);
    EXPECT_GT(m.copy_ns_per_byte, 0);
    EXPECT_GT(m.checksum_ns_per_cell_var, 0);
    EXPECT_LT(m.stencil_ns_per_cell_var, 1000) << "implausibly slow stencil";
    // The face copy moves 8 bytes per value with no arithmetic; 10 ns/byte
    // is 80 ns per value, several times the old pack-and-unpack round trip.
    EXPECT_LT(m.copy_ns_per_byte, 10) << "implausibly slow face copy";
}

}  // namespace
}  // namespace dfamr::sim
