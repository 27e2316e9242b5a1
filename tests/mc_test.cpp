// Tests for the schedule-space model checker (src/verify/mc/): the
// controlled runtime's replay semantics, DPOR exploration of the graph
// catalog, seeded-mutation counterexamples with minimization, the
// wire-protocol frame model (with and without coalescing), the shm-ring
// model, and the live WireChecker observer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "verify/mc/controlled_runtime.hpp"
#include "verify/mc/explorer.hpp"
#include "verify/mc/graphs.hpp"
#include "verify/mc/protocol.hpp"
#include "verify/mc/transport_models.hpp"

namespace dfamr::verify::mc {
namespace {

int edge_index(const ControlledRuntime& rt, int pred, int succ) {
    const auto& edges = rt.edges();
    const auto it = std::find(edges.begin(), edges.end(), std::make_pair(pred, succ));
    return it == edges.end() ? -1 : static_cast<int>(it - edges.begin());
}

// ----- controlled runtime ---------------------------------------------------

TEST(ControlledRuntime, RegistryWiresTheDiamond) {
    // diamond: A(0) -> B(1), A -> C(2), B -> D(3), C -> D. The edges come
    // out of the real DependencyRegistry, not a hand-written list.
    ControlledRuntime rt(diamond());
    EXPECT_GE(edge_index(rt, 0, 1), 0);
    EXPECT_GE(edge_index(rt, 0, 2), 0);
    EXPECT_GE(edge_index(rt, 1, 3), 0);
    EXPECT_GE(edge_index(rt, 2, 3), 0);
}

TEST(ControlledRuntime, ReplayIsBitwiseDeterministic) {
    ControlledRuntime rt(amr_timestep());
    const std::vector<std::size_t> digits{1, 0, 2, 1, 0, 3};
    const ControlledRuntime::RunResult a = rt.run(digits);
    const ControlledRuntime::RunResult b = rt.run(digits);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.choices, b.choices);
    EXPECT_TRUE(a.deplint_clean) << a.deplint_report;
}

TEST(ControlledRuntime, EveryScheduleRunsEveryTaskOnce) {
    const TaskGraph g = amr_timestep();
    ControlledRuntime rt(g);
    for (std::size_t seed : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
        const std::vector<std::size_t> digits(16, seed);  // clamped per step
        const ControlledRuntime::RunResult r = rt.run(digits);
        ASSERT_EQ(r.order.size(), g.tasks.size());
        std::vector<int> sorted = r.order;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            EXPECT_EQ(sorted[i], static_cast<int>(i));
        }
    }
}

TEST(ControlledRuntime, RenderedScheduleNamesEveryStep) {
    ControlledRuntime rt(diamond());
    const std::string rendered = rt.render_schedule(std::vector<std::size_t>{});
    EXPECT_NE(rendered.find("step 0"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("A#0"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("D#3"), std::string::npos) << rendered;
}

// ----- DPOR exploration -----------------------------------------------------

TEST(Explorer, CatalogIsDeterministicAndDepLintClean) {
    for (const TaskGraph& g : all_graphs()) {
        ControlledRuntime rt(g);
        ExploreOptions opts;
        opts.max_schedules = 5000;
        const ExploreResult r = explore(rt, opts);
        EXPECT_TRUE(r.clean()) << g.name;
        EXPECT_TRUE(r.deterministic) << g.name;
        EXPECT_TRUE(r.deplint_clean) << g.name;
        EXPECT_EQ(r.stats.distinct_checksums, 1u) << g.name;
        EXPECT_GE(r.stats.schedules, 2u) << g.name;  // real interleaving choice
    }
}

TEST(Explorer, SleepSetsPruneWithoutLosingTerminalStates) {
    // The AMR timestep has two independent block pipelines: plenty of
    // commuting action pairs for the sleep sets to prune. (The small
    // catalog graphs funnel everything through shared queues, where the
    // conservative dependence relation rightly prunes nothing.)
    ControlledRuntime rt(amr_timestep());
    ExploreOptions opts;
    opts.max_schedules = 5000;
    const ExploreResult r = explore(rt, opts);
    EXPECT_TRUE(r.clean());
    EXPECT_GT(r.stats.sleep_pruned, 0u);
    EXPECT_EQ(r.stats.distinct_checksums, 1u);
}

TEST(Explorer, ScheduleCapIsHonored) {
    ControlledRuntime rt(amr_timestep());
    ExploreOptions opts;
    opts.max_schedules = 50;
    const ExploreResult r = explore(rt, opts);
    EXPECT_TRUE(r.stats.hit_cap);
    EXPECT_EQ(r.stats.schedules, 50u);
}

// ----- seeded mutation ------------------------------------------------------

TEST(Mutation, EveryDroppedDiamondEdgeIsCaught) {
    const TaskGraph g = diamond();
    const std::size_t edges = ControlledRuntime(g).edges().size();
    ASSERT_GE(edges, 4u);
    for (std::size_t e = 0; e < edges; ++e) {
        ControlledRuntime rt(g, static_cast<int>(e));
        const ExploreResult r = explore(rt, {});
        EXPECT_FALSE(r.clean()) << "dropped edge " << e << " went unnoticed";
        ASSERT_TRUE(r.counterexample.has_value()) << "edge " << e;
    }
}

TEST(Mutation, CounterexampleIsMinimalAndReplays) {
    // Drop B -> D: D can run before B, and the explorer must find a
    // schedule that proves it dynamically (diverging checksum).
    const TaskGraph g = diamond();
    ControlledRuntime probe(g);
    const int e = edge_index(probe, 1, 3);
    ASSERT_GE(e, 0);
    ControlledRuntime rt(g, e);
    const ExploreResult r = explore(rt, {});
    ASSERT_FALSE(r.deterministic);
    ASSERT_TRUE(r.counterexample.has_value());
    const Counterexample& ce = *r.counterexample;
    // Replaying the minimized digits reproduces the divergence exactly.
    const ControlledRuntime::RunResult replay = rt.run(ce.choices);
    EXPECT_EQ(replay.checksum, ce.checksum);
    EXPECT_NE(ce.checksum, ce.expected);
    // Minimality (greedy): no strict prefix still diverges, and no single
    // digit can be lowered without losing the violation.
    for (std::size_t len = 0; len < ce.choices.size(); ++len) {
        std::vector<std::size_t> prefix(ce.choices.begin(),
                                        ce.choices.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_NE(rt.run(prefix).checksum, replay.checksum)
            << "prefix of length " << len << " already diverges";
    }
    for (std::size_t i = 0; i < ce.choices.size(); ++i) {
        if (ce.choices[i] == 0) continue;
        std::vector<std::size_t> lowered = ce.choices;
        --lowered[i];
        EXPECT_EQ(rt.run(lowered).checksum, ce.expected)
            << "digit " << i << " could have been lower";
    }
}

TEST(Mutation, DropsAreCaughtAcrossTheWholeCatalog) {
    for (const TaskGraph& g : all_graphs()) {
        const std::size_t edges = ControlledRuntime(g).edges().size();
        for (std::size_t e = 0; e < edges; ++e) {
            ControlledRuntime rt(g, static_cast<int>(e));
            ExploreOptions opts;
            opts.max_schedules = 5000;
            const ExploreResult r = explore(rt, opts);
            EXPECT_FALSE(r.clean()) << g.name << " edge " << e;
        }
    }
}

// ----- protocol model checker -----------------------------------------------

TEST(Protocol, CleanUnderEveryFaultKind) {
    // The default workload: one eager + two rendezvous messages per
    // direction, no coalescing. Its state space is pinned exactly: with one
    // eager message there is no arrival order to record, so these are also
    // the counts of a model without eager ids or merges.
    struct Expect {
        FaultKind fault;
        std::uint64_t states, transitions, final_states;
    };
    const Expect table[] = {
        {FaultKind::None, 8204, 21056, 1},     {FaultKind::Drop, 32816, 98624, 4},
        {FaultKind::Delay, 59853, 244586, 1},  {FaultKind::Reorder, 21640, 109250, 1},
        {FaultKind::Stall, 32815, 122136, 3},
    };
    ASSERT_EQ(std::size(table), all_fault_kinds().size());
    for (const Expect& e : table) {
        ModelOptions opts;
        opts.fault = e.fault;
        const ModelResult r = check_protocol(opts);
        EXPECT_TRUE(r.clean()) << to_string(e.fault) << ": " << r.to_string();
        EXPECT_EQ(r.states_explored, e.states) << to_string(e.fault);
        EXPECT_EQ(r.transitions, e.transitions) << to_string(e.fault);
        EXPECT_EQ(r.final_states, e.final_states) << to_string(e.fault);
    }
}

TEST(Protocol, FaultsEnlargeTheStateSpace) {
    ModelOptions none;
    ModelOptions drop;
    drop.fault = FaultKind::Drop;
    EXPECT_GT(check_protocol(drop).states_explored, check_protocol(none).states_explored);
}

TEST(Protocol, TablesRejectOutOfOrderEvents) {
    // The tables themselves are the spec: Cts before Rts, Data before Cts,
    // and anything after Done are all invalid.
    using S = SenderState;
    using R = ReceiverState;
    EXPECT_EQ(kSenderTable[static_cast<int>(S::Idle)][1], kInvalidState);      // RecvCts
    EXPECT_EQ(kSenderTable[static_cast<int>(S::RtsSent)][2], kInvalidState);   // SendData
    EXPECT_EQ(kSenderTable[static_cast<int>(S::Done)][0], kInvalidState);      // SendRts
    EXPECT_EQ(kReceiverTable[static_cast<int>(R::Idle)][2], kInvalidState);    // RecvData
    EXPECT_EQ(kReceiverTable[static_cast<int>(R::CtsOwed)][2], kInvalidState); // RecvData
    EXPECT_EQ(kReceiverTable[static_cast<int>(R::Done)][0], kInvalidState);    // RecvRts
}

// ----- transport fast-path models -------------------------------------------

/// The frame model with coalescing on: >= 2 eager messages so real merges
/// happen, one rendezvous to prove merges skip control frames.
ModelOptions coalesced(FaultKind fault = FaultKind::None, int batch_cap = 4) {
    ModelOptions opts;
    opts.fault = fault;
    opts.eager_per_direction = 3;
    opts.rndz_per_direction = 1;
    opts.batch_cap = batch_cap;
    return opts;
}

TEST(CoalescedModel, CleanUnderEveryFaultKind) {
    for (FaultKind kind : all_fault_kinds()) {
        const ModelResult r = check_protocol(coalesced(kind));
        EXPECT_TRUE(r.clean()) << to_string(kind) << ": " << r.to_string();
        EXPECT_GT(r.states_explored, 100u) << to_string(kind);
        EXPECT_GT(r.final_states, 0u) << to_string(kind);
    }
}

TEST(CoalescedModel, MergesActuallyHappen) {
    // The coalesce action must enlarge the state space over the same
    // workload with merging disabled-in-effect (batch cap of 2 vs a cap
    // that admits the whole eager workload in one frame).
    EXPECT_GT(check_protocol(coalesced(FaultKind::None, 6)).states_explored,
              check_protocol(coalesced(FaultKind::None, 2)).states_explored);
}

TEST(CoalescedModel, ReorderEnlargesTheStateSpace) {
    EXPECT_GT(check_protocol(coalesced(FaultKind::Reorder)).states_explored,
              check_protocol(coalesced()).states_explored);
}

TEST(ShmRingModel, CleanUnderEveryFaultKind) {
    for (FaultKind kind : all_fault_kinds()) {
        ShmRingOptions opts;
        opts.fault = kind;
        const ModelResult r = check_shm_ring(opts);
        EXPECT_TRUE(r.clean()) << to_string(kind) << ": " << r.to_string();
        EXPECT_GT(r.final_states, 0u) << to_string(kind);
    }
}

TEST(ShmRingModel, FrameLargerThanRingStreamsThrough) {
    // A single frame three times the ring size: only partial writes and
    // reads can move it, and the model must still reach completion
    // everywhere (no wedged producer/consumer pair).
    ShmRingOptions opts;
    opts.capacity = 2;
    opts.frame_sizes = {6};
    const ModelResult r = check_shm_ring(opts);
    EXPECT_TRUE(r.clean()) << r.to_string();
    EXPECT_GT(r.final_states, 0u);
}

TEST(ShmRingModel, StallGateKeepsTheRingBoundedNotDeadlocked) {
    ShmRingOptions opts;
    opts.fault = FaultKind::Stall;
    opts.capacity = 1;  // tightest ring: every byte needs a drain
    opts.frame_sizes = {3, 2};
    const ModelResult r = check_shm_ring(opts);
    EXPECT_TRUE(r.clean()) << r.to_string();
}

// ----- live WireChecker -----------------------------------------------------

net::FrameHeader frame(net::FrameKind kind, int src, std::uint32_t seq = 0) {
    net::FrameHeader h;
    h.kind = kind;
    h.src = src;
    h.seq = seq;
    return h;
}

TEST(WireChecker, CleanRendezvousAndEagerTrafficPasses) {
    WireChecker chk(0);
    chk.on_frame_sent(1, frame(net::FrameKind::Hello, 0));
    chk.on_frame_sent(1, frame(net::FrameKind::Eager, 0));
    chk.on_frame_sent(1, frame(net::FrameKind::Rts, 0, 7));
    chk.on_frame_received(1, frame(net::FrameKind::Cts, 1, 7));
    chk.on_frame_sent(1, frame(net::FrameKind::Data, 0, 7));
    chk.on_frame_sent(1, frame(net::FrameKind::Bye, 0));
    chk.on_frame_received(1, frame(net::FrameKind::Bye, 1));
    EXPECT_TRUE(chk.violations().empty()) << chk.violations().front();
    EXPECT_TRUE(chk.pending().empty());
    EXPECT_EQ(chk.frames_checked(), 7u);
}

TEST(WireChecker, CtsWithoutRtsIsAViolation) {
    WireChecker chk(0);
    chk.on_frame_received(1, frame(net::FrameKind::Cts, 1, 3));
    ASSERT_FALSE(chk.violations().empty());
}

TEST(WireChecker, DataBeforeCtsIsAViolation) {
    WireChecker chk(0);
    chk.on_frame_sent(1, frame(net::FrameKind::Rts, 0, 3));
    chk.on_frame_sent(1, frame(net::FrameKind::Data, 0, 3));  // no Cts yet
    ASSERT_FALSE(chk.violations().empty());
}

TEST(WireChecker, DuplicateCtsIsAViolation) {
    WireChecker chk(0);
    chk.on_frame_sent(1, frame(net::FrameKind::Rts, 0, 3));
    chk.on_frame_received(1, frame(net::FrameKind::Cts, 1, 3));
    chk.on_frame_received(1, frame(net::FrameKind::Cts, 1, 3));
    ASSERT_FALSE(chk.violations().empty());
}

TEST(WireChecker, TrafficAfterByeIsAViolation) {
    WireChecker chk(0);
    chk.on_frame_sent(1, frame(net::FrameKind::Bye, 0));
    chk.on_frame_sent(1, frame(net::FrameKind::Eager, 0));
    ASSERT_FALSE(chk.violations().empty());
}

TEST(WireChecker, StrandedRendezvousShowsAsPendingNotViolation) {
    WireChecker chk(0);
    chk.on_frame_sent(1, frame(net::FrameKind::Rts, 0, 9));
    // Peer dies here: no Cts ever arrives.
    EXPECT_TRUE(chk.violations().empty());
    ASSERT_FALSE(chk.pending().empty());
    EXPECT_NE(chk.pending().front().find("9"), std::string::npos);
}

}  // namespace
}  // namespace dfamr::verify::mc
