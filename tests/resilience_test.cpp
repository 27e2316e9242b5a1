// Resilience layer tests: deterministic fault injection, hardened
// communication (retry + timeout), and checkpoint/restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/bytecodec.hpp"
#include "core/variants.hpp"
#include "mpisim/mpi.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/hardened_comm.hpp"

namespace dfamr {
namespace {

using amr::Config;
using amr::ObjectSpec;
using amr::ObjectType;
using amr::Variant;
using core::RunResult;
using core::run_variant;
using resilience::CommTimeout;
using resilience::FaultConfig;
using resilience::FaultEvent;
using resilience::FaultPlan;
using resilience::RetryPolicy;

Config tiny_config() {
    Config cfg;
    cfg.npx = 2;
    cfg.npy = 1;
    cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;

    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    return cfg;
}

/// Chaos knobs used throughout: delays reorder aggressively, drops force
/// retries, and one rank is periodically slow.
FaultConfig chaos_config(std::uint64_t seed = 7) {
    FaultConfig fc;
    fc.seed = seed;
    fc.drop_prob = 0.05;
    fc.max_extra_drops = 1;
    fc.delay_prob = 0.3;
    fc.max_delay_ns = 100'000;
    fc.stall_rank = 1;
    fc.stall_every = 64;
    fc.stall_ns = 200'000;
    return fc;
}

void expect_checksums_identical(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.checksums.size(), b.checksums.size());
    for (std::size_t i = 0; i < a.checksums.size(); ++i) {
        EXPECT_EQ(a.checksums[i], b.checksums[i]) << "checksum stage " << i;
    }
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

// ---------------------------------------------------------------------------
// FaultPlan determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedSameDecisions) {
    // Replay the same (src, dst, tag) call sequence through two plans built
    // from the same config: the event logs must be identical.
    const FaultConfig fc = chaos_config(123);
    FaultPlan a(fc), b(fc);
    for (int i = 0; i < 500; ++i) {
        const int src = i % 3, dst = (i + 1) % 3, tag = i % 5;
        a.on_send(src, dst, tag);
        b.on_send(src, dst, tag);
    }
    EXPECT_GT(a.drops(), 0u);
    EXPECT_GT(a.delays(), 0u);
    EXPECT_EQ(a.events(), b.events());
}

TEST(FaultPlan, PerStreamDecisionsIndependentOfInterleaving) {
    // The per-stream decision subsequence must not depend on how calls from
    // different streams interleave (rank threads race in real runs).
    const FaultConfig fc = chaos_config(99);
    FaultPlan interleaved(fc), sequential(fc);
    for (int i = 0; i < 200; ++i) {
        interleaved.on_send(0, 1, 3);
        interleaved.on_send(1, 0, 4);
    }
    for (int i = 0; i < 200; ++i) sequential.on_send(1, 0, 4);
    for (int i = 0; i < 200; ++i) sequential.on_send(0, 1, 3);
    EXPECT_EQ(interleaved.stream_events(0, 1, 3), sequential.stream_events(0, 1, 3));
    EXPECT_EQ(interleaved.stream_events(1, 0, 4), sequential.stream_events(1, 0, 4));
}

TEST(FaultPlan, DifferentSeedsDiffer) {
    FaultPlan a(chaos_config(1)), b(chaos_config(2));
    for (int i = 0; i < 300; ++i) {
        a.on_send(0, 1, 0);
        b.on_send(0, 1, 0);
    }
    EXPECT_NE(a.events(), b.events());
}

TEST(FaultPlan, ConsecutiveDropsAreBounded) {
    FaultConfig fc;
    fc.seed = 5;
    fc.drop_prob = 0.5;
    fc.max_extra_drops = 2;
    FaultPlan plan(fc);
    for (int i = 0; i < 2000; ++i) plan.on_send(0, 1, 0);
    int consecutive = 0;
    for (const FaultEvent& e : plan.stream_events(0, 1, 0)) {
        consecutive = e.dropped ? consecutive + 1 : 0;
        // The delivery ending a burst is exempt from the drop roll, so a
        // stream never loses more than 1 + max_extra_drops sends in a row
        // and a retrying sender is guaranteed to get through.
        EXPECT_LE(consecutive, 1 + fc.max_extra_drops);
    }
    EXPECT_GT(plan.drops(), 0u);
}

// ---------------------------------------------------------------------------
// Hardened communication: retry, timeout, no deadlock
// ---------------------------------------------------------------------------

/// Drops the first `drops` sends, then delivers everything.
class DropFirstN final : public mpi::FaultInjector {
public:
    explicit DropFirstN(int drops) : remaining_(drops) {}
    mpi::FaultAction on_send(int, int, int) override {
        mpi::FaultAction act;
        if (remaining_.fetch_sub(1) > 0) act.drop = true;
        return act;
    }

private:
    std::atomic<int> remaining_;
};

/// Drops every send unconditionally (a dead link).
class DropAll final : public mpi::FaultInjector {
public:
    mpi::FaultAction on_send(int, int, int) override {
        mpi::FaultAction act;
        act.drop = true;
        return act;
    }
};

TEST(HardenedComm, TransientDropIsRetriedAndRecovered) {
    DropFirstN faults(2);
    mpi::World world(2, &faults);
    world.run([](mpi::Communicator& comm) {
        RetryPolicy policy;
        policy.backoff_ns = 1'000;  // keep the test fast
        resilience::HardenedComm hc(comm, policy);
        if (comm.rank() == 0) {
            const int value = 42;
            hc.send(&value, sizeof value, 1, 7);
        } else {
            int got = 0;
            hc.recv(&got, sizeof got, 0, 7);
            EXPECT_EQ(got, 42);
        }
    });
}

TEST(HardenedComm, PermanentSendFailureReportsCommTimeout) {
    DropAll faults;
    mpi::World world(1, &faults);
    try {
        world.run([](mpi::Communicator& comm) {
            RetryPolicy policy;
            policy.max_attempts = 3;
            policy.backoff_ns = 1'000;
            resilience::HardenedComm hc(comm, policy);
            const int value = 1;
            hc.send(&value, sizeof value, 0, 9);  // self-send, always dropped
        });
        FAIL() << "expected a CommTimeout to escape";
    } catch (const mpi::RankError& e) {
        EXPECT_EQ(e.rank(), 0);
        EXPECT_NE(std::string(e.what()).find("CommTimeout"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("tag 9"), std::string::npos);
    }
}

TEST(HardenedComm, RecvTimeoutThrowsInsteadOfDeadlocking) {
    mpi::World world(1);
    try {
        world.run([](mpi::Communicator& comm) {
            RetryPolicy policy;
            policy.timeout_ns = 20'000'000;  // 20 ms, nobody ever sends
            resilience::HardenedComm hc(comm, policy);
            int got = 0;
            hc.recv(&got, sizeof got, mpi::kAnySource, 11);
        });
        FAIL() << "expected a CommTimeout to escape";
    } catch (const mpi::RankError& e) {
        EXPECT_NE(std::string(e.what()).find("CommTimeout: recv"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("[rank 0]"), std::string::npos);
    }
}

TEST(Request, CancelAndDestructionOfUnmatchedRecvDoesNotHang) {
    mpi::World world(1);
    world.run([](mpi::Communicator& comm) {
        int buf = 0;
        mpi::Request canceled = comm.irecv(&buf, sizeof buf, mpi::kAnySource, 3);
        EXPECT_FALSE(canceled.test());
        EXPECT_TRUE(canceled.cancel());
        mpi::Status status;
        EXPECT_TRUE(canceled.test(&status));
        EXPECT_FALSE(status.ok);
        // A never-completed request simply goes out of scope here: its
        // destructor must not block the rank (satellite requirement).
        mpi::Request leaked = comm.irecv(&buf, sizeof buf, mpi::kAnySource, 4);
        (void)leaked;
    });
}

TEST(World, AttachesRankIdToEscapingExceptions) {
    mpi::World world(3);
    try {
        world.run([](mpi::Communicator& comm) {
            if (comm.rank() == 2) throw Error("boom");
        });
        FAIL() << "expected the rank error to escape";
    } catch (const mpi::RankError& e) {
        EXPECT_EQ(e.rank(), 2);
        EXPECT_NE(std::string(e.what()).find("[rank 2] boom"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Chaos runs: faults on, checksums identical to the fault-free run
// ---------------------------------------------------------------------------

class ChaosVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(ChaosVariants, ChecksumsMatchFaultFreeRun) {
    const Config cfg = tiny_config();
    const RunResult clean = run_variant(cfg, GetParam());

    FaultPlan plan(chaos_config());
    const RunResult chaos = run_variant(cfg, GetParam(), nullptr, &plan);

    EXPECT_TRUE(chaos.validation_ok);
    expect_checksums_identical(clean, chaos);
    EXPECT_EQ(clean.final_blocks, chaos.final_blocks);
    // The run must actually have been disturbed for this to mean anything.
    EXPECT_GT(plan.drops(), 0u) << "no transient failure was injected";
    EXPECT_GT(plan.delays(), 0u) << "no reordering delay was injected";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ChaosVariants,
                         ::testing::Values(Variant::MpiOnly, Variant::ForkJoin,
                                           Variant::TampiOss));

// ---------------------------------------------------------------------------
// Checkpoint/restart
// ---------------------------------------------------------------------------

class CheckpointVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(CheckpointVariants, RestoredRunReproducesChecksumsBitForBit) {
    const std::string path =
        temp_path("dfamr_ckpt_" + std::to_string(static_cast<int>(GetParam())) + ".bin");

    // Reference: the uninterrupted two-timestep run.
    const Config cfg = tiny_config();
    const RunResult full = run_variant(cfg, GetParam());

    // "Killed after timestep 1": run only the first timestep, checkpointing.
    Config partial_cfg = cfg;
    partial_cfg.num_tsteps = 1;
    partial_cfg.checkpoint_every = 1;
    partial_cfg.checkpoint_path = path;
    const RunResult partial = run_variant(partial_cfg, GetParam());
    ASSERT_FALSE(partial.checksums.empty());

    // Restore and run the remaining timestep.
    Config restored_cfg = cfg;
    restored_cfg.restore_path = path;
    const RunResult restored = run_variant(restored_cfg, GetParam());

    EXPECT_TRUE(restored.validation_ok);
    expect_checksums_identical(full, restored);
    EXPECT_EQ(full.final_blocks, restored.final_blocks);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CheckpointVariants,
                         ::testing::Values(Variant::MpiOnly, Variant::ForkJoin,
                                           Variant::TampiOss));

TEST(Checkpoint, CheckpointingItselfDoesNotPerturbTheRun) {
    const Config cfg = tiny_config();
    const RunResult plain = run_variant(cfg, Variant::MpiOnly);

    const std::string path = temp_path("dfamr_ckpt_noperturb.bin");
    Config ckpt_cfg = cfg;
    ckpt_cfg.checkpoint_every = 1;
    ckpt_cfg.checkpoint_path = path;
    const RunResult with_ckpt = run_variant(ckpt_cfg, Variant::MpiOnly);

    expect_checksums_identical(plain, with_ckpt);
    std::remove(path.c_str());
}

TEST(Checkpoint, RestoreRejectsIncompatibleConfig) {
    const std::string path = temp_path("dfamr_ckpt_incompat.bin");
    Config cfg = tiny_config();
    cfg.num_tsteps = 1;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = path;
    run_variant(cfg, Variant::MpiOnly);

    Config other = tiny_config();
    other.nx = other.ny = other.nz = 6;  // different block geometry
    other.restore_path = path;
    EXPECT_THROW(run_variant(other, Variant::MpiOnly), Error);
    std::remove(path.c_str());
}

/// Fault-free probe that just counts one rank's send attempts.
class CountSends final : public mpi::FaultInjector {
public:
    explicit CountSends(int rank) : rank_(rank) {}
    mpi::FaultAction on_send(int src, int, int) override {
        if (src == rank_) ++count_;
        return {};
    }
    std::uint64_t count() const { return count_; }

private:
    int rank_;
    std::atomic<std::uint64_t> count_{0};
};

TEST(Checkpoint, CrashedRunRestoresFromLastCheckpointBitForBit) {
    const Config cfg = tiny_config();
    const RunResult full = run_variant(cfg, Variant::MpiOnly);

    // Crash rank 1 partway through; at least the timestep-1 checkpoint must
    // have been written by then. Other ranks unblock via their comm
    // deadline or the world abort, not by hanging.
    const std::string path = temp_path("dfamr_ckpt_crash.bin");
    Config crash_cfg = cfg;
    crash_cfg.checkpoint_every = 1;
    crash_cfg.checkpoint_path = path;
    crash_cfg.comm_timeout_s = 2.0;

    // The run is deterministic, so probe rank 1's send counts: s1 covers
    // everything through the timestep-1 checkpoint (a one-timestep run),
    // s2 the whole two-timestep run. A crash strictly between the two lands
    // after the first checkpoint is durably on disk and before the run ends.
    Config probe_cfg = crash_cfg;
    probe_cfg.num_tsteps = 1;
    CountSends partial_probe(1), full_probe(1);
    run_variant(probe_cfg, Variant::MpiOnly, nullptr, &partial_probe);
    run_variant(crash_cfg, Variant::MpiOnly, nullptr, &full_probe);
    const std::uint64_t s1 = partial_probe.count();
    const std::uint64_t s2 = full_probe.count();
    ASSERT_GT(s2, s1) << "timestep 2 must add rank-1 sends; tune the test";

    FaultConfig fc;
    fc.crash_rank = 1;
    fc.crash_after_sends = static_cast<int>(s1 + std::max<std::uint64_t>(1, (s2 - s1) / 2));
    FaultPlan plan(fc);
    try {
        run_variant(crash_cfg, Variant::MpiOnly, nullptr, &plan);
        FAIL() << "expected the injected crash to escape";
    } catch (const mpi::RankError& e) {
        EXPECT_NE(std::string(e.what()).find("[rank"), std::string::npos);
    }
    bool crashed = false;
    for (const FaultEvent& e : plan.events()) crashed = crashed || e.crashed;
    ASSERT_TRUE(crashed) << "crash_after_sends never reached; tune the test";

    Config restored_cfg = cfg;
    restored_cfg.restore_path = path;
    const RunResult restored = run_variant(restored_cfg, Variant::MpiOnly);
    EXPECT_TRUE(restored.validation_ok);
    expect_checksums_identical(full, restored);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile checkpoint images: every one must end in dfamr::Error
// ---------------------------------------------------------------------------

/// A one-rank image of an empty state whose block section is `section`.
std::vector<std::byte> one_rank_image(const std::vector<std::byte>& section) {
    resilience::CheckpointState state;
    state.nranks = 1;
    std::vector<std::byte> image;
    mpi::World world(1);
    world.run([&](mpi::Communicator& comm) {
        resilience::HardenedComm hcomm(comm, RetryPolicy{});
        image = resilience::build_checkpoint(hcomm, state, section);
    });
    return image;
}

/// A block section listing one block of `count` values and holding none.
std::vector<std::byte> one_block_section(std::uint64_t count) {
    bytes::Writer w;
    w.u32(1);
    w.i32(0);  // key: level, then the anchor
    w.i64(0);
    w.i64(0);
    w.i64(0);
    w.u64(count);
    return std::move(w.bytes);
}

template <class T>
void poke(std::vector<std::byte>& image, std::size_t at, T value) {
    ASSERT_LE(at + sizeof value, image.size());
    std::memcpy(image.data() + at, &value, sizeof value);
}

template <class T>
T peek(const std::vector<std::byte>& image, std::size_t at) {
    T value{};
    std::memcpy(&value, image.data() + at, sizeof value);
    return value;
}

TEST(CheckpointImage, SectionOffsetThatWrapsAroundThrows) {
    const std::vector<std::byte> section = one_block_section(0);
    std::vector<std::byte> image = one_rank_image(section);
    // The one-entry section table (offset, size) sits right before the section.
    const std::size_t table = image.size() - section.size() - 2 * sizeof(std::uint64_t);
    ASSERT_EQ(peek<std::uint64_t>(image, table), table + 2 * sizeof(std::uint64_t));
    // offset + size wraps to 16, which is inside the image.
    poke<std::uint64_t>(image, table, ~std::uint64_t{0} - 15);
    poke<std::uint64_t>(image, table + sizeof(std::uint64_t), 32);
    EXPECT_THROW(resilience::read_rank_blocks(image, 0), Error);
}

TEST(CheckpointImage, BlockValueCountsBeyondTheSectionThrow) {
    for (const std::uint64_t count : {std::uint64_t{1} << 61, std::uint64_t{1} << 40}) {
        const std::vector<std::byte> image = one_rank_image(one_block_section(count));
        EXPECT_THROW(resilience::read_rank_blocks(image, 0), Error) << "count " << count;
    }
}

TEST(CheckpointImage, HeaderCountsBeyondTheBytesLeftThrow) {
    // With an empty state the header's u32 counts sit at fixed offsets:
    // objects, checksums, drift reference, (validation flag), leaves and
    // deref counters.
    const std::vector<std::byte> good = one_rank_image(one_block_section(0));
    for (const std::size_t at : {80u, 84u, 88u, 96u, 100u}) {
        std::vector<std::byte> image = good;
        ASSERT_EQ(peek<std::uint32_t>(image, at), 0u) << "offset " << at;
        poke<std::uint32_t>(image, at, 0xffffffffu);
        EXPECT_THROW(resilience::read_checkpoint_state(image), Error) << "offset " << at;
        EXPECT_THROW(resilience::read_rank_blocks(image, 0), Error) << "offset " << at;
    }
}

TEST(CheckpointImage, SectionHoldingAnotherRanksBlocksThrows) {
    const std::string path = temp_path("dfamr_ckpt_swapped.bin");
    Config cfg = tiny_config();
    cfg.num_tsteps = 1;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = path;
    run_variant(cfg, Variant::MpiOnly);

    // Swap the two section-table entries, so that each rank reads the
    // other's blocks: well-formed bytes, wrong keys.
    std::vector<std::byte> image;
    {
        std::ifstream in(path, std::ios::binary);
        const std::string raw((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
        image.resize(raw.size());
        std::memcpy(image.data(), raw.data(), raw.size());
    }
    constexpr std::size_t kEntry = 2 * sizeof(std::uint64_t);
    std::size_t table = 0;
    for (; table + 2 * kEntry <= image.size(); ++table) {
        const auto off0 = peek<std::uint64_t>(image, table);
        const auto off1 = peek<std::uint64_t>(image, table + kEntry);
        if (off0 == table + 2 * kEntry && off1 == off0 + peek<std::uint64_t>(image, table + 8) &&
            off1 + peek<std::uint64_t>(image, table + kEntry + 8) == image.size()) {
            break;
        }
    }
    ASSERT_LT(table + 2 * kEntry, image.size()) << "section table not found";
    std::vector<std::byte> entry0(image.begin() + static_cast<std::ptrdiff_t>(table),
                                  image.begin() + static_cast<std::ptrdiff_t>(table + kEntry));
    std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(table + kEntry), kEntry,
                image.begin() + static_cast<std::ptrdiff_t>(table));
    std::copy(entry0.begin(), entry0.end(),
              image.begin() + static_cast<std::ptrdiff_t>(table + kEntry));
    resilience::write_checkpoint_file(path, image);

    Config restored = tiny_config();
    restored.restore_path = path;
    try {
        run_variant(restored, Variant::MpiOnly);
        ADD_FAILURE() << "a section of another rank's blocks was restored";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos) << e.what();
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace dfamr
