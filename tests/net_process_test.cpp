// Cross-process golden tests: launch real rank processes with dfamr_mpirun
// over the TCP and shared-memory transports and require bit-identical
// checksums to the in-process run, for every variant and every fast-path
// combination (--coalesce, --zero_copy), and the same rank-reduced result
// fields, plus launcher exit-code propagation and chaos runs over both
// transports.
//
// The binary paths come in as compile definitions (DFAMR_MPIRUN_BIN,
// DFAMR_SINGLE_SPHERE_BIN, DFAMR_TRUNCATING_RANK_BIN) so the test works
// from any CWD.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "common/json.hpp"

namespace dfamr {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// Runs a shell command, returns its exit status (-1 on system() failure).
int run(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    if (rc == -1) return -1;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128 + WTERMSIG(rc);
}

// Small but real problem: 2 timesteps of the single-sphere input.
const char* kProblem = "--num_tsteps 2 --checksum_freq 2 > /dev/null 2>&1";

// (transport, variant, extra rank flags). Every combination must be
// bit-identical to the plain in-process run of the same variant. Strings,
// not const char*: gtest prints a tuple's pointers as addresses, which
// would put a different test name in every build.
using GoldenParam = std::tuple<std::string, std::string, std::string>;

class MpirunGolden : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(MpirunGolden, ChecksumsBitIdenticalToInproc) {
    const auto [transport, variant, extra] = GetParam();
    const std::string tag = transport + "_" + variant + "_" + std::to_string(extra.size());
    const std::string dir = ::testing::TempDir();
    const std::string ref = dir + "/ref_" + tag + ".txt";
    const std::string wire = dir + "/wire_" + tag + ".txt";
    ASSERT_EQ(run(std::string(DFAMR_SINGLE_SPHERE_BIN) + " --variant " + variant +
                  " --checksum_out " + ref + " " + kProblem),
              0);
    ASSERT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport " + transport + " " +
                  DFAMR_SINGLE_SPHERE_BIN + " --variant " + variant + " " + extra +
                  " --checksum_out " + wire + " " + kProblem),
              0);
    const std::string a = read_file(ref), b = read_file(wire);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "checksums diverged between in-process and multi-process " << transport
                    << " (" << (extra.empty() ? "plain" : extra) << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Transports, MpirunGolden,
    ::testing::Combine(::testing::Values("tcp", "shm", "auto"),
                       ::testing::Values("mpi", "forkjoin", "tampi"),
                       ::testing::Values("")));

// The fast-path flags ride the same goldens: coalescing batches the wire
// frames, zero-copy packs straight into them, and the checksums must not
// move. One launcher flag set per run; tampi exercises --zero_copy as the
// documented no-op carve-out.
INSTANTIATE_TEST_SUITE_P(
    FastPaths, MpirunGolden,
    ::testing::Combine(::testing::Values("tcp", "shm"),
                       ::testing::Values("mpi", "forkjoin", "tampi"),
                       ::testing::Values("--zero_copy")));

// The distributed fold: a dfamr_mpirun world gathers every rank's share of
// the result and folds it by the rule an in-process world uses, so each
// rank-reduced field that timing cannot move must read the same in both
// metrics JSONs. The gaussian scenario refines, balances and refluxes, so
// the counters and the mass ledger are not zero.
using FoldParam = std::tuple<std::string, std::string>;  // (transport, variant)

class MpirunFold : public ::testing::TestWithParam<FoldParam> {};

TEST_P(MpirunFold, RankReducedFieldsMatchInproc) {
    const auto [transport, variant] = GetParam();
    const std::string dir = ::testing::TempDir();
    const std::string ref = dir + "/fold_ref_" + transport + "_" + variant;
    const std::string wire = dir + "/fold_wire_" + transport + "_" + variant;
    const std::string flags = " --variant " + variant +
                              " --scenario gaussian --estimator gradient"
                              " --refine_threshold 0.1 --deref_count 3 ";
    ASSERT_EQ(run(std::string(DFAMR_SINGLE_SPHERE_BIN) + flags + "--trace_out " + ref + " " +
                  kProblem),
              0);
    ASSERT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport " + transport + " " +
                  DFAMR_SINGLE_SPHERE_BIN + flags + "--trace_out " + wire + " " + kProblem),
              0);
    const json::Value a = json::parse(read_file(ref + ".metrics.json"));
    const json::Value b = json::parse(read_file(wire + ".metrics.json"));
    const auto expect_same = [&](const char* section, const char* key) {
        const json::Value& x = a.at(section).at(key);
        const json::Value& y = b.at(section).at(key);
        ASSERT_EQ(x.kind(), y.kind()) << section << "." << key;
        if (x.is_bool()) {
            EXPECT_EQ(x.as_bool(), y.as_bool()) << section << "." << key;
        } else {
            EXPECT_EQ(x.as_double(), y.as_double()) << section << "." << key;
        }
    };
    for (const char* key :
         {"total_flops", "final_blocks", "validation_ok", "blocks_split", "blocks_merged",
          "blocks_moved", "blocks_refined_by_estimator", "refinement_phases", "load_balances",
          "checksum_stages", "refine_coarsen_thrash", "reflux_corrections", "mass_drift",
          "boundary_outflux", "initial_mass", "final_mass", "messages", "bytes"}) {
        expect_same("run", key);
    }
    expect_same("scheduler", "tasks_executed");
    const json::Value& run_a = a.at("run");
    EXPECT_TRUE(run_a.at("validation_ok").as_bool());
    EXPECT_GT(run_a.at("blocks_split").as_int(), 0);
    EXPECT_GT(run_a.at("reflux_corrections").as_int(), 0);
    EXPECT_NE(run_a.at("initial_mass").as_double(), 0.0);
    if (variant != "mpi") {
        EXPECT_GT(a.at("scheduler").at("tasks_executed").as_int(), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Transports, MpirunFold,
                         ::testing::Combine(::testing::Values("tcp", "shm"),
                                            ::testing::Values("mpi", "forkjoin", "tampi")));

class MpirunCoalesce : public ::testing::TestWithParam<const char*> {};

TEST_P(MpirunCoalesce, OnOffGoldensMatch) {
    // --coalesce is a launcher flag (it reaches ranks via DFAMR_COALESCE),
    // so compare a coalesced world directly against a plain one.
    const std::string transport = GetParam();
    const std::string dir = ::testing::TempDir();
    const std::string off = dir + "/coalesce_off_" + transport + ".txt";
    const std::string on = dir + "/coalesce_on_" + transport + ".txt";
    ASSERT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport " + transport + " " +
                  DFAMR_SINGLE_SPHERE_BIN + " --checksum_out " + off + " " + kProblem),
              0);
    ASSERT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport " + transport +
                  " --coalesce " + DFAMR_SINGLE_SPHERE_BIN + " --zero_copy --checksum_out " +
                  on + " " + kProblem),
              0);
    const std::string a = read_file(off), b = read_file(on);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "coalescing changed the checksums over " << transport;
}

INSTANTIATE_TEST_SUITE_P(Transports, MpirunCoalesce, ::testing::Values("tcp", "shm"));

class MpirunChaos : public ::testing::TestWithParam<const char*> {};

TEST_P(MpirunChaos, ChaosMatchesFaultFreeTwin) {
    // single_sphere runs its own in-process fault-free twin and exits
    // non-zero if the chaos checksums diverge; rendezvous forced low so the
    // faults hit both eager and rendezvous traffic. The launcher args also
    // turn both fast paths on: faults must not break them either.
    const std::string transport = GetParam();
    EXPECT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport " + transport +
                  " --coalesce " + DFAMR_SINGLE_SPHERE_BIN +
                  " --zero_copy --rendezvous_threshold 4096 --fault_seed 7"
                  " --fault_drop_prob 0.02 --fault_delay_prob 0.05 " +
                  kProblem),
              0);
}

INSTANTIATE_TEST_SUITE_P(Transports, MpirunChaos, ::testing::Values("tcp", "shm"));

// DepLint as a cross-process race prover: DFAMR_DEPLINT=1 attaches the
// verifier inside every rank process, so each rank's full task history —
// including the TAMPI communication tasks driven by real TCP traffic — must
// pass the happens-before proof at shutdown. A dirty proof aborts the rank
// and dfamr_mpirun propagates the non-zero exit.
class MpirunDepLint : public ::testing::TestWithParam<const char*> {};

TEST_P(MpirunDepLint, TwoRankTaskGraphProvedRaceFree) {
    const std::string variant = GetParam();
    EXPECT_EQ(run(std::string("DFAMR_DEPLINT=1 ") + DFAMR_MPIRUN_BIN + " -n 2 " +
                  DFAMR_SINGLE_SPHERE_BIN + " --transport tcp --variant " + variant + " " +
                  kProblem),
              0)
        << "DepLint reported an unordered conflict in a rank's task graph";
}

INSTANTIATE_TEST_SUITE_P(TaskVariants, MpirunDepLint, ::testing::Values("forkjoin", "tampi"));

TEST(Mpirun, PropagatesRankExitCode) {
    EXPECT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 sh -c 'exit 3' > /dev/null 2>&1"), 3);
}

TEST(Mpirun, TruncatedWireMessageFailsTheReceivingRankCleanly) {
    // The receive fails on the transport's receive thread and its wait
    // raises the error: a RankError exit 1, not an abort (134).
    EXPECT_EQ(run(std::string(DFAMR_MPIRUN_BIN) + " -n 2 --transport tcp " +
                  DFAMR_TRUNCATING_RANK_BIN + " > /dev/null 2>&1"),
              1);
}

TEST(Mpirun, RankChosenShmMeshesInTheLaunchersNamespace) {
    // The launcher runs its default transport and the ranks choose shm on
    // their own command line: they still share the launcher's namespace,
    // whose segments (named after the launcher's pid) are gone at exit.
    const std::string dir = ::testing::TempDir();
    const std::string ref = dir + "/ref_rank_shm.txt";
    const std::string wire = dir + "/wire_rank_shm.txt";
    const std::string pid_file = dir + "/rank_shm.pid";
    ASSERT_EQ(run(std::string(DFAMR_SINGLE_SPHERE_BIN) + " --checksum_out " + ref + " " +
                  kProblem),
              0);
    ASSERT_EQ(run("sh -c 'echo $$ > " + pid_file + "; exec " + DFAMR_MPIRUN_BIN + " -n 2 " +
                  DFAMR_SINGLE_SPHERE_BIN + " --transport shm --checksum_out " + wire + " " +
                  kProblem + "'"),
              0);
    const std::string a = read_file(ref), b = read_file(wire);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    std::string pid = read_file(pid_file);
    while (!pid.empty() && (pid.back() == '\n' || pid.back() == ' ')) pid.pop_back();
    ASSERT_FALSE(pid.empty());
    for (const char* segment : {"0to1", "1to0"}) {
        const std::string path = "/dev/shm/dfamr_w" + pid + "_" + segment;
        EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " left behind";
    }
}

TEST(Mpirun, FailsCleanlyOnUnlaunchableCommand) {
    EXPECT_NE(run(std::string(DFAMR_MPIRUN_BIN) +
                  " -n 2 ./definitely-not-a-binary > /dev/null 2>&1"),
              0);
}

}  // namespace
}  // namespace dfamr
