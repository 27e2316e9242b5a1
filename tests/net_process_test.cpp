// Cross-process golden tests: launch real rank processes with dfamr_mpirun
// over the TCP and shared-memory transports and require bit-identical
// checksums to the in-process run, for every variant and every fast-path
// combination (--coalesce, --zero_copy), plus launcher exit-code
// propagation and chaos runs over both transports.
//
// The binary paths come in as compile definitions (DFAMR_MPIRUN_BIN,
// DFAMR_SINGLE_SPHERE_BIN) so the test works from any CWD.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

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

TEST(Mpirun, FailsCleanlyOnUnlaunchableCommand) {
    EXPECT_NE(run(std::string(DFAMR_MPIRUN_BIN) +
                  " -n 2 ./definitely-not-a-binary > /dev/null 2>&1"),
              0);
}

}  // namespace
}  // namespace dfamr
