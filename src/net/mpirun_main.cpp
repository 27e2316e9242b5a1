// dfamr_mpirun: mpirun-style process launcher for the wire transports.
//
//   dfamr_mpirun -n 4 [--transport tcp|shm|auto] [--coalesce]
//                [--rendezvous_threshold BYTES] ./single_sphere --npx 4 ...
//
// Forks/execs one process per rank with the DFAMR_* launch environment set
// (see rendezvous.hpp), runs the address-exchange server, and waits for the
// world. The first rank that exits non-zero (or on a signal) kills the rest
// and its exit status becomes the launcher's; a signal death exits 128+sig.
//
// Transports: tcp (default) gives every rank a loopback TCP endpoint; shm
// gives each directed rank pair a shared-memory ring (the launcher is
// single-host, so every world it starts is co-located). auto resolves to
// shm for that reason. The exchange server runs in every mode — the shm
// transport uses its round trip as the segment-creation barrier. Every mode
// also exports the shm namespace and sweeps its segments at exit, so a rank
// command that passes its own --transport shm works the same way.
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/rendezvous.hpp"
#include "net/socket.hpp"

namespace {

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s -n NRANKS [--transport tcp|shm|auto] [--coalesce]\n"
                 "       [--rendezvous_threshold BYTES] COMMAND [ARGS...]\n"
                 "Runs COMMAND as NRANKS rank processes over the selected transport\n"
                 "(auto = shm: the launcher always starts a co-located world).\n",
                 argv0);
}

void set_env_int(const char* name, long v) {
    setenv(name, std::to_string(v).c_str(), 1);
}

}  // namespace

int main(int argc, char** argv) {
    int nranks = 0;
    long rndz_threshold = -1;
    std::string transport = "tcp";
    bool coalesce = false;
    int argi = 1;
    while (argi < argc) {
        const std::string a = argv[argi];
        if (a == "-n" || a == "--np") {
            if (argi + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            nranks = std::atoi(argv[argi + 1]);
            argi += 2;
        } else if (a == "--rendezvous_threshold") {
            if (argi + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            rndz_threshold = std::atol(argv[argi + 1]);
            argi += 2;
        } else if (a == "--transport") {
            if (argi + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            transport = argv[argi + 1];
            argi += 2;
        } else if (a == "--coalesce") {
            coalesce = true;
            ++argi;
        } else if (a == "-h" || a == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            break;  // start of the command
        }
    }
    if (nranks < 1 || argi >= argc) {
        usage(argv[0]);
        return 2;
    }
    if (transport == "auto") transport = "shm";  // the launcher is single-host
    if (transport != "tcp" && transport != "shm") {
        std::fprintf(stderr, "dfamr_mpirun: unknown transport '%s' (expected tcp, shm or auto)\n",
                     transport.c_str());
        return 2;
    }

    auto [listener, rdv_port] = dfamr::net::listen_on("127.0.0.1", 0, nranks + 8);

    // Shm worlds share a namespace distinct per launcher invocation so two
    // concurrent launches on one host never collide on segment names. Every
    // transport exports it: a rank command may pick shm on its own command
    // line, and its ranks must still find each other's segments.
    const std::string shm_ns = "w" + std::to_string(static_cast<long>(getpid()));

    std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
    for (int r = 0; r < nranks; ++r) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("dfamr_mpirun: fork");
            for (pid_t p : pids) {
                if (p > 0) kill(p, SIGKILL);
            }
            return 1;
        }
        if (pid == 0) {
            set_env_int("DFAMR_RANK", r);
            set_env_int("DFAMR_NRANKS", nranks);
            setenv("DFAMR_RDV_HOST", "127.0.0.1", 1);
            set_env_int("DFAMR_RDV_PORT", rdv_port);
            setenv("DFAMR_TRANSPORT", transport.c_str(), 1);
            setenv("DFAMR_SHM_NS", shm_ns.c_str(), 1);
            if (coalesce) setenv("DFAMR_COALESCE", "1", 1);
            if (rndz_threshold >= 0) set_env_int("DFAMR_RNDZ_THRESHOLD", rndz_threshold);
            execvp(argv[argi], argv + argi);
            std::fprintf(stderr, "dfamr_mpirun: exec %s: %s\n", argv[argi],
                         std::strerror(errno));
            _exit(127);
        }
        pids[static_cast<std::size_t>(r)] = pid;
    }

    // The exchange server would block forever if a rank dies before
    // registering, so run it off-thread and watch the children here.
    std::thread exchange([&] {
        try {
            dfamr::net::run_exchange_server(listener, nranks);
        } catch (const std::exception& e) {
            // A dying world tears the exchange connections down; the
            // wait loop below reports the real failure.
            std::fprintf(stderr, "dfamr_mpirun: rendezvous: %s\n", e.what());
        }
    });

    int world_status = 0;
    int remaining = nranks;
    bool killed = false;
    while (remaining > 0) {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR) continue;
            break;
        }
        int rank = -1;
        for (int r = 0; r < nranks; ++r) {
            if (pids[static_cast<std::size_t>(r)] == pid) rank = r;
        }
        if (rank < 0) continue;  // not one of ours
        pids[static_cast<std::size_t>(rank)] = -1;
        --remaining;
        int code = 0;
        if (WIFEXITED(status)) {
            code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
            code = 128 + WTERMSIG(status);
            std::fprintf(stderr, "dfamr_mpirun: rank %d killed by signal %d\n", rank,
                         WTERMSIG(status));
        }
        if (code != 0 && world_status == 0) {
            world_status = code;
            std::fprintf(stderr, "dfamr_mpirun: rank %d exited with status %d; killing world\n",
                         rank, code);
        }
        if (world_status != 0 && !killed) {
            killed = true;
            for (pid_t p : pids) {
                if (p > 0) kill(p, SIGTERM);
            }
            // Escalate if anything ignores the SIGTERM.
            std::thread([pids] {
                std::this_thread::sleep_for(std::chrono::seconds(5));
                for (pid_t p : pids) {
                    if (p > 0) kill(p, SIGKILL);
                }
            }).detach();
        }
    }
    // If some rank died before registering, the exchange thread is still
    // parked in accept(); a throwaway self-connection (closed immediately)
    // unblocks it and the mid-registration EOF makes it bail out.
    try {
        dfamr::net::dial(dfamr::net::HostPort{"127.0.0.1", rdv_port}, 1);
    } catch (const std::exception&) {
    }
    exchange.join();
    // Normal teardown unlinks every segment (consumers own the names); sweep
    // up after crashed worlds so /dev/shm never accumulates. Whatever the
    // launcher's transport: the ranks may have chosen shm themselves.
    for (int i = 0; i < nranks; ++i) {
        for (int j = 0; j < nranks; ++j) {
            if (i == j) continue;
            const std::string name =
                "/dfamr_" + shm_ns + "_" + std::to_string(i) + "to" + std::to_string(j);
            shm_unlink(name.c_str());
        }
    }
    return world_status;
}
