// Top-level variant runner: spins up the MPI world (in-process or TCP),
// runs one driver per local rank, and folds the ranks' results with
// RankStats::operator+=. A distributed world first gathers every rank
// process's share over MPI collectives, so every rank process returns the
// identical global RunResult.
#include <cstdlib>
#include <mutex>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "core/sync_driver.hpp"
#include "core/tampi_oss.hpp"
#include "core/variants.hpp"

namespace dfamr::core {

namespace {

/// Folds the ranks' shares in rank order: rank 0's starts the total and
/// every other rank's folds in through RankStats::operator+=. Both worlds
/// reduce here, so every rank process of a distributed run returns what an
/// in-process run of the same config does.
void fold_ranks(RunResult& total, std::span<const RankStats> ranks) {
    static_cast<RankStats&>(total) = ranks.front();
    for (const RankStats& r : ranks.subspan(1)) total += r;
}

/// Every rank process's `mine`, in rank order.
template <typename T>
std::vector<T> gather(mpi::Communicator& comm, const T& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> all(static_cast<std::size_t>(comm.size()));
    comm.allgather(&mine, sizeof(T), all.data());
    return all;
}

/// The sum of every rank process's `mine`.
template <typename T>
T sum(mpi::Communicator& comm, const T& mine) {
    T total{};
    for (const T& v : gather(comm, mine)) total += v;
    return total;
}

/// The result of a distributed run, the same on every rank process: the
/// ranks' shares and each process's world counters (its rank's messages,
/// its wire traffic, its arena), gathered and folded.
RunResult reduce_processes(mpi::Communicator& comm, const mpi::World& world,
                           const amr::BlockArena& arena, RankResult r) {
    // Snapshot the world counters first: the gathers add traffic.
    const std::uint64_t messages = world.messages_delivered();
    const std::uint64_t bytes = world.bytes_delivered();
    const net::NetCounters wire = world.net_counters();
    std::vector<net::PeerStats> peers = world.peer_net_counters();
    const std::uint64_t high_water = arena.high_water();

    RunResult g;
    g.checksums = std::move(r.checksums);  // the same on every rank
    fold_ranks(g, gather(comm, static_cast<const RankStats&>(r)));
    g.messages = sum(comm, messages);
    g.bytes = sum(comm, bytes);
    g.net = sum(comm, wire);
    g.arena_high_water = sum(comm, high_water);
    // Row p of the gather is process p's traffic with each peer.
    const auto n = static_cast<std::size_t>(comm.size());
    peers.resize(n);
    std::vector<net::PeerStats> rows(n * n);
    comm.allgather(peers.data(), n * sizeof(net::PeerStats), rows.data());
    g.net_peers.resize(n);
    for (std::size_t i = 0; i < rows.size(); ++i) g.net_peers[i % n] += rows[i];
    return g;
}

}  // namespace

void RunOptions::register_cli(CliParser& cli) {
    cli.add_option("--transport", "message transport: inproc | tcp | shm | auto", "");
    cli.add_option("--rendezvous_threshold",
                   "wire payload size (bytes) at which sends switch from eager to the "
                   "Rts/Cts rendezvous handshake",
                   "65536");
    cli.add_flag("--coalesce",
                 "batch consecutive same-destination eager frames into one coalesced "
                 "wire frame (generalizes --send_faces to the transport layer)");
}

RunOptions RunOptions::from_cli(const CliParser& cli) {
    RunOptions opts;
    std::string transport;
    if (cli.has("--transport")) transport = cli.get_string("--transport");
    if (transport.empty()) {
        // dfamr_mpirun sets DFAMR_TRANSPORT for its rank processes.
        const char* env = std::getenv("DFAMR_TRANSPORT");
        if (env != nullptr) transport = env;
    }
    if (transport == "tcp") {
        opts.transport = mpi::TransportKind::Tcp;
    } else if (transport == "shm" || transport == "auto") {
        // Every in-process world is co-located by definition, and the
        // launcher resolves auto before spawning ranks, so auto means shm
        // wherever this code sees it.
        opts.transport = mpi::TransportKind::Shm;
    } else if (!transport.empty() && transport != "inproc") {
        throw ConfigError("unknown transport '" + transport +
                          "' (expected inproc, tcp, shm or auto)");
    }
    if (cli.has("--rendezvous_threshold")) {
        opts.rendezvous_threshold =
            static_cast<std::size_t>(cli.get_int("--rendezvous_threshold"));
    } else if (const char* env = std::getenv("DFAMR_RNDZ_THRESHOLD")) {
        opts.rendezvous_threshold = static_cast<std::size_t>(std::atol(env));
    }
    if (cli.has("--coalesce")) {
        opts.coalesce = true;
    } else if (const char* env = std::getenv("DFAMR_COALESCE")) {
        opts.coalesce = *env != '\0' && *env != '0';
    }
    return opts;
}

RunResult run_variant(const amr::Config& cfg, amr::Variant variant, amr::Tracer* tracer,
                      mpi::FaultInjector* faults, const RunOptions& opts) {
    cfg.validate();
    mpi::WorldOptions wopts;
    wopts.transport = opts.transport;
    wopts.rendezvous_threshold = opts.rendezvous_threshold;
    wopts.coalesce = opts.coalesce;
    wopts.ignore_launch_env = opts.ignore_launch_env;
    if (tracer != nullptr) {
        // The progress thread records under the dedicated progress lane: it
        // shows in per-core timelines but is excluded from the utilization
        // denominator (it is not a compute core, and cfg.workers would
        // collide with a real worker lane after the lane-0 = main-thread
        // shift).
        wopts.progress_trace = [tracer](int rank, std::int64_t t0, std::int64_t t1) {
            tracer->record(rank, amr::kProgressWorker, t0, t1, amr::PhaseKind::NetProgress);
        };
    }
    mpi::World world(cfg.num_ranks(), wopts, faults);
    DFAMR_REQUIRE(opts.control == nullptr || !world.distributed(),
                  "run control (suspend/resume) requires an in-process world");

    std::mutex results_mutex;
    std::vector<RankResult> results(static_cast<std::size_t>(cfg.num_ranks()));
    RunResult total;
    // One block arena for the run's local ranks: a block moved between
    // ranks frees a buffer the receiver can reuse (DESIGN.md §8).
    const auto arena = std::make_shared<amr::BlockArena>(static_cast<std::size_t>(
        amr::BlockShape{cfg.nx, cfg.ny, cfg.nz, cfg.num_vars}.total_cells()));

    world.run([&](mpi::Communicator& comm) {
        std::unique_ptr<DriverBase> driver;
        if (variant == amr::Variant::TampiOss) {
            driver = std::make_unique<TampiOssDriver>(cfg, comm, tracer, arena);
        } else {
            amr::Config rank_cfg = cfg;
            // MPI-only: one rank per core, sequential inside.
            if (variant == amr::Variant::MpiOnly) rank_cfg.workers = 1;
            driver = std::make_unique<SyncDriver>(rank_cfg, comm, tracer, arena, variant);
        }
        driver->set_control(opts.control);
        RankResult r;
        try {
            r = driver->run();
        } catch (...) {
            // This rank is unwinding (its own fault or a sibling's abort
            // observed mid-wait) and the driver is about to free the buffers
            // its posted receives point into. Unpost them first: a sibling
            // that has not yet noticed the abort may still be sending, and a
            // matched delivery would memcpy into freed memory.
            comm.abandon_posted_recvs();
            throw;
        }
        if (world.distributed()) {
            // Reduce while every rank is still inside rank_main: the
            // gathers are collective.
            RunResult g = reduce_processes(comm, world, *arena, std::move(r));
            std::lock_guard lock(results_mutex);
            total = std::move(g);
            return;
        }
        std::lock_guard lock(results_mutex);
        results[static_cast<std::size_t>(comm.rank())] = std::move(r);
    });

    if (!world.distributed()) {
        for (const RankResult& r : results) {
            DFAMR_REQUIRE(r.checksums.size() == results[0].checksums.size(),
                          "ranks disagree on the number of checksum stages");
        }
        total.checksums = results[0].checksums;
        fold_ranks(total, std::vector<RankStats>(results.begin(), results.end()));
        total.messages = world.messages_delivered();
        total.bytes = world.bytes_delivered();
        total.net = world.net_counters();
        if (opts.transport != mpi::TransportKind::Inproc) {
            total.net_peers = world.peer_net_counters();
        }
        total.arena_high_water = arena->high_water();
    }
    total.rndv_threshold = opts.rendezvous_threshold;
    return total;
}

}  // namespace dfamr::core
