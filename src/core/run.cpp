// Top-level variant runner: spins up the MPI world (in-process or TCP),
// runs one driver per local rank, and reduces the per-rank results. In a
// distributed world the reduction itself runs over MPI collectives, so
// every rank process returns the identical global RunResult.
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "core/sync_driver.hpp"
#include "core/tampi_oss.hpp"
#include "core/variants.hpp"

namespace dfamr::core {

namespace {

/// Cross-process reduction of one rank's result, mirroring the local
/// reduction in run_variant exactly (same operators per field). Every rank
/// computes the same global totals; checksums are already globally agreed.
RunResult reduce_distributed(mpi::Communicator& comm, const RankResult& r,
                             std::uint64_t local_messages, std::uint64_t local_bytes,
                             const net::NetCounters& local_net,
                             const std::vector<net::PeerStats>& local_peers) {
    RunResult g;
    g.checksums = r.checksums;

    // error_norm and the conservation ledger are already globally summed
    // inside the driver; Max just picks the agreed value without double
    // counting.
    double tmax_in[10] = {r.times.total,   r.times.refine,      r.times.comm,
                          r.times.stencil, r.times.checksum,    r.error_norm,
                          r.mass_drift,    r.boundary_outflux,  r.initial_mass,
                          r.final_mass};
    double tmax[10];
    comm.allreduce(tmax_in, tmax, 10, mpi::Op::Max);
    g.times.total = tmax[0];
    g.times.refine = tmax[1];
    g.times.comm = tmax[2];
    g.times.stencil = tmax[3];
    g.times.checksum = tmax[4];
    g.error_norm = tmax[5];
    g.mass_drift = tmax[6];
    g.boundary_outflux = tmax[7];
    g.initial_mass = tmax[8];
    g.final_mass = tmax[9];

    std::int64_t sums_in[6] = {r.stencil_flops,          r.final_blocks,
                               r.counters.blocks_split,  r.counters.blocks_merged,
                               r.counters.blocks_moved,  r.counters.blocks_refined_by_estimator};
    std::int64_t sums[6];
    comm.allreduce(sums_in, sums, 6, mpi::Op::Sum);
    g.total_flops = sums[0];
    g.final_blocks = sums[1];
    g.counters.blocks_split = sums[2];
    g.counters.blocks_merged = sums[3];
    g.counters.blocks_moved = sums[4];
    g.counters.blocks_refined_by_estimator = sums[5];

    std::int64_t maxes_in[6] = {r.counters.refinement_phases, r.counters.load_balances,
                                r.counters.checksum_stages, r.counters.refine_coarsen_thrash,
                                r.has_error_norm ? std::int64_t{1} : std::int64_t{0},
                                r.counters.reflux_corrections};
    std::int64_t maxes[6];
    comm.allreduce(maxes_in, maxes, 6, mpi::Op::Max);
    g.counters.refinement_phases = maxes[0];
    g.counters.load_balances = maxes[1];
    g.counters.checksum_stages = maxes[2];
    g.counters.refine_coarsen_thrash = maxes[3];
    g.has_error_norm = maxes[4] != 0;
    g.counters.reflux_corrections = maxes[5];

    std::uint64_t usums_in[23] = {
        r.sched.tasks_executed, r.sched.steals, r.sched.steal_fails, r.sched.parks,
        r.sched.wakeups, r.sched.immediate_successor_hits,
        r.sched_refine.tasks_executed, r.sched_refine.steals, r.sched_refine.steal_fails,
        r.sched_refine.parks, r.sched_refine.wakeups, r.sched_refine.immediate_successor_hits,
        local_messages, local_bytes,
        local_net.bytes_sent, local_net.bytes_received, local_net.frames_sent,
        local_net.frames_received, local_net.rendezvous, local_net.reconnects,
        local_net.coalesced_frames_sent, local_net.coalesced_messages,
        local_net.copies_elided};
    std::uint64_t usums[23];
    comm.allreduce(usums_in, usums, 23, mpi::Op::Sum);
    g.sched = {usums[0], usums[1], usums[2], usums[3], usums[4], usums[5]};
    g.sched_refine = {usums[6], usums[7], usums[8], usums[9], usums[10], usums[11]};
    g.messages = usums[12];
    g.bytes = usums[13];
    g.net = {usums[14], usums[15], usums[16], usums[17], usums[18], usums[19],
             usums[20], usums[21], usums[22]};

    // Per-peer wire traffic, flattened to nranks x 4 for one summed
    // allreduce (entry p = what every rank exchanged with rank p).
    const std::size_t nranks = static_cast<std::size_t>(comm.size());
    std::vector<std::uint64_t> peers_in(nranks * 4, 0);
    for (std::size_t p = 0; p < nranks && p < local_peers.size(); ++p) {
        peers_in[p * 4 + 0] = local_peers[p].bytes_sent;
        peers_in[p * 4 + 1] = local_peers[p].frames_sent;
        peers_in[p * 4 + 2] = local_peers[p].bytes_received;
        peers_in[p * 4 + 3] = local_peers[p].frames_received;
    }
    std::vector<std::uint64_t> peers_out(nranks * 4, 0);
    comm.allreduce(peers_in.data(), peers_out.data(), nranks * 4, mpi::Op::Sum);
    g.net_peers.resize(nranks);
    for (std::size_t p = 0; p < nranks; ++p) {
        g.net_peers[p] = {peers_out[p * 4 + 0], peers_out[p * 4 + 1], peers_out[p * 4 + 2],
                          peers_out[p * 4 + 3]};
    }

    int ok_in = r.validation_ok ? 1 : 0;
    int ok = 0;
    comm.allreduce(&ok_in, &ok, 1, mpi::Op::Min);
    g.validation_ok = ok == 1;
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
    RunResult distributed_total;
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
            // Reduce across processes while every rank is still inside
            // rank_main (the reduction is collective). Wire counters are
            // snapshotted first: the reduction itself adds traffic.
            RunResult g = reduce_distributed(comm, r, world.messages_delivered(),
                                             world.bytes_delivered(), world.net_counters(),
                                             world.peer_net_counters());
            g.rndv_threshold = opts.rendezvous_threshold;
            std::lock_guard lock(results_mutex);
            distributed_total = std::move(g);
            return;
        }
        std::lock_guard lock(results_mutex);
        results[static_cast<std::size_t>(comm.rank())] = std::move(r);
    });

    if (world.distributed()) return distributed_total;

    RunResult total;
    total.checksums = results[0].checksums;
    total.stop = results[0].stop;
    total.stop_ts = results[0].stop_ts;
    for (const RankResult& r : results) {
        DFAMR_REQUIRE(r.stop == total.stop && r.stop_ts == total.stop_ts,
                      "ranks disagree on the run-control stop decision");
        total.times.total = std::max(total.times.total, r.times.total);
        total.times.refine = std::max(total.times.refine, r.times.refine);
        total.times.comm = std::max(total.times.comm, r.times.comm);
        total.times.stencil = std::max(total.times.stencil, r.times.stencil);
        total.times.checksum = std::max(total.times.checksum, r.times.checksum);
        total.total_flops += r.stencil_flops;
        total.final_blocks += r.final_blocks;
        total.validation_ok = total.validation_ok && r.validation_ok;
        total.counters += r.counters;
        total.sched += r.sched;
        total.sched_refine += r.sched_refine;
        total.error_norm = std::max(total.error_norm, r.error_norm);
        total.has_error_norm = total.has_error_norm || r.has_error_norm;
        // Driver-allreduced globals: every rank already holds the agreed
        // value, so plain assignment selects it without double counting
        // (and unlike Max stays correct when outflux is negative).
        total.mass_drift = r.mass_drift;
        total.boundary_outflux = r.boundary_outflux;
        total.initial_mass = r.initial_mass;
        total.final_mass = r.final_mass;
        DFAMR_REQUIRE(r.checksums.size() == total.checksums.size(),
                      "ranks disagree on the number of checksum stages");
    }
    total.messages = world.messages_delivered();
    total.bytes = world.bytes_delivered();
    total.net = world.net_counters();
    if (opts.transport != mpi::TransportKind::Inproc) {
        total.net_peers = world.peer_net_counters();
    }
    total.rndv_threshold = opts.rendezvous_threshold;
    return total;
}

}  // namespace dfamr::core
