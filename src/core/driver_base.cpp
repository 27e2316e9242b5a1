#include "core/driver_base.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <span>

#include "amr/scratch.hpp"
#include "common/error.hpp"
#include "common/timing.hpp"
#include "tasking/runtime.hpp"
#include "verify/access_check.hpp"
#include "verify/verifier.hpp"

// Access checks on whole spans; free (not even evaluated) without
// DFAMR_VERIFY.
#define DFAMR_CHECK_SPAN_READ(s) DFAMR_CHECK_READ((s).data(), (s).size_bytes())
#define DFAMR_CHECK_SPAN_WRITE(s) DFAMR_CHECK_WRITE((s).data(), (s).size_bytes())

namespace dfamr::core {

namespace graph = amr::graph;

namespace {
resilience::RetryPolicy retry_policy(const Config& cfg) {
    resilience::RetryPolicy policy;
    policy.max_attempts = cfg.comm_max_attempts;
    policy.timeout_ns = static_cast<std::int64_t>(cfg.comm_timeout_s * 1e9);
    return policy;
}
}  // namespace

DriverBase::DriverBase(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
                       std::shared_ptr<amr::BlockArena> arena)
    : cfg_(cfg),
      comm_(comm),
      rank_(comm.rank()),
      tracer_(tracer),
      hcomm_(comm, retry_policy(cfg), tracer),
      mesh_(cfg, comm.rank(), std::move(arena)) {
    cfg_.validate();
    DFAMR_REQUIRE(cfg_.num_ranks() == comm.size(),
                  "communicator size must match npx*npy*npz");
    condition_ = scenario::find_condition(cfg_.estimator);
    DFAMR_REQUIRE(condition_ != nullptr,
                  "unknown estimator '" + cfg_.estimator +
                      "' (expected objects, gradient or curvature)");
    if (cfg_.scenario != "synthetic") {
        generator_ = scenario::find_generator(cfg_.scenario);
        DFAMR_REQUIRE(generator_ != nullptr,
                      "unknown scenario '" + cfg_.scenario +
                          "' (expected synthetic, gaussian, slotted_cylinder or front)");
        dt_ = generator_->stable_dt(cfg_);
    }
    mesh_.init_blocks();
    if (generator_ != nullptr) {
        // Replace the hashed synthetic field with the scenario's initial
        // profile (a checkpoint restore overwrites this wholesale later).
        for (const BlockKey& key : mesh_.owned_keys()) {
            generator_->init_block(mesh_.block(key), mesh_.structure().box(key));
        }
    }
    rebuild_comm_plan();
}

tasking::RuntimeStats DriverBase::runtime_stats() const {
    return runtime_ != nullptr ? runtime_->stats() : tasking::RuntimeStats{};
}

int DriverBase::worker_index() const { return runtime_ != nullptr ? runtime_->trace_lane() : 0; }

void DriverBase::sample_sched_counters() {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    const tasking::RuntimeStats c = runtime_stats();
    const std::int64_t t = now_ns();
    tracer_->record_counter(rank_, t, "tasks_executed", static_cast<double>(c.tasks_executed));
    tracer_->record_counter(rank_, t, "steals", static_cast<double>(c.steals));
    tracer_->record_counter(rank_, t, "parks", static_cast<double>(c.parks));
    tracer_->record_counter(rank_, t, "wakeups", static_cast<double>(c.wakeups));
}

void DriverBase::rebuild_comm_plan() {
    amr::CommPlanOptions options;
    options.send_faces = cfg_.send_faces;
    options.max_comm_tasks = cfg_.max_comm_tasks;
    plan_ = CommPlan(mesh_.structure(), mesh_.shape(), rank_, options);
    buffers_ = CommBuffers(plan_, cfg_.vars_per_group(), cfg_.separate_buffers);
    if (generator_ != nullptr) {
        // Flux registers and their exchange plan follow the ghost plan's
        // lifetime: registers are per-stage transient, so nothing needs to
        // survive a rebuild. The flux streams never share storage across
        // directions.
        flux_plan_ = amr::build_flux_plan(plan_, mesh_.shape());
        flux_regs_.clear();
        for (const BlockKey& key : mesh_.owned_keys()) {
            flux_regs_.emplace(key, FluxRegister(mesh_.shape()));
        }
        flux_buffers_ = CommBuffers(flux_plan_, cfg_.vars_per_group(), /*separate_buffers=*/true);
    }
}

RankResult DriverBase::run() {
    comm_.barrier();
    Stopwatch total;
    total.start();
    if (control_ != nullptr && control_->restore_image != nullptr) {
        restore_state();
    } else if (!cfg_.restore_path.empty()) {
        // The checkpoint already contains the fully refined, balanced mesh;
        // skip the initial refinement and resume the timestep loop.
        restore_state();
    } else if (cfg_.refine_freq > 0 && cfg_.num_refine > 0) {
        // Initial refinement phase: adapt the initial mesh to the objects
        // before the first timestep (the dense region at the start of the
        // Fig. 1 traces).
        refinement_phase(0);
    }
    if (generator_ != nullptr && !restored_initial_mass_) {
        const double local = local_mass();
        comm_.allreduce(&local, &result_.initial_mass, 1, mpi::Op::Sum);
    }
    main_loop();
    final_sync();
    result_.total_flops = flops_.load();
    compute_error_norm();
    if (generator_ != nullptr) {
        // Conservation accounting, allreduced once so every rank reports
        // the global values (like error_norm). The budget identity
        // |final - initial + outflux| ~ rounding is what "conserved" means;
        // mass_drift is the per-interface reflux residual, exactly zero.
        const double local = local_mass();
        comm_.allreduce(&local, &result_.final_mass, 1, mpi::Op::Sum);
        double drift = mass_drift_.load();
        comm_.allreduce(&drift, &result_.mass_drift, 1, mpi::Op::Sum);
        comm_.allreduce(&boundary_outflux_, &result_.boundary_outflux, 1, mpi::Op::Sum);
        const std::int64_t corrections = reflux_corrections_.load();
        comm_.allreduce(&corrections, &result_.counters.reflux_corrections, 1, mpi::Op::Sum);
    }
    total.stop();
    result_.sched = runtime_stats();
    result_.times.total = total.elapsed_s();
    result_.final_blocks = static_cast<std::int64_t>(mesh_.num_owned());
    return result_;
}

void DriverBase::main_loop() {
    for (int ts = start_ts_; ts <= cfg_.num_tsteps; ++ts) {
        maybe_recompute_dt();
        for (int stage = 0; stage < cfg_.stages_per_ts; ++stage) {
            for (int group = 0; group < cfg_.num_groups(); ++group) {
                communicate_stage(group);
                stencil_stage(group);
                if (generator_ != nullptr) reflux_stage(group);
            }
            ++stage_counter_;
            sim_time_ += dt_;
            if (cfg_.checksum_freq > 0 && stage_counter_ % cfg_.checksum_freq == 0) {
                Stopwatch sw;
                sw.start();
                checksum_stage();
                sw.stop();
                result_.times.checksum += sw.elapsed_s();
            }
        }
        if (cfg_.refine_freq > 0 && cfg_.num_refine > 0 && ts % cfg_.refine_freq == 0) {
            refinement_phase(cfg_.refine_freq);
        }
        if (cfg_.checkpoint_every > 0 && ts % cfg_.checkpoint_every == 0) {
            write_state(ts);
        }
        sample_sched_counters();
        if (control_ != nullptr) {
            const RunAction action = consult_control(ts);
            if (action == RunAction::Suspend) {
                write_state(ts, /*suspending=*/true);
                result_.stop = StopKind::Suspended;
                result_.stop_ts = ts;
                return;
            }
            if (action == RunAction::Cancel) {
                // Quiesce like a checkpoint would, but drop the state.
                sync_before_refine();
                comm_.barrier();
                result_.stop = StopKind::Cancelled;
                result_.stop_ts = ts;
                return;
            }
        }
    }
}

RunAction DriverBase::consult_control(int ts_completed) {
    int decision = static_cast<int>(RunAction::Continue);
    if (rank_ == 0 && control_->on_timestep) {
        decision = static_cast<int>(control_->on_timestep(ts_completed, cfg_.num_tsteps));
    }
    // Collective agreement: every rank must take the same branch, so the
    // rank-0 decision is broadcast before anyone acts on it.
    comm_.bcast(&decision, sizeof decision, 0);
    return static_cast<RunAction>(decision);
}

void DriverBase::write_state(int ts_completed, bool suspending) {
    // Quiesce: drain in-flight tasks and resolve any deferred checksum so
    // the serialized state equals what a fresh run would hold at this point.
    sync_before_refine();
    comm_.barrier();
    const std::int64_t t0 = now_ns();

    resilience::CheckpointState state;
    state.config_fingerprint = resilience::config_fingerprint(cfg_);
    state.nranks = cfg_.num_ranks();
    state.ts_completed = ts_completed;
    state.stage_counter = stage_counter_;
    state.sim_time = sim_time_;
    state.initial_mass = result_.initial_mass;  // allreduced before main_loop
    // Conservation tallies are per-rank accumulators; the image stores the
    // global sums (we are quiesced and collective here) and a restore seeds
    // rank 0 with them, so end-of-run totals match an uninterrupted run.
    // The flux registers themselves are per-stage transient — overwritten by
    // the first advance after the restore — and are not serialized.
    double drift = mass_drift_.load();
    comm_.allreduce(&drift, &state.mass_drift, 1, mpi::Op::Sum);
    comm_.allreduce(&boundary_outflux_, &state.boundary_outflux, 1, mpi::Op::Sum);
    const std::int64_t corrections = reflux_corrections_.load();
    comm_.allreduce(&corrections, &state.reflux_corrections, 1, mpi::Op::Sum);
    state.objects = cfg_.objects;
    state.checksums = result_.checksums;
    state.checksum_reference = checksum_reference_;
    state.validation_ok = result_.validation_ok;
    state.owners = mesh_.structure().leaves();
    state.deref_counts = deref_counts_;

    // Route the assembled image: a suspension always goes to the host's
    // in-memory sink; a periodic checkpoint goes in-memory when the host
    // asked for it (on_checkpoint_image) and to disk otherwise. The image
    // bytes are identical either way.
    const bool to_memory =
        control_ != nullptr &&
        ((suspending && control_->on_suspend_image) || (!suspending && control_->on_checkpoint_image));
    if (to_memory) {
        std::vector<std::byte> image =
            resilience::build_checkpoint(hcomm_, state, resilience::serialize_rank_blocks(mesh_));
        if (rank_ == 0) {
            if (suspending) {
                control_->on_suspend_image(std::move(image));
            } else {
                control_->on_checkpoint_image(ts_completed, std::move(image));
            }
        }
    } else {
        resilience::write_checkpoint(hcomm_, cfg_.checkpoint_path, state,
                                     resilience::serialize_rank_blocks(mesh_));
    }

    trace(0, t0, now_ns(), PhaseKind::Control);
    comm_.barrier();  // nobody resumes until the image is durably in place
}

void DriverBase::restore_state() {
    const std::int64_t t0 = now_ns();
    // The image is read once, from memory or from disk, and both parses
    // below walk that one span.
    const bool from_memory = control_ != nullptr && control_->restore_image != nullptr;
    std::vector<std::byte> file;
    if (!from_memory) file = resilience::read_checkpoint_file(cfg_.restore_path);
    const std::span<const std::byte> image =
        from_memory ? std::span<const std::byte>(*control_->restore_image)
                    : std::span<const std::byte>(file);
    const resilience::CheckpointState state = resilience::read_checkpoint_state(image);
    DFAMR_REQUIRE(state.config_fingerprint == resilience::config_fingerprint(cfg_),
                  "checkpoint was written by an incompatible configuration");
    DFAMR_REQUIRE(state.nranks == cfg_.num_ranks(), "checkpoint rank count mismatch");

    cfg_.objects = state.objects;
    result_.checksums = state.checksums;
    result_.validation_ok = state.validation_ok;
    checksum_reference_ = state.checksum_reference;
    start_ts_ = state.ts_completed + 1;
    stage_counter_ = state.stage_counter;
    sim_time_ = state.sim_time;
    // The budget identity must keep referring to the true start of the
    // simulation: every rank adopts the stored global initial mass instead
    // of re-summing the (mid-run) restored field.
    result_.initial_mass = state.initial_mass;
    restored_initial_mass_ = true;
    // The image holds global tallies; seed them on rank 0 only so the
    // end-of-run Sum-allreduce does not multiply-count them.
    if (rank_ == 0) {
        mass_drift_.store(state.mass_drift);
        boundary_outflux_ = state.boundary_outflux;
        reflux_corrections_.store(state.reflux_corrections);
    }
    // Mid-streak coarsen-willing counters resume exactly where the
    // checkpointed run stood; a restored run must coarsen on the same
    // check the uninterrupted run would have.
    deref_counts_ = state.deref_counts;

    mesh_.structure().restore_leaves(state.owners);
    mesh_.clear_blocks();
    auto blocks = resilience::read_rank_blocks(image, rank_);
    std::vector<std::byte>().swap(file);  // the blocks are parsed; free the image early
    std::vector<BlockKey> keys;
    keys.reserve(blocks.size());
    for (const auto& [key, data] : blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    DFAMR_REQUIRE(keys == mesh_.structure().blocks_of(rank_),
                  "checkpoint: the rank's section holds other blocks than the rank owns");
    for (auto& [key, data] : blocks) {
        auto block = mesh_.make_block(key);
        DFAMR_REQUIRE(data.size() == block->data_size(), "checkpoint block size mismatch");
        std::copy(data.begin(), data.end(), block->data());
        mesh_.adopt(std::move(block));
    }
    rebuild_comm_plan();
    trace(0, t0, now_ns(), PhaseKind::Control);
    comm_.barrier();  // ranks enter the resumed loop together
}

void DriverBase::refinement_phase(int timesteps_elapsed) {
    sync_before_refine();
    ++result_.counters.refinement_phases;
    // Snapshot after the drain: tasks retired by sync_before_refine belong
    // to the compute stages, everything from here to the end of the phase
    // (split/merge copies, exchange pack/unpack) is refinement work.
    const tasking::RuntimeStats sched_at_entry = runtime_stats();
    sample_sched_counters();
    Stopwatch sw;
    sw.start();

    for (int i = 0; i < timesteps_elapsed; ++i) {
        for (amr::ObjectSpec& obj : cfg_.objects) obj.step();
    }

    amr::GlobalStructure& structure = mesh_.structure();
    const int rounds = cfg_.max_block_change();
    for (int round_idx = 0; round_idx < rounds; ++round_idx) {
        const RefineRound round = plan_round();
        if (round.empty()) break;

        // Thrash bookkeeping (replicated: marks and check counters are
        // identical on every rank): a merge of a parent split within the
        // last deref_count planning checks is a refine/coarsen thrash.
        for (const BlockKey& key : round.refine) split_check_[key] = planning_checks_;
        for (const BlockKey& parent : round.coarsen_parents) {
            if (auto it = split_check_.find(parent); it != split_check_.end()) {
                if (planning_checks_ - it->second <= cfg_.deref_count) {
                    ++result_.counters.refine_coarsen_thrash;
                }
                split_check_.erase(it);
            }
        }

        // Splits of owned blocks (taskified copies in the data-flow variant).
        std::vector<BlockKey> my_splits;
        for (const BlockKey& key : round.refine) {
            if (structure.owner(key) == rank_) my_splits.push_back(key);
        }
        do_splits(my_splits);
        result_.counters.blocks_split += static_cast<std::int64_t>(my_splits.size());
        if (condition_->needs_field_data()) {
            result_.counters.blocks_refined_by_estimator +=
                static_cast<std::int64_t>(my_splits.size());
        }

        // Coarsening: ship children to the future parent owner, then merge.
        std::vector<BlockKey> my_merges;
        for (const BlockKey& parent : round.coarsen_parents) {
            const int new_owner = structure.owner(parent.child(0, structure.max_level()));
            if (new_owner == rank_) my_merges.push_back(parent);
        }
        exchange_blocks(structure.coarsen_moves(round), /*with_ack_protocol=*/false);
        do_merges(my_merges);
        result_.counters.blocks_merged += static_cast<std::int64_t>(my_merges.size());
        sync_refine_step();

        structure.apply_refine_round(round);
        prune_refine_state();
        DFAMR_ASSERT(mesh_.num_owned() == structure.blocks_of(rank_).size());
    }

    // Load balancing (inside the refinement phase, like miniAMR).
    if (cfg_.lb_opt && structure.imbalance() > cfg_.inbalance) {
        const auto new_owners = structure.rcb_partition();
        exchange_blocks(structure.moves_to(new_owners), /*with_ack_protocol=*/true);
        sync_refine_step();
        ++result_.counters.load_balances;
        structure.set_owners(new_owners);
        DFAMR_ASSERT(mesh_.num_owned() == structure.blocks_of(rank_).size());
    }

    rebuild_comm_plan();
    reset_checksum_reference();
    sw.stop();
    result_.sched_refine += runtime_stats() - sched_at_entry;
    sample_sched_counters();
    result_.times.refine += sw.elapsed_s();
}

RefineRound DriverBase::plan_round() {
    const amr::GlobalStructure& structure = mesh_.structure();
    const auto& leaves = structure.leaves();
    const scenario::ScoreContext ctx{&cfg_.objects, cfg_.uniform_refine};

    std::vector<double> scores(leaves.size(), 0.0);
    std::size_t i = 0;
    if (condition_->needs_field_data()) {
        // Field data lives only on the owning rank, but marks must be
        // globally identical: each rank fills its owned entries of the
        // leaves-in-key-order score vector (zero elsewhere) and one
        // Sum-allreduce turns disjoint ownership into a gather.
        for (const auto& [key, owner] : leaves) {
            if (owner == rank_) {
                scores[i] = condition_->score(&mesh_.block(key), structure.box(key), ctx);
            }
            ++i;
        }
        std::vector<double> global(scores.size(), 0.0);
        const std::int64_t t0 = now_ns();
        comm_.allreduce(scores.data(), global.data(), global.size(), mpi::Op::Sum);
        trace(0, t0, now_ns(), PhaseKind::Control);
        scores = std::move(global);
    } else {
        for (const auto& [key, owner] : leaves) {
            scores[i++] = condition_->score(nullptr, structure.box(key), ctx);
        }
    }

    // Threshold + hysteresis, replicated deterministically on every rank:
    // refine strictly above the threshold; below the deref band a block
    // must stay willing for deref_count consecutive checks to coarsen.
    ++planning_checks_;
    std::map<BlockKey, int> marks;
    i = 0;
    for (const auto& [key, owner] : leaves) {
        const double s = scores[i++];
        int mark = 0;
        if (s > cfg_.refine_threshold && key.level < structure.max_level()) {
            mark = +1;
            deref_counts_.erase(key);
        } else if (key.level > 0 && s < cfg_.refine_threshold * scenario::kDerefBand) {
            if (++deref_counts_[key] >= cfg_.deref_count) mark = -1;
        } else {
            deref_counts_.erase(key);
        }
        marks.emplace(key, mark);
    }
    return structure.plan_refine_round_marks(std::move(marks));
}

void DriverBase::prune_refine_state() {
    const amr::GlobalStructure& structure = mesh_.structure();
    for (auto it = deref_counts_.begin(); it != deref_counts_.end();) {
        it = structure.is_leaf(it->first) ? std::next(it) : deref_counts_.erase(it);
    }
}

double DriverBase::checksum_weight(const BlockKey& key) const {
    if (generator_ == nullptr) return 1.0;
    const Box box = mesh_.structure().box(key);
    const amr::BlockShape& s = mesh_.shape();
    const Vec3d ext = box.extent();
    return (ext.x / s.nx) * (ext.y / s.ny) * (ext.z / s.nz);
}

double DriverBase::local_mass() const {
    double total = 0;
    for (const BlockKey& key : mesh_.owned_keys()) {
        total += checksum_weight(key) * mesh_.block(key).checksum(0, cfg_.num_vars);
    }
    return total;
}

void DriverBase::maybe_recompute_dt() {
    if (generator_ == nullptr || !generator_->cfl_from_field()) return;
    quiesce();
    const amr::BlockShape& s = mesh_.shape();
    double local = 0;
    for (const BlockKey& key : mesh_.owned_keys()) {
        const Block& blk = mesh_.block(key);
        for (int var = 0; var < s.num_vars; ++var) {
            for (int x = 1; x <= s.nx; ++x) {
                for (int y = 1; y <= s.ny; ++y) {
                    for (int z = 1; z <= s.nz; ++z) {
                        local = std::max(local, std::abs(blk.at(var, x, y, z)));
                    }
                }
            }
        }
    }
    double global = 0;
    const std::int64_t t0 = now_ns();
    comm_.allreduce(&local, &global, 1, mpi::Op::Max);
    trace(0, t0, now_ns(), PhaseKind::Control);
    // Max is order-insensitive, so every rank lands on the identical dt
    // regardless of decomposition. A zero field would mean no transport at
    // all; keep the a-priori bound in that (degenerate) case.
    if (global > 0.0) dt_ = generator_->dt_for_speed(cfg_, global);
}

void DriverBase::apply_flux_correction(const amr::FaceTransfer& face, int var_begin, int var_end,
                                       std::span<const double> fine_flux) {
    Block& blk = mesh_.block(face.mine);
    FluxRegister& reg = flux_regs_.at(face.mine);
    const FaceGeom& g = face.geom;  // rel == Finer: quad names the fine quarter
    const amr::BlockShape& s = mesh_.shape();
    const amr::FaceStrides f = s.face_strides(g.axis);
    const Box box = mesh_.structure().box(face.mine);
    const int a = g.sense > 0 ? s.dim(g.axis) : 1;  // interior boundary plane
    const double h = box.extent()[g.axis] / s.dim(g.axis);
    const double scale = -g.sense * (dt_ / h);
    const int qu = (g.quad & 1) * (f.U / 2);
    const int qv = ((g.quad >> 1) & 1) * (f.V / 2);
    double drift = 0;
    std::size_t o = 0;
    for (int var = var_begin; var < var_end; ++var) {
        for (int u = 0; u < f.U / 2; ++u) {
            for (int v = 0; v < f.V / 2; ++v) {
                const double fine = fine_flux[o++];
                double& coarse = reg.at(g.axis, g.sense, var, qu + u + 1, qv + v + 1);
                // Berger–Colella reflux: replace my flux with the restricted
                // fine flux; the interface then telescopes against the fine
                // side's registers exactly.
                blk.data()[f.index(var, a, qu + u + 1, qv + v + 1)] += scale * (fine - coarse);
                coarse = fine;
                drift += std::abs(coarse - fine);
            }
        }
    }
    // Every term above is exactly 0.0 (the register was just assigned), so
    // the accumulation order across threads cannot matter. Any nonzero total
    // would mean a coarse-fine face escaped the reflux pass.
    mass_drift_.fetch_add(drift, std::memory_order_relaxed);
    reflux_corrections_.fetch_add(static_cast<std::int64_t>(o), std::memory_order_relaxed);
}

void DriverBase::apply_intra_flux(const amr::IntraCopy& copy, int var_begin, int var_end) {
    const FluxRegister& src = flux_regs_.at(copy.src);
    const std::size_t n = static_cast<std::size_t>(
        mesh_.shape().face_values_mixed(copy.geom.axis, var_end - var_begin));
    std::span<double> buf(amr::tls_scratch(n).data(), n);
    // The fine source's matching face is on its opposite sense.
    src.pack_restricted(copy.geom.axis, -copy.geom.sense, var_begin, var_end, buf);
    const amr::FaceTransfer face{copy.dst, copy.src, copy.geom, 0,
                                 static_cast<std::int64_t>(n) / (var_end - var_begin)};
    apply_flux_correction(face, var_begin, var_end, buf);
}

void DriverBase::accumulate_boundary_outflux(int dir, int var_begin, int var_end) {
    const amr::BlockShape& s = mesh_.shape();
    const auto [ua, va] = s.plane_axes(dir);
    for (const auto& [key, sense] : plan_.direction(dir).boundary) {
        const FluxRegister& reg = flux_regs_.at(key);
        const Box box = mesh_.structure().box(key);
        const Vec3d ext = box.extent();
        const double area = (ext[ua] / s.dim(ua)) * (ext[va] / s.dim(va));
        double sum = 0;
        for (int var = var_begin; var < var_end; ++var) {
            for (int u = 1; u <= s.dim(ua); ++u) {
                for (int v = 1; v <= s.dim(va); ++v) {
                    sum += reg.at(dir, sense, var, u, v);
                }
            }
        }
        // Signed: mass leaving through a high face (sense +1) counts
        // positive. One term per block keeps the accumulation order fixed.
        boundary_outflux_ += sense * sum * area * dt_;
    }
}

void DriverBase::compute_error_norm() {
    if (generator_ == nullptr || !generator_->has_reference()) return;
    const double t = sim_time_;
    double local = 0;
    for (const BlockKey& key : mesh_.owned_keys()) {
        const Block& blk = mesh_.block(key);
        const Box box = mesh_.structure().box(key);
        const amr::BlockShape& s = blk.shape();
        const Vec3d ext = box.extent();
        const double hx = ext.x / s.nx, hy = ext.y / s.ny, hz = ext.z / s.nz;
        const double vol = hx * hy * hz;
        for (int x = 1; x <= s.nx; ++x) {
            for (int y = 1; y <= s.ny; ++y) {
                for (int z = 1; z <= s.nz; ++z) {
                    const Vec3d pos{box.lo.x + (x - 0.5) * hx, box.lo.y + (y - 0.5) * hy,
                                    box.lo.z + (z - 0.5) * hz};
                    local += std::abs(blk.at(0, x, y, z) - generator_->reference(pos, t)) * vol;
                }
            }
        }
    }
    double global = 0;
    comm_.allreduce(&local, &global, 1, mpi::Op::Sum);
    result_.error_norm = global;
    result_.has_error_norm = true;
}

void DriverBase::exchange_blocks(const std::vector<BlockMove>& moves, bool with_ack_protocol) {
    std::vector<BlockMove> sends, recvs;
    for (const BlockMove& mv : moves) {
        if (mv.from == rank_) sends.push_back(mv);
        if (mv.to == rank_) recvs.push_back(mv);
    }
    result_.counters.blocks_moved += static_cast<std::int64_t>(sends.size());
    if (with_ack_protocol) {
        // §IV-B: the receiver acknowledges it has space; the sender then
        // transmits the block identifier as an extra control message so both
        // sides can tag the data transfer. Control messages stay sequential
        // on the main thread (blocking MPI), exactly like the paper.
        const std::int64_t t0 = now_ns();
        int ack = 1;
        for (const BlockMove& mv : recvs) {
            hcomm_.send(&ack, sizeof ack, mv.from, kAckTag);
        }
        for (const BlockMove& mv : sends) {
            int got = 0;
            hcomm_.recv(&got, sizeof got, mv.to, kAckTag);
            DFAMR_REQUIRE(got == 1, "negative exchange ACK (receiver out of space)");
            hcomm_.send(&mv.id, sizeof mv.id, mv.to, kBlockIdTag);
        }
        for (const BlockMove& mv : recvs) {
            int id = -1;
            hcomm_.recv(&id, sizeof id, mv.from, kBlockIdTag);
            DFAMR_REQUIRE(id == mv.id, "exchange protocol id mismatch");
        }
        trace(0, t0, now_ns(), PhaseKind::Control);
    }
    transfer_block_data(moves);
}

void DriverBase::transfer_block_data(const std::vector<BlockMove>& moves) {
    const std::int64_t t0 = now_ns();
    bool moved = false;
    for (const BlockMove& mv : moves) {
        if (mv.from != rank_) continue;
        Block& b = mesh_.block(mv.key);
        hcomm_.send(b.data(), b.data_size() * sizeof(double), mv.to, kBlockDataTagBase + mv.id);
        mesh_.release(mv.key);
        moved = true;
    }
    for (const BlockMove& mv : moves) {
        if (mv.to != rank_) continue;
        auto b = mesh_.make_block(mv.key);
        hcomm_.recv(b->data(), b->data_size() * sizeof(double), mv.from,
                    kBlockDataTagBase + mv.id);
        mesh_.adopt(std::move(b));
        moved = true;
    }
    if (moved) trace(0, t0, now_ns(), PhaseKind::RefineExchange);
}

std::unique_ptr<verify::Verifier> DriverBase::attach_verifier(tasking::Runtime& rt) {
#if defined(DFAMR_VERIFY)
    const bool opt_in = false;
#else
    const char* e = std::getenv("DFAMR_DEPLINT");
    if (e == nullptr || e[0] != '1') return nullptr;
    const bool opt_in = true;
#endif
    auto verifier = std::make_unique<verify::Verifier>();
    if (opt_in) verifier->deplint().set_check_on_shutdown(true);
    verifier->attach(rt);
    return verifier;
}

void DriverBase::reduce_and_validate(const std::vector<double>& local_group_sums) {
    DFAMR_REQUIRE(static_cast<int>(local_group_sums.size()) == cfg_.num_groups(),
                  "one local sum per variable group expected");
    std::vector<double> global(local_group_sums.size(), 0.0);
    const std::int64_t t0 = now_ns();
    comm_.allreduce(local_group_sums.data(), global.data(), global.size(), mpi::Op::Sum);
    trace(0, t0, now_ns(), PhaseKind::ChecksumReduce);

    bool ok = true;
    if (!checksum_reference_.empty()) {
        for (std::size_t g = 0; g < global.size(); ++g) {
            const double ref = checksum_reference_[g];
            const double drift = std::abs(global[g] - ref);
            if (drift > cfg_.tol * std::max(1.0, std::abs(ref))) ok = false;
        }
    }
    checksum_reference_ = global;
    ++result_.counters.checksum_stages;
    double total = 0;
    for (double v : global) total += v;
    result_.checksums.push_back(total);
    result_.validation_ok = result_.validation_ok && ok;
}

// ---- the task graph's kernels: the one body each compute op has, whichever
// driver runs it (TampiOssDriver submits it as a task, SyncDriver runs it
// as an item of a loop) --------------------------------------------------

std::span<double> DriverBase::resolve(const graph::Target& t) {
    const auto vb = static_cast<int>(t.first), ve = static_cast<int>(t.first + t.count);
    const auto section = [&t](std::span<double> s) {
        return s.subspan(static_cast<std::size_t>(t.first), static_cast<std::size_t>(t.count));
    };
    switch (t.object) {
        case graph::Object::Vars: return mesh_.block(t.key).group_span(vb, ve);
        case graph::Object::Flux: return flux_register(t.key).slice(vb, ve);
        case graph::Object::Send: return section(buffers_.send_storage(t.index));
        case graph::Object::Recv: return section(buffers_.recv_storage(t.index));
        case graph::Object::FluxSend: return section(flux_buffers_.send_storage(t.index));
        case graph::Object::FluxRecv: return section(flux_buffers_.recv_storage(t.index));
        case graph::Object::Partials: return section(slots_[t.index].partials);
        case graph::Object::Sums: return section(slots_[t.index].group_sums);
        case graph::Object::Outflux: return {&boundary_outflux_, 1};
    }
    throw Error("unknown task-graph object");
}

void DriverBase::bind(tasking::TaskBody& body, const graph::Kind& kind, const graph::Payload& p,
                      std::span<const double> in, std::span<double> out) {
    const graph::Op op = kind.op;
    const int vb = p.var_begin, ve = p.var_end;
    switch (op) {
        case graph::Op::Pack:
        case graph::Op::FluxPack:
            body = traced(this, kind.phase, [face = p.face, sec = out, vb, ve,
                           flux = op == graph::Op::FluxPack](DriverBase& d) {
                DFAMR_CHECK_SPAN_WRITE(sec);
                if (flux) {
                    FluxRegister& reg = d.flux_register(face->mine);
                    DFAMR_CHECK_SPAN_READ(reg.slice(vb, ve));
                    reg.pack_restricted(face->geom.axis, face->geom.sense, vb, ve, sec);
                } else {
                    Block& blk = d.mesh_.block(face->mine);
                    DFAMR_CHECK_SPAN_READ(blk.group_span(vb, ve));
                    blk.pack_face(face->geom, vb, ve, sec);
                }
            });
            return;
        case graph::Op::Unpack:
        case graph::Op::Reflux:
            body = traced(this, kind.phase, [face = p.face, sec = in, vb, ve,
                           flux = op == graph::Op::Reflux](DriverBase& d) {
                DFAMR_CHECK_SPAN_READ(sec);
                DFAMR_CHECK_SPAN_WRITE(d.mesh_.block(face->mine).group_span(vb, ve));
                if (flux) {
                    DFAMR_CHECK_SPAN_WRITE(d.flux_register(face->mine).slice(vb, ve));
                    d.apply_flux_correction(*face, vb, ve, sec);
                } else {
                    d.mesh_.block(face->mine).unpack_face(face->geom, vb, ve, sec);
                }
            });
            return;
        case graph::Op::Copy:
        case graph::Op::RefluxIntra:
            // Each copy or reflux is traced on its own; reflections are not.
            body = [this, copies = p.copies, boundary = p.boundary, dir = p.dir, vb, ve,
                    flux = op == graph::Op::RefluxIntra] {
                for (const amr::IntraCopy& c : copies) {
                    const std::int64_t t0 = now_ns();
                    if (flux) {
                        apply_intra_flux(c, vb, ve);
                    } else {
                        mesh_.block(c.dst).copy_face_from(mesh_.block(c.src), c.geom, vb, ve);
                    }
                    trace(worker_index(), t0, now_ns(), PhaseKind::IntraCopy);
                }
                for (const auto& [key, sense] : boundary) {
                    mesh_.block(key).reflect_face(dir, sense, vb, ve);
                }
            };
            return;
        case graph::Op::Outflux:
            body = traced(this, kind.phase, [dir = p.dir, vb, ve](DriverBase& d) {
                DFAMR_CHECK_WRITE(&d.boundary_outflux_, sizeof d.boundary_outflux_);
                d.accumulate_boundary_outflux(dir, vb, ve);
            });
            return;
        case graph::Op::Stencil:
            body = traced(this, kind.phase, [key = p.key, vb, ve](DriverBase& d) {
                Block& blk = d.mesh_.block(key);
                DFAMR_CHECK_SPAN_READ(blk.group_span(vb, ve));
                DFAMR_CHECK_SPAN_WRITE(blk.group_span(vb, ve));
                if (d.generator_ != nullptr) {
                    DFAMR_CHECK_SPAN_WRITE(d.flux_register(key).slice(vb, ve));
                }
                d.flops_.fetch_add(d.update_block(blk, vb, ve), std::memory_order_relaxed);
            });
            return;
        case graph::Op::ChecksumLocal:
            body = traced(this, kind.phase, [key = p.key, vb, ve,
                                             cell = out.data()](DriverBase& d) {
                const Block& blk = d.mesh_.block(key);
                DFAMR_CHECK_SPAN_READ(blk.group_span(vb, ve));
                DFAMR_CHECK_WRITE(cell, sizeof(double));
                // Cell-volume weight for scenario runs (mass gate); 1.0 — a
                // bitwise identity — for the synthetic workload.
                *cell = d.checksum_weight(key) * blk.checksum(vb, ve);
            });
            return;
        case graph::Op::ChecksumReduce:
            body = [row = in, sum = out.data()] {
                // Element-wise checked access on the partials row: every
                // load is validated against the declared in-region. Summed
                // in owned-key order, so the sum does not depend on the team.
                auto crow = DFAMR_CHECKED_SPAN(row);
                double acc = 0;
                for (std::size_t i = 0; i < row.size(); ++i) acc += crow[i];
                DFAMR_CHECK_WRITE(sum, sizeof(double));
                *sum = acc;
            };
            return;
        default: throw Error(std::string("not a compute task: ") + kind.label);
    }
}

int DriverBase::open_checksum(std::span<const BlockKey> keys) {
    const int index = slot_index_;
    ChecksumSlot& slot = slots_[index];
    DFAMR_REQUIRE(!slot.pending, "checksum slot reused before validation");
    slot.partials.assign(keys.size() * static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    slot.group_sums.assign(static_cast<std::size_t>(cfg_.num_groups()), 0.0);
    slot.pending = true;
    slot_index_ = 1 - slot_index_;
    return index;
}

void DriverBase::validate(int slot) {
    reduce_and_validate(slots_[slot].group_sums);
    slots_[slot].pending = false;
}

}  // namespace dfamr::core
