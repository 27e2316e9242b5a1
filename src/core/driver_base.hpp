// Shared per-rank orchestration of the miniAMR main loop (Algorithm 1) and
// the refinement / load-balancing mechanics. Two drivers subclass this and
// provide the parallelization of each phase:
//   * SyncDriver     — the bulk-synchronous variants: MPI-only (everything
//                      sequential, the reference) and fork-join (worksharing
//                      loops + master-only MPI), which differ only in how a
//                      loop over independent items runs
//   * TampiOssDriver — the paper's data-flow taskification
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "amr/comm_plan.hpp"
#include "amr/config.hpp"
#include "amr/flux_register.hpp"
#include "amr/mesh.hpp"
#include "amr/trace.hpp"
#include "core/result.hpp"
#include "mpisim/mpi.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/hardened_comm.hpp"
#include "scenario/problem_generator.hpp"
#include "scenario/refinement_condition.hpp"

namespace dfamr::tasking {
class Runtime;
}
namespace dfamr::verify {
class Verifier;
}

namespace dfamr::core {

using amr::Block;
using amr::BlockKey;
using amr::CommBuffers;
using amr::CommPlan;
using amr::Config;
using amr::FaceGeom;
using amr::FluxPlan;
using amr::FluxRegister;
using amr::Mesh;
using amr::PhaseKind;
using amr::RefineRound;
using amr::Tracer;

/// One whole-block transfer between ranks during refinement/load balancing.
struct BlockMove {
    BlockKey key;
    int from = -1;
    int to = -1;
    int id = 0;  // global index; tags the data message (paper §IV-B)
};

/// Control-message tags used by the exchange protocol (distinct sub-space).
inline constexpr int kAckTag = amr::kExchangeTagBase;
inline constexpr int kBlockIdTag = amr::kExchangeTagBase + 1;
inline constexpr int kBlockDataTagBase = amr::kExchangeTagBase + 16;

class DriverBase {
public:
    /// `arena` holds the run's block storage; every rank of a run shares it.
    DriverBase(const Config& cfg, mpi::Communicator& comm, Tracer* tracer,
               std::shared_ptr<amr::BlockArena> arena);
    virtual ~DriverBase() = default;

    /// Attaches cooperative run control (suspend/cancel hooks, in-memory
    /// checkpoint routing). Must be set before run(); the same pointer must
    /// be passed on every rank of the world (the hooks themselves fire on
    /// rank 0 only, decisions are broadcast).
    void set_control(const RunControl* control) { control_ = control; }

    /// Executes the full mini-app on this rank and returns its result.
    RankResult run();

protected:
    // ---- variant hooks ----------------------------------------------------
    /// Ghost exchange + stencil for one variable group in one stage. The
    /// data-flow variant only *submits* tasks here; the others execute.
    virtual void communicate_stage(int group) = 0;
    virtual void stencil_stage(int group) = 0;
    /// Coarse-fine flux correction for one variable group (scenario runs
    /// only; called right after stencil_stage): exchanges restricted fine
    /// flux registers per the flux plan and refluxes coarse boundary cells
    /// so every interface telescopes to zero. The data-flow variant only
    /// submits tasks here.
    virtual void reflux_stage(int group) { (void)group; }
    /// Checksum across all groups; calls reduce_and_validate() (possibly for
    /// the previous stage when the delayed optimization is active).
    virtual void checksum_stage() = 0;
    /// Drains in-flight compute so the main thread may read/scale field
    /// state mid-run (live CFL recomputation). Taskwait for the data-flow
    /// variant; the synchronous variants are already quiescent between
    /// stages.
    virtual void quiesce() {}
    /// Drains outstanding work at the end of the run (final validation of a
    /// deferred checksum included).
    virtual void final_sync() {}
    /// Cumulative scheduler telemetry of the variant's tasking runtime
    /// (zeros without one). Sampled at phase boundaries to attribute
    /// counters per phase.
    SchedulerCounters scheduler_counters() const;
    /// Synchronization point before the refinement phase (taskwait/no-op).
    virtual void sync_before_refine() {}
    /// Data operations of one refinement round.
    virtual void do_splits(const std::vector<BlockKey>& parents) = 0;
    virtual void do_merges(const std::vector<BlockKey>& parents) = 0;
    /// Whole-block data transfers. `sends`/`recvs` are this rank's sides of
    /// the global move list, in deterministic order. Data messages use tag
    /// kBlockDataTagBase + move.id. Must leave transferred blocks adopted.
    /// The default is blocking point-to-point on the main thread: every send
    /// completes eagerly, then the receives run in order.
    virtual void transfer_block_data(const std::vector<BlockMove>& sends,
                                     const std::vector<BlockMove>& recvs);
    /// Barrier-equivalent inside refinement after transfers (taskwait).
    virtual void sync_refine_step() {}

    // ---- shared mechanics (implemented here) -------------------------------
    /// DepLint + the access checker, attached to a variant's runtime: in
    /// DFAMR_VERIFY builds, and in default builds under DFAMR_DEPLINT=1, where
    /// a dirty proof aborts the rank at shutdown (multi-process golden runs
    /// prove their task graphs race-free). Null otherwise. Callers declare
    /// the result before the runtime: its shutdown fires into the hook.
    static std::unique_ptr<verify::Verifier> attach_verifier(tasking::Runtime& rt);
    /// Runs refinement rounds + load balancing, updates structure and plans.
    void refinement_phase(int timesteps_elapsed);
    /// Performs the §IV-B ACK/id/data exchange protocol for the given global
    /// move list: control messages sequential on this (main) thread, data
    /// via transfer_block_data().
    void exchange_blocks(const std::vector<BlockMove>& moves, bool with_ack_protocol);
    void rebuild_comm_plan();
    /// Allreduces per-group local sums, validates drift, records the result.
    void reduce_and_validate(const std::vector<double>& local_group_sums);
    /// Resets the drift reference (after refinement changes the cell count).
    void reset_checksum_reference() { checksum_reference_.clear(); }

    /// One compute update of a block's variable group: the synthetic
    /// stencil sweep, or the scenario generator's advection step (which also
    /// records the block's boundary fluxes into its register). Returns
    /// FLOPs done. Thread-safe — the hybrid variants call it from worker
    /// threads (the structure and register map are read-only during compute
    /// stages).
    std::int64_t update_block(Block& blk, int var_begin, int var_end) {
        if (generator_ == nullptr) return blk.apply_stencil(cfg_.stencil, var_begin, var_end);
        return generator_->advance(blk, mesh_.structure().box(blk.key()), var_begin, var_end,
                                   dt_, &flux_regs_.at(blk.key()));
    }

    /// The block's flux register (scenario runs; rebuilt with the plan).
    FluxRegister& flux_register(const BlockKey& key) { return flux_regs_.at(key); }
    /// Per-block weight applied to scenario checksums: the cell volume, so
    /// the drift gate checks genuine mass conservation across refinement
    /// levels. Synthetic runs keep the historic unweighted sum (weight 1).
    double checksum_weight(const BlockKey& key) const;
    /// Applies one received restricted fine-flux stream section to the
    /// coarse block `face.mine` (face.geom.rel == Finer): for every covered
    /// coarse face cell, replaces the coarse flux with the restricted fine
    /// flux and corrects the adjacent interior cell by -sense * dt/h times
    /// the difference. Accumulates mass_drift_ (the telescoping residual
    /// left after the replacement — exactly zero) and reflux_corrections_.
    /// Thread-safe across disjoint faces (corrections touch only the
    /// target block's own boundary plane).
    void apply_flux_correction(const amr::FaceTransfer& face, int var_begin, int var_end,
                               std::span<const double> fine_flux);
    /// Intra-rank equivalent: restricts the fine source's register on the
    /// fly and refluxes the coarse destination.
    void apply_intra_flux(const amr::IntraCopy& copy, int var_begin, int var_end);
    /// Tallies signed mass flow through this direction's physical-boundary
    /// faces into boundary_outflux_ (deterministic order: callers invoke it
    /// sequentially per direction).
    void accumulate_boundary_outflux(int dir, int var_begin, int var_end);
    /// Volume-weighted total mass over owned blocks, all variables.
    double local_mass() const;
    /// Recomputes dt from the live field max when the generator asks for it
    /// (collective: allreduced max, so every rank picks the same dt).
    void maybe_recompute_dt();

    int group_begin(int group) const { return group * cfg_.vars_per_group(); }
    int group_end(int group) const {
        return std::min(cfg_.num_vars, (group + 1) * cfg_.vars_per_group());
    }

    void trace(int worker, std::int64_t t0, std::int64_t t1, PhaseKind kind) {
        if (tracer_ != nullptr) tracer_->record(rank_, worker, t0, t1, kind);
    }
    /// Lane of the calling thread in per-core timelines: the runtime's
    /// Runtime::trace_lane, or 0 (the rank's main thread) without one.
    int worker_index() const;
    /// Records scheduler-telemetry counter samples on the tracer's counter
    /// track (no-op when tracing is off or the variant has no runtime).
    void sample_sched_counters();

    Config cfg_;
    mpi::Communicator& comm_;
    int rank_;
    Tracer* tracer_ = nullptr;
    /// The variant's tasking runtime (not owned), set by the variants that
    /// create one; null for MPI-only.
    tasking::Runtime* runtime_ = nullptr;
    /// Hardened point-to-point wrapper around comm_: bounded retry on
    /// transient send failures, deadlines on receive completion. Used for
    /// every blocking/driver-level p2p operation; the data-flow variant
    /// additionally hardens its TAMPI instance with the same policy.
    resilience::HardenedComm hcomm_;

    Mesh mesh_;
    CommPlan plan_;
    std::unique_ptr<CommBuffers> buffers_;
    /// Coarse-fine subset of plan_ driving the flux-register exchange, plus
    /// its staging streams ([direction][neighbor], sized for one variable
    /// group). Scenario runs only; rebuilt with the plan. std::map keeps
    /// register addresses stable for task dependency declarations.
    FluxPlan flux_plan_;
    std::map<BlockKey, FluxRegister> flux_regs_;
    std::array<std::vector<std::vector<double>>, 3> flux_send_, flux_recv_;

    RankResult result_;
    std::vector<double> checksum_reference_;  // per group; empty = no reference

    /// First timestep of main_loop (shifted by a checkpoint restore).
    int start_ts_ = 1;
    /// Stages executed so far (persisted in checkpoints so the checksum
    /// cadence continues seamlessly across a restore).
    int stage_counter_ = 0;

    // ---- scenario subsystem ----------------------------------------------
    /// Active refinement condition (never null; "objects" by default).
    const scenario::RefinementCondition* condition_ = nullptr;
    /// Active problem generator; null = the synthetic stencil workload.
    const scenario::ProblemGenerator* generator_ = nullptr;
    /// Per-stage advection step. CFL-stable and deterministic from cfg
    /// alone, except for cfl_from_field() generators, where it is
    /// recomputed from the allreduced live field max each timestep.
    double dt_ = 0;
    /// Simulated time advanced so far (sum of per-stage dt; persisted in
    /// checkpoints — with live CFL the step is no longer constant, so
    /// stage_counter_ * dt_ stopped being the right clock).
    double sim_time_ = 0;

    // ---- conservation accounting (scenario runs) --------------------------
    /// Telescoping reflux residual: |restricted fine flux - accounted coarse
    /// flux| after each correction — exactly zero by construction; any
    /// nonzero value means a coarse-fine face escaped the reflux pass.
    /// Atomic because hybrid variants reflux from worker threads (every
    /// contribution is 0.0, so accumulation order cannot matter).
    std::atomic<double> mass_drift_{0.0};
    std::atomic<std::int64_t> reflux_corrections_{0};
    /// Signed mass that left through the reflective physical boundary
    /// (accumulated in one deterministic order on the main thread / via a
    /// serialized task, so it is bitwise identical across variants).
    double boundary_outflux_ = 0;
    /// Set by restore_state: the image carries the original run's global
    /// initial mass, so a restored run keeps the budget identity against
    /// the true start of the simulation, not the restart point.
    bool restored_initial_mass_ = false;

private:
    void main_loop();
    /// Plans one refinement round: scores every leaf with condition_
    /// (field-based scores gathered with one Sum-allreduce over leaves in
    /// key order), applies threshold + deref hysteresis, and delegates the
    /// 2:1 propagation to the structure. Updates deref_counts_.
    RefineRound plan_round();
    /// Drops hysteresis/thrash bookkeeping for keys that stopped being
    /// leaves after a round was applied.
    void prune_refine_state();
    /// Allreduce-summed L1 error of variable 0 against the scenario's
    /// analytic reference at the final simulated time (no-op without one).
    void compute_error_norm();

    /// Replicated per-block coarsen-willing streak counters (every rank
    /// derives them from the identical global marks). Persisted in
    /// checkpoints — restored runs must coarsen on the same check.
    std::map<BlockKey, int> deref_counts_;
    /// Planning checks performed (one per plan_round call) and the check at
    /// which each current non-leaf was split — replicated diagnostics
    /// feeding the refine_coarsen_thrash counter.
    std::int64_t planning_checks_ = 0;
    std::map<BlockKey, std::int64_t> split_check_;

    const RunControl* control_ = nullptr;
    /// Collective checkpoint after timestep `ts_completed`: builds the
    /// image and routes it to disk or, under run control, to the host's
    /// callback. `suspending` selects the RunControl sink to deliver to.
    void write_state(int ts_completed, bool suspending = false);
    /// Replaces the freshly initialized state with the checkpointed one
    /// (from control_->restore_image when set, else cfg.restore_path).
    void restore_state();
    /// Rank 0 consults the control hook, the decision is broadcast. Returns
    /// the collective action for this timestep boundary.
    RunAction consult_control(int ts_completed);
};

}  // namespace dfamr::core
