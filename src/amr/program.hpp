// The mini-app program (Algorithm 1 and §IV-B), written once: the timestep
// loop with its stage, group and checksum order, the refinement phase with
// its planner, each rank's split and merge lists, the coarsening moves and
// load balancing, and the block exchange's protocol. Two backends run it, as
// every runtime of Task Bench runs its one TaskGraph: core::DriverBase runs
// its own rank and executes; sim::SimRun (src/sim/run_sim.cpp) runs every
// rank in lockstep and prices. So the program loops over a backend's ranks
// wherever work is per rank.
//
// A backend derives from Program<Backend>, befriends it and keeps only what
// differs: its `cfg_`, structure(), counters(), runs(rank) and rank(rank),
// whose do_splits, do_merges, send_control, recv_control, send_block and
// recv_block are one rank's; the stage bodies (the emit functions of
// amr/task_graph.hpp); the syncs; leaf_scores() (one per leaf, in key order,
// the same on every rank); and transfer_tasks (submits an exchange's block
// transfers as tasks and returns true, or false to have them sent by
// blocking calls). The defaults below are the driver's own steps and the
// DES's prices.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "amr/comm_plan.hpp"
#include "amr/config.hpp"
#include "amr/structure.hpp"
#include "amr/trace.hpp"
#include "common/timing.hpp"

namespace dfamr::amr {

/// Fraction of refine_threshold below which a block is coarsen-willing.
/// The dead band [kDerefBand * threshold, threshold] keeps blocks whose
/// score hovers near the threshold from flapping between levels. The band
/// must clear the estimators' refinement shrink factor: the undivided
/// differences roughly halve when a block splits, so a freshly refined
/// child scores ~score/2 — a band of 0.5 would park it exactly on the
/// coarsen boundary. 0.25 leaves [threshold/4, threshold] as the hold
/// region, absorbing the 2x shrink with margin.
inline constexpr double kDerefBand = 0.25;

/// Event counters accumulated during a run (the mini-app's end-of-run
/// report).
struct RunCounters {
    std::int64_t blocks_split = 0;     // refinements applied (per block)
    std::int64_t blocks_merged = 0;    // coarsenings applied (per parent)
    std::int64_t blocks_moved = 0;     // whole-block transfers (coarsen + LB)
    /// Splits this rank performed under a field-based estimator condition
    /// (zero when the run marks from object intersection).
    std::int64_t blocks_refined_by_estimator = 0;
    std::int64_t refinement_phases = 0;
    std::int64_t load_balances = 0;
    std::int64_t checksum_stages = 0;
    /// Refine -> coarsen of the same block within deref_count planning
    /// checks (replicated bookkeeping: identical on every rank). Zero in
    /// healthy runs — the hysteresis exists to keep it there.
    std::int64_t refine_coarsen_thrash = 0;
    /// Coarse-fine flux corrections applied by the reflux pass (one per
    /// corrected face value). Allreduce-summed by the driver at the end of
    /// the run, so every rank already holds the global count. Zero for
    /// synthetic runs and for scenario runs with no level jumps.
    std::int64_t reflux_corrections = 0;

    RunCounters& operator+=(const RunCounters& o) {
        blocks_split += o.blocks_split;
        blocks_merged += o.blocks_merged;
        blocks_moved += o.blocks_moved;
        blocks_refined_by_estimator += o.blocks_refined_by_estimator;
        refinement_phases = std::max(refinement_phases, o.refinement_phases);
        load_balances = std::max(load_balances, o.load_balances);
        checksum_stages = std::max(checksum_stages, o.checksum_stages);
        refine_coarsen_thrash = std::max(refine_coarsen_thrash, o.refine_coarsen_thrash);
        reflux_corrections = std::max(reflux_corrections, o.reflux_corrections);
        return *this;
    }
};

/// The steps the DES prices that cost a driver nothing of their own.
enum class Charge : std::uint8_t {
    RoundControl,  // marking and bookkeeping of a planned round, per block
    Partition,     // the load balancer's bisection, per block
    Agreement,     // the round's 2:1 agreement collective
};

template <class Backend>
class Program {
protected:
    /// Algorithm 1: the initial refinement when `refine_first`, then
    /// timesteps `first_ts` to num_tsteps (fewer when end_timestep stops the
    /// run), then the last checksums.
    void run_program(int first_ts, bool refine_first) {
        Backend& b = self();
        const Config& cfg = b.cfg_;
        const bool refines = cfg.refine_freq > 0 && cfg.num_refine > 0;
        // Adapt the initial mesh to the objects before the first timestep
        // (the dense region at the start of the Fig. 1 traces).
        if (refine_first && refines) refinement_phase(0);
        b.begin_loop();
        for (int ts = first_ts; ts <= cfg.num_tsteps; ++ts) {
            b.begin_timestep();
            for (int stage = 0; stage < cfg.stages_per_ts; ++stage) {
                for (int group = 0; group < cfg.num_groups(); ++group) {
                    b.communicate_stage(group);
                    b.stencil_stage(group);
                    if (cfg.scenario != "synthetic") b.reflux_stage(group);
                }
                ++stage_counter_;
                b.end_stage();
                if (cfg.checksum_freq > 0 && stage_counter_ % cfg.checksum_freq == 0) {
                    b.checksum_stage();
                }
            }
            if (refines && ts % cfg.refine_freq == 0) refinement_phase(cfg.refine_freq);
            if (!b.end_timestep(ts)) break;
        }
        b.drain_checksums();
    }

    // ---- defaults -------------------------------------------------------------
    void begin_loop() {}  // after the initial refinement
    void begin_timestep() {}
    void end_stage() {}  // before the stage's checksum
    bool end_timestep(int) { return true; }  // false stops the run
    void reflux_stage(int) {}  // scenario runs only
    bool field_scores() const { return false; }  // leaf_scores read field data
    void charge(Charge) {}
    void trace_main(std::int64_t /*t0*/, PhaseKind) {}  // a main-thread interval

    /// Stages executed so far (persisted in checkpoints so the checksum
    /// cadence continues seamlessly across a restore).
    int stage_counter_ = 0;
    /// Replicated per-block coarsen-willing streak counters (every rank
    /// derives them from the identical global marks). Persisted in
    /// checkpoints — restored runs must coarsen on the same check.
    std::map<BlockKey, int> deref_counts_;
    /// Planning checks performed (one per plan_round call) and the check at
    /// which each current non-leaf was split — replicated diagnostics
    /// feeding the refine_coarsen_thrash counter.
    std::int64_t planning_checks_ = 0;
    std::map<BlockKey, std::int64_t> split_check_;

private:
    Backend& self() { return static_cast<Backend&>(*this); }

    /// Refinement rounds + load balancing; the backend then rebuilds its
    /// plans.
    void refinement_phase(int timesteps_elapsed) {
        Backend& b = self();
        Config& cfg = b.cfg_;
        GlobalStructure& structure = b.structure();
        RunCounters& counters = b.counters();
        b.begin_refinement();
        ++counters.refinement_phases;
        for (int i = 0; i < timesteps_elapsed; ++i) {
            for (ObjectSpec& obj : cfg.objects) obj.step();
        }
        for (int round_idx = 0; round_idx < cfg.max_block_change(); ++round_idx) {
            const RefineRound round = plan_round();
            if (round.empty()) break;
            b.charge(Charge::RoundControl);
            // Thrash bookkeeping (replicated: marks and check counters are
            // identical on every rank): a merge of a parent split within the
            // last deref_count planning checks is a refine/coarsen thrash.
            for (const BlockKey& key : round.refine) split_check_[key] = planning_checks_;
            for (const BlockKey& parent : round.coarsen_parents) {
                if (auto it = split_check_.find(parent); it != split_check_.end()) {
                    if (planning_checks_ - it->second <= cfg.deref_count) {
                        ++counters.refine_coarsen_thrash;
                    }
                    split_check_.erase(it);
                }
            }
            // Each rank splits its blocks, then the owner of a parent's child
            // 0 receives the other children and merges them.
            std::map<int, std::vector<BlockKey>> splits, merges;
            for (const BlockKey& key : round.refine) {
                const int owner = structure.owner(key);
                if (b.runs(owner)) splits[owner].push_back(key);
            }
            for (const auto& [rank, parents] : splits) {
                b.rank(rank).do_splits(parents);
                const auto n = static_cast<std::int64_t>(parents.size());
                counters.blocks_split += n;
                if (b.field_scores()) counters.blocks_refined_by_estimator += n;
            }
            for (const BlockKey& parent : round.coarsen_parents) {
                const int owner = structure.owner(parent.child(0, structure.max_level()));
                if (b.runs(owner)) merges[owner].push_back(parent);
            }
            exchange_blocks(structure.coarsen_moves(round), /*with_ack_protocol=*/false);
            for (const auto& [rank, parents] : merges) {
                b.rank(rank).do_merges(parents);
                counters.blocks_merged += static_cast<std::int64_t>(parents.size());
            }
            b.quiesce();
            b.charge(Charge::Agreement);
            structure.apply_refine_round(round);
            // Drop the streaks of keys that stopped being leaves.
            for (auto it = deref_counts_.begin(); it != deref_counts_.end();) {
                it = structure.is_leaf(it->first) ? std::next(it) : deref_counts_.erase(it);
            }
            b.structure_changed();
        }
        // Load balancing (inside the refinement phase, like miniAMR).
        if (cfg.lb_opt && structure.imbalance() > cfg.inbalance) {
            b.charge(Charge::Partition);
            const auto new_owners = structure.rcb_partition();
            exchange_blocks(structure.moves_to(new_owners), /*with_ack_protocol=*/true);
            b.quiesce();
            ++counters.load_balances;
            structure.set_owners(new_owners);
            b.structure_changed();
        }
        b.end_refinement();
    }

    /// Plans one round from the backend's scores: refine strictly above the
    /// threshold; below the deref band a block must stay willing for
    /// deref_count consecutive checks to coarsen. The structure applies the
    /// 2:1 propagation.
    RefineRound plan_round() {
        Backend& b = self();
        const Config& cfg = b.cfg_;
        const GlobalStructure& structure = b.structure();
        const std::vector<double> scores = b.leaf_scores();
        ++planning_checks_;
        std::map<BlockKey, int> marks;
        std::size_t i = 0;
        for (const auto& [key, owner] : structure.leaves()) {
            const double s = scores[i++];
            int mark = 0;
            if (s > cfg.refine_threshold && key.level < structure.max_level()) {
                mark = +1;
                deref_counts_.erase(key);
            } else if (key.level > 0 && s < cfg.refine_threshold * kDerefBand) {
                if (++deref_counts_[key] >= cfg.deref_count) mark = -1;
            } else {
                deref_counts_.erase(key);
            }
            marks.emplace(key, mark);
        }
        return structure.plan_refine_round_marks(std::move(marks));
    }

    /// §IV-B: each move's receiver acknowledges it has space and its sender
    /// sends the block's id (blocking control messages, in move order), then
    /// the payloads go as tasks or, blocking, every send before any receive.
    void exchange_blocks(const std::vector<BlockMove>& moves, bool with_ack_protocol) {
        Backend& b = self();
        for (const BlockMove& mv : moves) {
            if (b.runs(mv.from)) ++b.counters().blocks_moved;
        }
        if (with_ack_protocol) {
            const std::int64_t t0 = now_ns();
            for (const BlockMove& mv : moves) {
                if (b.runs(mv.to)) b.rank(mv.to).send_control(mv.from, kAckTag, 1);
            }
            for (const BlockMove& mv : moves) {
                if (!b.runs(mv.from)) continue;
                b.rank(mv.from).recv_control(mv.to, kAckTag, 1);
                b.rank(mv.from).send_control(mv.to, kBlockIdTag, mv.id);
            }
            for (const BlockMove& mv : moves) {
                if (b.runs(mv.to)) b.rank(mv.to).recv_control(mv.from, kBlockIdTag, mv.id);
            }
            b.trace_main(t0, PhaseKind::Control);
        }
        if (b.transfer_tasks(moves)) return;
        const std::int64_t t0 = now_ns();
        bool moved = false;
        for (const BlockMove& mv : moves) {
            if (!b.runs(mv.from)) continue;
            b.rank(mv.from).send_block(mv);
            moved = true;
        }
        for (const BlockMove& mv : moves) {
            if (!b.runs(mv.to)) continue;
            b.rank(mv.to).recv_block(mv);
            moved = true;
        }
        if (moved) b.trace_main(t0, PhaseKind::RefineExchange);
    }
};

}  // namespace dfamr::amr
