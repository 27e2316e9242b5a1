#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dfamr::sim {

Simulator::Simulator(const ClusterSpec& cluster, const CostModel& costs)
    : cluster_(cluster), costs_(costs) {
    DFAMR_REQUIRE(cluster.nodes >= 1 && cluster.cores_per_node >= 1 && cluster.ranks_per_node >= 1,
                  "invalid cluster spec");
    DFAMR_REQUIRE(cluster.cores_per_node % cluster.ranks_per_node == 0,
                  "ranks per node must divide cores per node");
    const int ranks = cluster.total_ranks();
    cores_.resize(static_cast<std::size_t>(ranks) *
                  static_cast<std::size_t>(cluster.cores_per_rank()));
    nic_free_.resize(static_cast<std::size_t>(cluster.nodes), 0);
    ready_.resize(static_cast<std::size_t>(ranks));
    rank_resume_.resize(static_cast<std::size_t>(ranks), 0);
}

int Simulator::first_core_of(int rank) const { return rank * cluster_.cores_per_rank(); }
int Simulator::node_of(int rank) const { return rank / cluster_.ranks_per_node; }

SimTaskPtr Simulator::new_task(int rank, PhaseKind kind, std::int64_t cost_ns, int pinned_core) {
    DFAMR_REQUIRE(rank >= 0 && rank < cluster_.total_ranks(), "task rank out of range");
    DFAMR_REQUIRE(pinned_core < cluster_.cores_per_rank(), "pinned core out of range");
    auto task = std::make_shared<SimTask>();
    task->node_id = next_node_id_++;
    task->rank = rank;
    task->kind = kind;
    task->cost_ns = std::max<std::int64_t>(cost_ns, 0);
    task->pinned_core = pinned_core;
    return task;
}

void Simulator::add_message(const SimTaskPtr& send, const SimTaskPtr& recv, std::int64_t bytes) {
    DFAMR_REQUIRE(!send->body_done, "sender already executed");
    send->out_messages.emplace_back(recv.get(), bytes);
    ++recv->pending_messages;
}

int Simulator::new_collective(std::int64_t bytes_per_rank) {
    Collective coll;
    coll.bytes = bytes_per_rank;
    collectives_.push_back(coll);
    ++stats_.collectives;
    return static_cast<int>(collectives_.size()) - 1;
}

void Simulator::set_collective(const SimTaskPtr& task, int collective_id) {
    DFAMR_REQUIRE(collective_id >= 0 && collective_id < static_cast<int>(collectives_.size()),
                  "unknown collective");
    Collective& coll = collectives_[static_cast<std::size_t>(collective_id)];
    DFAMR_REQUIRE(!coll.closed, "cannot add members to a closed collective");
    task->collective_id = collective_id;
    ++coll.expected;
}

void Simulator::close_collective(int collective_id) {
    DFAMR_REQUIRE(collective_id >= 0 && collective_id < static_cast<int>(collectives_.size()),
                  "unknown collective");
    Collective& coll = collectives_[static_cast<std::size_t>(collective_id)];
    DFAMR_REQUIRE(coll.expected > 0, "closing a collective with no members");
    coll.closed = true;
    maybe_complete_collective(collective_id);
}

void Simulator::maybe_complete_collective(int collective_id) {
    Collective& coll = collectives_[static_cast<std::size_t>(collective_id)];
    if (coll.closed && coll.arrived == coll.expected) {
        const std::int64_t done = coll.max_arrival + costs_.collective_ns(coll.expected, coll.bytes);
        events_.push(Event{done, next_seq_++, Event::CollectiveDone, nullptr, collective_id});
    }
}

void Simulator::submit(const SimTaskPtr& task) {
    DFAMR_REQUIRE(!task->submitted, "task submitted twice");
    task->submitted = true;
    ++live_tasks_;
    ++stats_.tasks;
    retained_.push_back(task);
    if (retained_.size() > retained_high_water_) {
        std::erase_if(retained_, [](const SimTaskPtr& t) { return t->released; });
        // Grow the threshold when most tasks are genuinely live so a large
        // in-flight window does not trigger quadratic rescans.
        retained_high_water_ = std::max<std::size_t>(1 << 16, retained_.size() * 2);
    }
    if (task->pred_count == 0) {
        make_ready(task.get(), rank_resume_[static_cast<std::size_t>(task->rank)]);
    }
}

void Simulator::make_ready(SimTask* task, std::int64_t at_time) {
    task->ready_ns = std::max(at_time, rank_resume_[static_cast<std::size_t>(task->rank)]);
    ready_[static_cast<std::size_t>(task->rank)].push_back(task);
    dispatch(task->rank, task->ready_ns);
}

void Simulator::dispatch(int rank, std::int64_t now) {
    auto& queue = ready_[static_cast<std::size_t>(rank)];
    const int ncores = cluster_.cores_per_rank();
    const int base = first_core_of(rank);
    bool progress = true;
    while (progress && !queue.empty()) {
        progress = false;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            SimTask* task = *it;
            int core = -1;
            if (task->pinned_core >= 0) {
                if (!cores_[static_cast<std::size_t>(base + task->pinned_core)].busy) {
                    core = base + task->pinned_core;
                }
            } else {
                for (int c = 0; c < ncores; ++c) {
                    if (!cores_[static_cast<std::size_t>(base + c)].busy) {
                        core = base + c;
                        break;
                    }
                }
            }
            if (core >= 0) {
                queue.erase(it);
                start_task(task, core, std::max(now, task->ready_ns));
                progress = true;
                break;
            }
        }
    }
}

void Simulator::start_task(SimTask* task, int core_global, std::int64_t now) {
    Core& core = cores_[static_cast<std::size_t>(core_global)];
    const std::int64_t start = std::max(now, core.free_at);
    core.busy = true;
    task->start_ns = start;
    running_core_[task->node_id] = core_global;

    if (task->collective_id >= 0) {
        Collective& coll = collectives_[static_cast<std::size_t>(task->collective_id)];
        ++coll.arrived;
        coll.max_arrival = std::max(coll.max_arrival, start + task->cost_ns);
        coll.members.push_back(task);
        maybe_complete_collective(task->collective_id);
        return;  // the core is held until the whole group completes
    }
    events_.push(Event{start + task->cost_ns, next_seq_++, Event::BodyDone, task, -1});
}

void Simulator::finish_body(SimTask* task, std::int64_t now) {
    auto it = running_core_.find(task->node_id);
    DFAMR_ASSERT(it != running_core_.end());
    const int core_global = it->second;
    running_core_.erase(it);
    Core& core = cores_[static_cast<std::size_t>(core_global)];
    core.busy = false;
    core.free_at = now;

    task->body_done = true;
    stats_.busy_ns += now - task->start_ns;
    stats_.busy_ns_by_kind[task->kind] += now - task->start_ns;
    if (tracer_ != nullptr) {
        tracer_->record(task->rank, core_global - first_core_of(task->rank), task->start_ns, now,
                        task->kind);
    }

    // Emit messages.
    for (const auto& [target, bytes] : task->out_messages) {
        const bool same_node = node_of(target->rank) == node_of(task->rank);
        std::int64_t arrival;
        if (same_node) {
            arrival = now + costs_.wire_ns(bytes, true);
        } else {
            auto& nic = nic_free_[static_cast<std::size_t>(node_of(task->rank))];
            nic = std::max(nic, now) + static_cast<std::int64_t>(costs_.nic_gap_ns) +
                  static_cast<std::int64_t>(static_cast<double>(bytes) / costs_.bytes_per_ns);
            arrival = nic + static_cast<std::int64_t>(costs_.alpha_ns);
        }
        ++stats_.messages;
        stats_.bytes += static_cast<std::uint64_t>(bytes);
        events_.push(Event{arrival, next_seq_++, Event::MessageArrival, target, -1});
    }

    if (task->pending_messages == 0) {
        release_task(task, now);
    }
    dispatch(task->rank, now);
}

void Simulator::release_task(SimTask* task, std::int64_t now) {
    DFAMR_ASSERT(!task->released);
    task->released = true;
    task->dep_released = true;
    task->finish_ns = now;
    --live_tasks_;

    bool first = true;
    for (DepNode* succ_node : task->successors) {
        auto* succ = static_cast<SimTask*>(succ_node);
        if (--succ->pred_count == 0 && succ->submitted) {
            if (first) {
                // Immediate-successor approximation: front of the queue.
                succ->ready_ns = std::max(now, rank_resume_[static_cast<std::size_t>(succ->rank)]);
                ready_[static_cast<std::size_t>(succ->rank)].push_front(succ);
                dispatch(succ->rank, succ->ready_ns);
                first = false;
            } else {
                make_ready(succ, now);
            }
        }
    }
    task->successors.clear();
}

void Simulator::run_until_drained() {
    while (!events_.empty()) {
        const Event ev = events_.top();
        events_.pop();
        switch (ev.type) {
            case Event::BodyDone:
                finish_body(ev.task, ev.time);
                break;
            case Event::MessageArrival: {
                SimTask* task = ev.task;
                DFAMR_ASSERT(task->pending_messages > 0);
                --task->pending_messages;
                if (task->pending_messages == 0 && task->body_done && !task->released) {
                    release_task(task, ev.time);
                    dispatch(task->rank, ev.time);
                }
                break;
            }
            case Event::CollectiveDone: {
                Collective& coll = collectives_[static_cast<std::size_t>(ev.collective_id)];
                for (SimTask* member : coll.members) {
                    auto it = running_core_.find(member->node_id);
                    DFAMR_ASSERT(it != running_core_.end());
                    Core& core = cores_[static_cast<std::size_t>(it->second)];
                    core.busy = false;
                    core.free_at = ev.time;
                    stats_.busy_ns += ev.time - member->start_ns;
                    stats_.busy_ns_by_kind[member->kind] += ev.time - member->start_ns;
                    if (tracer_ != nullptr) {
                        tracer_->record(member->rank, it->second - first_core_of(member->rank),
                                        member->start_ns, ev.time, member->kind);
                    }
                    running_core_.erase(it);
                    member->body_done = true;
                    release_task(member, ev.time);
                }
                const std::vector<SimTask*> members = std::move(coll.members);
                coll.members.clear();
                for (SimTask* member : members) dispatch(member->rank, ev.time);
                break;
            }
        }
    }
    if (live_tasks_ != 0) {
        throw Error("simulator drained its events with " + std::to_string(live_tasks_) +
                    " tasks stuck (dependency cycle or missing message)");
    }
}

std::int64_t Simulator::rank_time(int rank) const {
    std::int64_t t = rank_resume_[static_cast<std::size_t>(rank)];
    const int base = first_core_of(rank);
    for (int c = 0; c < cluster_.cores_per_rank(); ++c) {
        t = std::max(t, cores_[static_cast<std::size_t>(base + c)].free_at);
    }
    return t;
}

std::int64_t Simulator::global_time() const {
    std::int64_t t = 0;
    for (int r = 0; r < cluster_.total_ranks(); ++r) t = std::max(t, rank_time(r));
    return t;
}

void Simulator::advance_all_ranks_to(std::int64_t t) {
    for (Core& core : cores_) core.free_at = std::max(core.free_at, t);
    for (std::int64_t& r : rank_resume_) r = std::max(r, t);
}

}  // namespace dfamr::sim
