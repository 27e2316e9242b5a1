#include "tampi/tampi.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "verify/access_check.hpp"

namespace dfamr::tampi {

namespace {
std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
}  // namespace

Tampi::Tampi(tasking::Runtime& runtime) : runtime_(runtime) {
    service_name_ = "tampi-progress@" + std::to_string(reinterpret_cast<std::uintptr_t>(this));
    runtime_.register_polling_service(service_name_, [this] { return poll(); });
}

Tampi::~Tampi() {
    runtime_.unregister_polling_service(service_name_);
    // Error-path teardown can leave bound requests behind (e.g. receives
    // whose sender crashed). Cancel them and release their events so the
    // runtime destructor does not hang waiting for tasks that would never
    // complete; the error that got us here was already reported.
    std::vector<Bound> leftovers;
    {
        std::lock_guard lock(mutex_);
        leftovers = std::move(pending_);
        pending_.clear();
    }
    for (Bound& b : leftovers) {
        if (!finished(b)) b.request.cancel();
        runtime_.decrease_task_events(b.task, 1);
    }
}

void Tampi::configure_resilience(const resilience::RetryPolicy& policy, amr::Tracer* tracer) {
    std::lock_guard lock(mutex_);
    hardened_ = true;
    policy_ = policy;
    tracer_ = tracer;
}

void Tampi::set_abort_probe(std::function<bool()> probe) {
    abort_probe_ = std::move(probe);
    // Release-publish: a worker polling concurrently either misses the
    // probe this round or sees the fully constructed function.
    has_abort_probe_.store(true, std::memory_order_release);
}

void Tampi::bind_current_task(mpi::Request req, int rank, int peer, int tag, const char* op) {
    DFAMR_REQUIRE(req.valid(), "TAMPI iwait: invalid request");
    // Fast path: already complete — no event, no tracking.
    if (req.test()) return;
    tasking::Task* task = runtime_.increase_current_task_events(1);
    std::int64_t deadline = 0;
    {
        std::lock_guard lock(mutex_);
        if (hardened_ && policy_.timeout_ns > 0) deadline = steady_now_ns() + policy_.timeout_ns;
        pending_.push_back(Bound{std::move(req), task, deadline, rank, peer, tag, op});
    }
}

void Tampi::iwait(mpi::Request req) {
    bind_current_task(std::move(req), mpi::kUndefined, mpi::kUndefined, mpi::kUndefined, "iwait");
}

void Tampi::iwaitall(std::span<mpi::Request> reqs) {
    for (mpi::Request& r : reqs) {
        if (r.valid()) iwait(r);
    }
}

void Tampi::isend(mpi::Communicator& comm, const void* buf, std::size_t bytes, int dest, int tag) {
    // The send buffer is an input of the calling task: it must be declared.
    DFAMR_CHECK_READ(buf, bytes);
    mpi::Request req = hardened_
                           ? resilience::isend_with_retry(comm, buf, bytes, dest, tag, policy_,
                                                          tracer_, runtime_.trace_lane())
                           : comm.isend(buf, bytes, dest, tag);
    bind_current_task(std::move(req), comm.rank(), dest, tag, "isend");
}

void Tampi::irecv(mpi::Communicator& comm, void* buf, std::size_t bytes, int source, int tag) {
    // The receive buffer is written asynchronously on the task's behalf —
    // an undeclared buffer races with whoever else touches it.
    DFAMR_CHECK_WRITE(buf, bytes);
    bind_current_task(comm.irecv(buf, bytes, source, tag), comm.rank(), source, tag, "irecv");
}

void Tampi::send(mpi::Communicator& comm, const void* buf, std::size_t bytes, int dest, int tag) {
    DFAMR_CHECK_READ(buf, bytes);
    mpi::Request req = hardened_
                           ? resilience::isend_with_retry(comm, buf, bytes, dest, tag, policy_,
                                                          tracer_, runtime_.trace_lane())
                           : comm.isend(buf, bytes, dest, tag);
    help_with_deadline(req, "send", comm.rank(), dest, tag);
}

void Tampi::recv(mpi::Communicator& comm, void* buf, std::size_t bytes, int source, int tag,
                 mpi::Status* status) {
    DFAMR_CHECK_WRITE(buf, bytes);
    mpi::Request req = comm.irecv(buf, bytes, source, tag);
    help_with_deadline(req, "recv", comm.rank(), source, tag);
    if (status != nullptr) req.test(status);
}

void Tampi::help_with_deadline(mpi::Request& req, const char* op, int rank, int peer, int tag) {
    // A world abort (a sibling rank crashed) or a rank-local task error
    // ends the wait immediately: the transfer can never be relied on, so
    // riding out the full policy deadline would stall teardown by
    // comm_timeout per blocking call.
    const auto aborted = [this] {
        return probe_world_aborted() || runtime_.has_pending_error();
    };
    if (!hardened_ || policy_.timeout_ns <= 0) {
        runtime_.help_until([&req, &aborted] { return req.test() || aborted(); });
    } else {
        const std::int64_t deadline = steady_now_ns() + policy_.timeout_ns;
        runtime_.help_until([&req, &aborted, deadline] {
            return req.test() || aborted() || steady_now_ns() >= deadline;
        });
    }
    if (req.test()) return;
    if (aborted() && req.cancel()) {
        throw Error("tampi: " + std::string(op) + " abandoned: world aborted "
                    "(another rank failed)");
    }
    if (hardened_ && policy_.timeout_ns > 0 && req.cancel()) {
        throw resilience::CommTimeout(op, rank, peer, tag);
    }
}

bool Tampi::finished(const Bound& b) const {
    try {
        return b.request.test();
    } catch (...) {
        runtime_.report_external_error(std::current_exception());
        return true;
    }
}

std::size_t Tampi::pending() const {
    std::lock_guard lock(mutex_);
    return pending_.size();
}

void Tampi::expire(Bound& b) {
    // cancel() can lose the race against a delivery that completed the
    // request concurrently — then this is a normal (late) completion.
    if (!b.request.cancel() && finished(b)) {
        runtime_.decrease_task_events(b.task, 1);
        return;
    }
    runtime_.report_external_error(
        std::make_exception_ptr(resilience::CommTimeout(b.op, b.rank, b.peer, b.tag)));
    runtime_.decrease_task_events(b.task, 1);
}

bool Tampi::poll() {
    const std::int64_t now = steady_now_ns();
    // Two ways a transfer becomes unfinishable: the world aborted (a
    // sibling rank crashed), or this rank's own parallel phase already
    // recorded an error — its taskwait WILL rethrow, but only after the
    // event drain, and the peer may never send what these requests wait
    // for (it is stuck on data the failed task would have produced).
    const bool world_aborted = probe_world_aborted();
    const bool doomed = world_aborted || runtime_.has_pending_error();
    std::vector<Bound> completed;
    std::vector<Bound> expired;
    std::vector<Bound> aborted;
    {
        std::lock_guard lock(mutex_);
        auto mid = std::partition(pending_.begin(), pending_.end(),
                                  [this](const Bound& b) { return !finished(b); });
        completed.assign(std::make_move_iterator(mid), std::make_move_iterator(pending_.end()));
        pending_.erase(mid, pending_.end());
        if (doomed) {
            // Flush everything now so the rank unwinds in one poll interval
            // instead of one completion deadline per request.
            aborted.assign(std::make_move_iterator(pending_.begin()),
                           std::make_move_iterator(pending_.end()));
            pending_.clear();
        } else if (hardened_) {
            bool any = timed_out_;
            for (const Bound& b : pending_) {
                if (b.deadline_ns != 0 && now >= b.deadline_ns) {
                    any = true;
                    break;
                }
            }
            if (any) {
                // One expiry flushes everything still in flight: the step is
                // lost either way, and draining the rest now means teardown
                // takes one timeout, not one per request.
                timed_out_ = true;
                expired.assign(std::make_move_iterator(pending_.begin()),
                               std::make_move_iterator(pending_.end()));
                pending_.clear();
            }
        }
    }
    // Fulfill events outside the tracking lock: decrease_task_events takes
    // the task's node lock and may complete it and wake successors.
    for (const Bound& b : completed) {
        runtime_.decrease_task_events(b.task, 1);
    }
    for (Bound& b : expired) {
        expire(b);
    }
    for (Bound& b : aborted) {
        // cancel() can lose the race against a concurrent delivery — then
        // this is a normal (late) completion, not a casualty of the abort.
        if (!b.request.cancel() && finished(b)) {
            runtime_.decrease_task_events(b.task, 1);
            continue;
        }
        if (world_aborted) {
            // On a rank-local error the rethrow is already pending — only a
            // remote abort needs an error recorded so taskwait surfaces it.
            runtime_.report_external_error(std::make_exception_ptr(Error(
                std::string("tampi: ") + b.op + " abandoned: world aborted "
                "(another rank failed)")));
        }
        runtime_.decrease_task_events(b.task, 1);
    }
    return true;  // stay registered
}

}  // namespace dfamr::tampi
