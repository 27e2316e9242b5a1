// Task-Aware MPI (TAMPI) — integration of mpisim with the tasking runtime.
//
// Mirrors the real library's contract (Sala et al., ParCo 2019):
//  * TAMPI::iwait / iwaitall bind the completion of the calling task to the
//    completion of the given MPI requests. They are non-blocking and
//    asynchronous: the task body may return before the transfer finished,
//    and the task releases its dependencies only once BOTH the body has
//    finished AND every bound request completed.
//  * TAMPI::isend / irecv are the convenience wrappers that perform the
//    non-blocking operation and immediately bind the resulting request
//    (the paper's TAMPI_Isend / TAMPI_Irecv).
//  * TAMPI::send / recv are the blocking mode: the calling task pauses
//    until completion while its worker cooperatively executes other tasks.
//
// Progress: a polling service registered with the tasking runtime tests all
// pending requests; on completion it fulfills the owning task's external
// events (the same mechanism real TAMPI uses through the nanos6 polling API).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/lockdep.hpp"
#include "mpisim/mpi.hpp"
#include "resilience/hardened_comm.hpp"
#include "tasking/runtime.hpp"

namespace dfamr::tampi {

class Tampi {
public:
    /// Attaches the progress engine to a tasking runtime (one per rank in
    /// hybrid executions). Unregisters itself on destruction.
    explicit Tampi(tasking::Runtime& runtime);
    ~Tampi();

    Tampi(const Tampi&) = delete;
    Tampi& operator=(const Tampi&) = delete;

    /// Enables hardened communication: isend retries transient failures
    /// with the policy's backoff, and every bound receive gets a completion
    /// deadline. An expired request is canceled and reported through
    /// Runtime::report_external_error as a resilience::CommTimeout, so the
    /// failure surfaces at the next taskwait instead of hanging the pool.
    void configure_resilience(const resilience::RetryPolicy& policy,
                              amr::Tracer* tracer = nullptr);

    /// Non-blocking: binds `req` to the calling task (TAMPI_Iwait).
    void iwait(mpi::Request req);
    /// Non-blocking: binds all requests to the calling task (TAMPI_Iwaitall).
    void iwaitall(std::span<mpi::Request> reqs);

    /// TAMPI_Isend: non-blocking send bound to the calling task.
    void isend(mpi::Communicator& comm, const void* buf, std::size_t bytes, int dest, int tag);
    /// TAMPI_Irecv: non-blocking receive bound to the calling task. The data
    /// must NOT be consumed inside this task — successors gated by the
    /// task's output dependency on `buf` consume it.
    void irecv(mpi::Communicator& comm, void* buf, std::size_t bytes, int source, int tag);

    /// Blocking mode: pauses the calling task until completion while the
    /// worker executes other ready tasks (task scheduling point).
    void send(mpi::Communicator& comm, const void* buf, std::size_t bytes, int dest, int tag);
    void recv(mpi::Communicator& comm, void* buf, std::size_t bytes, int source, int tag,
              mpi::Status* status = nullptr);

    /// Requests currently tracked by the progress engine (tests/stats).
    std::size_t pending() const;

    /// Installs a probe the progress engine polls for a world abort (a
    /// crashed sibling rank). When it fires, every pending request is
    /// flushed immediately as failed — without it a crash is only noticed
    /// when the per-request completion deadline expires, which turns a
    /// fast-fail into a full comm_timeout stall per rank.
    void set_abort_probe(std::function<bool()> probe);

private:
    bool poll();

    struct Bound {
        mpi::Request request;
        tasking::Task* task = nullptr;
        /// Absolute steady-clock expiry (0 = no deadline / resilience off).
        std::int64_t deadline_ns = 0;
        /// Context for the CommTimeout diagnostic (kUndefined when unknown,
        /// e.g. requests bound through the bare iwait/iwaitall API).
        int rank = mpi::kUndefined;
        int peer = mpi::kUndefined;
        int tag = mpi::kUndefined;
        const char* op = "iwait";
    };

    void bind_current_task(mpi::Request req, int rank, int peer, int tag, const char* op);
    /// Cancels an expired request and reports the timeout to the runtime;
    /// releases the owning task's event so the pool keeps draining.
    void expire(Bound& b);
    /// Blocking-mode completion: help-execute tasks until `req` completes or
    /// the policy deadline passes (then cancel + throw CommTimeout).
    void help_with_deadline(mpi::Request& req, const char* op, int rank, int peer, int tag);

    tasking::Runtime& runtime_;
    mutable lockdep::Mutex mutex_{"tampi.engine"};
    std::vector<Bound> pending_;
    std::string service_name_;

    bool hardened_ = false;
    resilience::RetryPolicy policy_;
    amr::Tracer* tracer_ = nullptr;
    /// Polled by the progress engine and the blocking-mode help loops; a
    /// true return means the world aborted and all waits should fail now.
    /// Published through `has_abort_probe_` (release/acquire): workers may
    /// already be polling when the driver installs the probe.
    std::function<bool()> abort_probe_;
    std::atomic<bool> has_abort_probe_{false};

    bool probe_world_aborted() const {
        return has_abort_probe_.load(std::memory_order_acquire) && abort_probe_();
    }
    /// Set once any request times out: every other pending request is
    /// flushed too, so an aborted step tears down quickly instead of
    /// waiting out one deadline per request.
    bool timed_out_ = false;
};

}  // namespace dfamr::tampi
