#include "resilience/hardened_comm.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timing.hpp"

namespace dfamr::resilience {

namespace {

/// The one backoff loop: re-posts a send while fault injection drops it.
template <typename Post>
mpi::Request retry_send(const Post& post, const char* op, int rank, int dest, int tag,
                        const RetryPolicy& policy, amr::Tracer* tracer, int worker) {
    std::int64_t backoff = policy.backoff_ns;
    for (int attempt = 1;; ++attempt) {
        mpi::Request req = post();
        mpi::Status st;
        // Eager transport: the send completes before isend returns, so a
        // transient drop is visible synchronously. A request still in
        // flight is treated as accepted.
        if (!req.test(&st) || st.ok) return req;
        if (attempt >= policy.max_attempts) throw CommTimeout(op, rank, dest, tag);
        const std::int64_t t0 = now_ns();
        std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
        backoff = std::min(static_cast<std::int64_t>(static_cast<double>(backoff) *
                                                     policy.backoff_factor),
                           policy.max_backoff_ns);
        if (tracer != nullptr) tracer->record(rank, worker, t0, now_ns(), amr::PhaseKind::Retry);
    }
}

}  // namespace

mpi::Request isend_with_retry(mpi::Communicator& comm, const void* buf, std::size_t bytes,
                              int dest, int tag, const RetryPolicy& policy, amr::Tracer* tracer,
                              int worker) {
    return retry_send([&] { return comm.isend(buf, bytes, dest, tag); }, "isend", comm.rank(),
                      dest, tag, policy, tracer, worker);
}

mpi::Request HardenedComm::isend(const void* buf, std::size_t bytes, int dest, int tag) {
    return isend_with_retry(comm_, buf, bytes, dest, tag, policy_, tracer_, 0);
}

mpi::Request HardenedComm::irecv(void* buf, std::size_t bytes, int source, int tag) {
    return comm_.irecv(buf, bytes, source, tag);
}

mpi::Request HardenedComm::isend_tx(const mpi::TxBuffer& tx, int dest, int tag) {
    return retry_send([&] { return comm_.isend_tx(tx, dest, tag); }, "isend_tx", comm_.rank(),
                      dest, tag, policy_, tracer_, 0);
}

mpi::Request HardenedComm::irecv_view(mpi::RxView* view, std::size_t capacity, int source,
                                      int tag) {
    return comm_.irecv_view(view, capacity, source, tag);
}

void HardenedComm::send(const void* buf, std::size_t bytes, int dest, int tag) {
    isend(buf, bytes, dest, tag).wait();
}

void HardenedComm::recv(void* buf, std::size_t bytes, int source, int tag, mpi::Status* status) {
    mpi::Request req = comm_.irecv(buf, bytes, source, tag);
    if (req.wait_for(policy_.timeout_ns, status)) return;
    if (!req.cancel()) {
        // Completed while we were giving up: take the delivery.
        req.wait(status);
        return;
    }
    throw CommTimeout("recv", comm_.rank(), source, tag);
}

void HardenedComm::wait_all(std::span<mpi::Request> reqs, int peer, int tag) {
    const std::int64_t t0 = now_ns();
    for (mpi::Request& r : reqs) {
        if (!r.valid()) continue;
        const std::int64_t remaining = policy_.timeout_ns - (now_ns() - t0);
        if (remaining > 0 && r.wait_for(remaining)) continue;
        if (!r.cancel()) continue;  // completed concurrently (or a send)
        // Leave no dangling buffer references behind before surfacing.
        for (mpi::Request& rest : reqs) {
            if (rest.valid()) rest.cancel();
        }
        throw CommTimeout("wait_all", comm_.rank(), peer, tag);
    }
}

int HardenedComm::wait_any(std::span<mpi::Request> reqs, mpi::Status* status, int peer, int tag) {
    const int idx = mpi::wait_any_for(reqs, policy_.timeout_ns, status);
    if (idx != mpi::kTimeout) return idx;
    for (mpi::Request& r : reqs) {
        if (r.valid()) r.cancel();
    }
    throw CommTimeout("wait_any", comm_.rank(), peer, tag);
}

}  // namespace dfamr::resilience
