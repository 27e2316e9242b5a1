// In-process MPI subset ("mpisim") — the message-passing substrate.
//
// Ranks are threads of one process (World::run spawns one thread per rank).
// The subset implemented is exactly what miniAMR and the paper's TAMPI port
// need: tagged point-to-point with non-blocking requests and MPI matching
// semantics (per-(source,tag,comm) non-overtaking order, wildcard source and
// tag), plus the collectives the mini-app uses (barrier, bcast, allreduce,
// reduce, allgather, alltoall).
//
// Transfer policy: eager — a send request is complete once its payload is
// delivered into a posted receive, buffered (at most once) into the
// destination's unexpected queue, or handed to the wire; a receive completes
// as soon as it is matched. MPI permits this buffering; ordering guarantees
// are preserved by per-mailbox FIFO queues. Over a wire, payloads at or
// above the rendezvous threshold complete when the transport hands their
// Data frame off. One send routine and one receive routine implement this
// for plain and zero-copy (isend_tx / irecv_view) messages alike.
//
// Thread-safety: equivalent to MPI_THREAD_MULTIPLE. Any thread of a rank
// (e.g. a tasking worker running a communication task) may post operations
// concurrently.
//
// Transports: the matching/mailbox machinery above is transport-agnostic.
// With TransportKind::Inproc, messages move through shared memory exactly as
// before. With TransportKind::Tcp each rank owns a net::Endpoint and
// non-local messages travel as framed TCP payloads (eager below the
// rendezvous threshold, Rts/Cts/Data handshake at or above it); a received
// frame is fed into the same deliver path as a local send, so ordering,
// wildcards and fault semantics are identical. TransportKind::Shm swaps the
// sockets for per-pair lock-free shared-memory rings (net::ShmTransport) —
// cheaper for co-located ranks, and still bit-identical because both
// transports run the same protocol code (net::FramedTransport) and
// everything above the Transport interface is shared.
// A wire world started by dfamr_mpirun (DFAMR_RANK et al. in the
// environment) runs ONE local rank per process and meshes with its sibling
// processes; otherwise all ranks live in this process, each with its own
// loopback transport.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dfamr::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
inline constexpr int kUndefined = -2;
/// Returned by wait_any_for when the deadline expires before any completion.
inline constexpr int kTimeout = -3;

/// Tags at or above this value are reserved for mpisim internals (the wire
/// collective protocol). Public isend/irecv reject them, and a kAnyTag
/// wildcard never matches them.
inline constexpr int kReservedTagBase = 1 << 29;

enum class TransportKind { Inproc, Tcp, Shm };

/// Transport configuration for a World. Defaults reproduce the historical
/// in-process behavior exactly.
struct WorldOptions {
    TransportKind transport = TransportKind::Inproc;
    /// Payloads >= this many bytes use the rendezvous handshake on the wire
    /// transports (no effect in-process).
    std::size_t rendezvous_threshold = 64 * 1024;
    /// Wire transports batch queued same-destination eager messages into
    /// Coalesced frames with a sub-message table (no effect in-process).
    bool coalesce = false;
    /// Shared-memory namespace for TransportKind::Shm. Empty = DFAMR_SHM_NS
    /// from the launcher, or an auto-generated per-world name for loopback.
    std::string shm_ns;
    /// When set, DFAMR_RANK & friends in the environment are ignored and the
    /// world always runs every rank in this process (loopback endpoints for
    /// Tcp). Used e.g. by the chaos reference twin under dfamr_mpirun.
    bool ignore_launch_env = false;
    /// Progress-thread time accounting hook: called by a rank's endpoint
    /// reader thread after each batch of protocol work.
    std::function<void(int rank, std::int64_t t0_ns, std::int64_t t1_ns)> progress_trace;
};

enum class Op { Sum, Max, Min };

struct Status {
    int source = kUndefined;
    int tag = kUndefined;
    std::size_t bytes = 0;
    /// False when the operation did not transfer data: a send whose payload
    /// was dropped by fault injection, or a canceled receive.
    bool ok = true;
};

/// Exception escaping a rank thread, annotated with the rank id by
/// World::run (the thread context would otherwise be lost on rethrow).
class RankError : public Error {
public:
    RankError(int rank, const std::string& what)
        : Error("[rank " + std::to_string(rank) + "] " + what), rank_(rank) {}
    int rank() const { return rank_; }

private:
    int rank_;
};

/// What the fault injector decided for one message send attempt. Defaults
/// mean "no fault": deliver immediately, like a fault-free world.
struct FaultAction {
    bool drop = false;          // discard the payload; the send completes with ok=false
    bool crash = false;         // throw from the sending call (simulated rank crash)
    std::int64_t stall_ns = 0;  // sender-side stall before the operation proceeds
    std::int64_t delay_ns = 0;  // in-flight delivery delay (enables legal reordering)
};

/// Chaos hook consulted once per isend attempt. mpisim carries no policy of
/// its own — resilience::FaultPlan implements this deterministically.
/// on_send may be called concurrently from any rank thread.
class FaultInjector {
public:
    virtual ~FaultInjector() = default;
    virtual FaultAction on_send(int src, int dest, int tag) = 0;
};

namespace detail {
struct RequestState;
struct PendingMsg;
struct Mailbox;
struct CollectiveCtx;
struct WorldState;
}  // namespace detail

/// Handle to an asynchronous operation. Copyable (shared state), like an
/// MPI_Request value that several call sites may test.
class Request {
public:
    Request() = default;

    bool valid() const { return state_ != nullptr; }
    /// Non-blocking completion check (MPI_Test).
    bool test(Status* status = nullptr) const;
    /// Blocking wait (MPI_Wait).
    void wait(Status* status = nullptr) const;
    /// Timed wait: returns false when `timeout_ns` elapses first (the
    /// request stays pending and valid).
    bool wait_for(std::int64_t timeout_ns, Status* status = nullptr) const;
    /// Cancels a still-posted receive (MPI_Cancel): the request completes
    /// with status.ok == false and its buffer is no longer referenced by the
    /// mailbox. Returns true when this call performed the cancellation;
    /// false when the request already completed (data was delivered) or is
    /// a send. Needed so a timed-out receive can be abandoned safely.
    bool cancel() const;

private:
    friend class Communicator;
    friend void wait_all(std::span<Request> reqs);
    friend int wait_any(std::span<Request> reqs, Status* status);
    friend int wait_any_for(std::span<Request> reqs, std::int64_t timeout_ns, Status* status);

    explicit Request(std::shared_ptr<detail::RequestState> s) : state_(std::move(s)) {}
    std::shared_ptr<detail::RequestState> state_;
};

/// A send buffer pre-allocated inside a wire frame: pack tasks serialize
/// directly into `payload`, and isend_tx puts that same storage on the wire
/// — no staging copy. `storage` is shared, so retrying an isend_tx (the
/// HardenedComm path) re-uses the same bytes safely. Works on every
/// transport: in-process, the frame simply becomes the parked message.
/// Wherever a plain isend would buffer the payload, isend_tx lends this
/// frame instead and counts one copies_elided.
struct TxBuffer {
    net::FrameBuf storage;
    std::span<std::byte> payload;
};

/// Allocates a TxBuffer whose payload holds `bytes`. The payload is 8-byte
/// aligned (wire headers are 40 bytes), so views of doubles are safe.
TxBuffer make_tx_buffer(std::size_t bytes);

/// A received message viewed in place: `payload` aliases the transport's
/// frame (or the sender's parked buffer in-process); `storage` keeps it
/// alive. Valid until the RxView is destroyed or reassigned.
struct RxView {
    net::FrameBuf storage;
    std::span<const std::byte> payload;
};

/// Waits for all requests (MPI_Waitall). Invalid requests are ignored.
void wait_all(std::span<Request> reqs);
/// Waits until one request completes and returns its index (MPI_Waitany);
/// the completed request is invalidated. Returns kUndefined if none valid.
int wait_any(std::span<Request> reqs, Status* status = nullptr);
/// wait_any with a deadline: returns kTimeout when `timeout_ns` elapses
/// before any request completes (all requests stay valid).
int wait_any_for(std::span<Request> reqs, std::int64_t timeout_ns, Status* status = nullptr);

/// A rank's endpoint into a communicator. One Communicator object per rank.
class Communicator {
public:
    int rank() const { return rank_; }
    int size() const { return size_; }
    /// True once any rank of this world has failed (the abort flag every
    /// blocking call polls). Lets layers with their own wait loops — the
    /// TAMPI progress engine — observe the failure promptly instead of
    /// riding out their full completion deadlines.
    bool aborted() const;

    // --- point-to-point ------------------------------------------------
    /// `tag` must be in [0, kReservedTagBase).
    Request isend(const void* buf, std::size_t bytes, int dest, int tag);
    Request irecv(void* buf, std::size_t bytes, int source, int tag);
    /// Zero-copy send: `tx.storage` goes on the wire as-is (the payload was
    /// packed in place — see make_tx_buffer). Takes tx by const reference so
    /// a retry wrapper can re-post the same buffer.
    Request isend_tx(const TxBuffer& tx, int dest, int tag);
    /// Zero-copy receive: on completion `*view` holds the message payload
    /// in place (no copy into a user buffer). A message that was buffered
    /// before it met this receive — parked, received from a wire, or held
    /// by the fault scheduler — skips its copy-out and counts one
    /// copies_elided. `capacity` bounds the accepted message size like
    /// irecv's `bytes`. `view` must stay valid until completion.
    Request irecv_view(RxView* view, std::size_t capacity, int source, int tag);
    void send(const void* buf, std::size_t bytes, int dest, int tag);
    void recv(void* buf, std::size_t bytes, int source, int tag, Status* status = nullptr);
    /// Non-blocking probe for a matching incoming message (MPI_Iprobe).
    bool iprobe(int source, int tag, Status* status = nullptr);
    /// Unposts every receive this rank still has in its mailbox, completing
    /// the requests with status.ok == false. A driver that unwinds on an
    /// error MUST call this before freeing its receive buffers: the mailbox
    /// holds raw pointers into them, and a sibling rank that has not yet
    /// observed the abort would otherwise deliver into freed memory.
    void abandon_posted_recvs();

    // --- collectives (all ranks must call in the same order) ------------
    void barrier();
    void bcast(void* buf, std::size_t bytes, int root);
    template <typename T>
    void allreduce(const T* in, T* out, std::size_t count, Op op);
    template <typename T>
    void reduce(const T* in, T* out, std::size_t count, Op op, int root);
    /// Gathers `bytes` from every rank into out[rank*bytes ...].
    void allgather(const void* in, std::size_t bytes, void* out);
    /// Uniform all-to-all: sends in[r*bytes..] to rank r, receives into out[r*bytes..].
    void alltoall(const void* in, std::size_t bytes, void* out);

private:
    friend class World;
    Communicator(detail::WorldState* world, int rank, int size)
        : world_(world), rank_(rank), size_(size) {}

    // The one send and the one receive routine under the public entry
    // points. post_send takes a plain send's borrowed bytes or an isend_tx
    // frame through fault scheduling, the wire hand-off and local delivery;
    // `allow_fault` is false for protocol traffic (wire collectives), which
    // must never be chaos-injected — matching the in-process collectives,
    // which don't touch the injector. post_recv copies into `buf`, or hands
    // the message's storage to `view` when that is non-null.
    Request post_send(detail::PendingMsg&& msg, int dest, bool allow_fault);
    Request post_recv(void* buf, RxView* view, std::size_t capacity, int source, int tag);

    // Type-erased collective entry. In-process, the last arriving rank runs
    // `combine` on a shared context; over the wire, rank 0 gathers every
    // rank's contribution (`in_bytes` of input, `out_bytes` of expected
    // result), runs the SAME combine on a materialized context, and scatters
    // the results — so the arithmetic (and its fold order) is bit-identical
    // across transports.
    void collective(const void* in, std::size_t in_bytes, void* out, std::size_t out_bytes,
                    const std::function<void(detail::CollectiveCtx&)>& combine);
    void collective_wire(const void* in, std::size_t in_bytes, void* out, std::size_t out_bytes,
                         const std::function<void(detail::CollectiveCtx&)>& combine);

    detail::WorldState* world_ = nullptr;
    int rank_ = 0;
    int size_ = 0;
};

/// The in-process "cluster": owns the mailboxes of `nranks` ranks and runs
/// rank main functions on dedicated threads.
class World {
public:
    /// `faults`, when non-null, is consulted on every isend and must outlive
    /// the World. A world with faults runs a delivery-scheduler thread for
    /// delayed messages; without one the data path is byte-identical to the
    /// original eager implementation.
    explicit World(int nranks, FaultInjector* faults = nullptr);
    /// Transport-aware constructor. With TransportKind::Tcp the endpoints
    /// mesh during construction (distributed worlds block here until every
    /// sibling process has checked in with the launcher).
    World(int nranks, const WorldOptions& options, FaultInjector* faults = nullptr);
    ~World();

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    int size() const;
    /// This rank's COMM_WORLD endpoint. Valid for the World's lifetime.
    Communicator& comm(int rank);

    /// Spawns one thread per rank running `rank_main`, and joins them.
    /// The first exception thrown by any rank is rethrown here, wrapped as a
    /// RankError carrying the failing rank's id.
    void run(const std::function<void(Communicator&)>& rank_main);

    /// Total messages delivered so far (for tests and conservation checks).
    /// In a distributed world these count this process's rank only.
    std::uint64_t messages_delivered() const;
    std::uint64_t bytes_delivered() const;

    /// True when this process hosts a single rank of a multi-process world
    /// (started by dfamr_mpirun). run() then executes rank_main once, for
    /// local_rank(), and comm() is only valid for that rank.
    bool distributed() const;
    /// The rank hosted by this process (0 when not distributed).
    int local_rank() const;
    /// Aggregated wire counters of this process's endpoints (all zero for
    /// the in-process transport), plus the world's copies_elided count.
    net::NetCounters net_counters() const;
    /// Per-peer wire traffic of this process's endpoints, indexed by peer
    /// rank (empty for the in-process transport).
    std::vector<net::PeerStats> peer_net_counters() const;

private:
    std::unique_ptr<detail::WorldState> state_;
    std::vector<Communicator> comms_;
};

// ---- typed collective implementations (header: templates) ---------------

namespace detail {
template <typename T>
void fold(Op op, const T* in, T* acc, std::size_t count) {
    switch (op) {
        case Op::Sum:
            for (std::size_t i = 0; i < count; ++i) acc[i] += in[i];
            break;
        case Op::Max:
            for (std::size_t i = 0; i < count; ++i) acc[i] = in[i] > acc[i] ? in[i] : acc[i];
            break;
        case Op::Min:
            for (std::size_t i = 0; i < count; ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
            break;
    }
}

// Accessors used by the templated collectives; defined in mpi.cpp.
std::span<const void* const> ctx_inputs(const CollectiveCtx& ctx);
std::span<void* const> ctx_outputs(const CollectiveCtx& ctx);
}  // namespace detail

template <typename T>
void Communicator::allreduce(const T* in, T* out, std::size_t count, Op op) {
    collective(in, count * sizeof(T), out, count * sizeof(T),
               [count, op, this](detail::CollectiveCtx& ctx) {
        auto inputs = detail::ctx_inputs(ctx);
        auto outputs = detail::ctx_outputs(ctx);
        std::vector<T> acc(static_cast<const T*>(inputs[0]), static_cast<const T*>(inputs[0]) + count);
        for (int r = 1; r < size_; ++r) detail::fold(op, static_cast<const T*>(inputs[r]), acc.data(), count);
        for (int r = 0; r < size_; ++r) std::memcpy(outputs[r], acc.data(), count * sizeof(T));
    });
}

template <typename T>
void Communicator::reduce(const T* in, T* out, std::size_t count, Op op, int root) {
    collective(in, count * sizeof(T), out, rank_ == root ? count * sizeof(T) : 0,
               [count, op, root, this](detail::CollectiveCtx& ctx) {
        auto inputs = detail::ctx_inputs(ctx);
        auto outputs = detail::ctx_outputs(ctx);
        std::vector<T> acc(static_cast<const T*>(inputs[0]), static_cast<const T*>(inputs[0]) + count);
        for (int r = 1; r < size_; ++r) detail::fold(op, static_cast<const T*>(inputs[r]), acc.data(), count);
        if (outputs[root] != nullptr) std::memcpy(outputs[root], acc.data(), count * sizeof(T));
    });
}

}  // namespace dfamr::mpi
