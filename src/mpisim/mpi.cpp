#include "mpisim/mpi.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "common/lockdep.hpp"
#include "net/endpoint.hpp"
#include "net/rendezvous.hpp"
#include "net/shm_transport.hpp"

#if defined(DFAMR_VERIFY)
#include <cstdio>

#include "verify/mc/protocol.hpp"
#endif

#include "verify/access_check.hpp"  // DFAMR_WIRE_* compile away without DFAMR_VERIFY

namespace dfamr::mpi {

namespace detail {

constexpr auto kAbortPollInterval = std::chrono::milliseconds(5);

inline std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct RequestState {
    lockdep::Mutex m{"mpisim.request"};
    std::condition_variable_any cv;
    bool done = false;
    /// A receive whose message did not fit: wait() and test() raise it.
    bool truncated = false;
    Status status;
    WorldState* world = nullptr;
    /// Receive requests remember their mailbox so cancel() can unpost them.
    Mailbox* mbox = nullptr;
};

/// A message on its way to a mailbox. `payload` views either bytes the
/// message owns through `storage` — a net frame (payload at a 40-byte
/// offset) for anything that may hit the wire, or a bare vector for frames
/// received from a peer — or, before own() runs, the sender's bytes: a plain
/// isend's borrowed buffer, or the frame of an isend_tx (`lent`).
struct PendingMsg {
    int source = 0;
    int tag = 0;
    net::FrameBuf storage;
    std::span<const std::byte> payload;
    net::FrameBuf lent;

    bool owned() const { return storage != nullptr; }

    /// Makes the message independent of the sender: a borrowed payload is
    /// copied once into a frame, a lent frame is adopted as-is — counted as
    /// the one staging copy it saves.
    void own(std::atomic<std::uint64_t>& copies_elided) {
        if (owned()) return;
        if (lent) {
            storage = std::move(lent);
            copies_elided.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        storage = net::make_frame(payload.data(), payload.size());
        payload = {storage->data() + net::kHeaderBytes, payload.size()};
    }
};

/// A message whose payload is still the sender's buffer.
inline PendingMsg borrowed(int source, int tag, const void* buf, std::size_t bytes) {
    return PendingMsg{source, tag, nullptr, {static_cast<const std::byte*>(buf), bytes}, nullptr};
}

struct PostedRecv {
    int source = kAnySource;
    int tag = kAnyTag;
    void* buf = nullptr;
    std::size_t capacity = 0;
    std::shared_ptr<RequestState> req;
    /// Zero-copy receive (irecv_view): delivery moves the message's storage
    /// here instead of memcpying into `buf` (which is null then).
    RxView* view = nullptr;
};

struct Mailbox {
    lockdep::Mutex m{"mpisim.mailbox"};
    std::deque<PendingMsg> unexpected;
    std::deque<PostedRecv> posted;
};

/// A message parked by the delivery scheduler until its release time.
struct DelayedMsg {
    std::int64_t release_ns = 0;
    std::uint64_t seq = 0;  // tie-breaker: preserves post order at equal release
    int dest = 0;
    PendingMsg msg;
};

/// The delivery scheduler's heap order: the earliest (release time, post
/// order) at the front.
struct ReleasesLater {
    bool operator()(const DelayedMsg& a, const DelayedMsg& b) const {
        return std::tie(a.release_ns, a.seq) > std::tie(b.release_ns, b.seq);
    }
};

/// Per-(src,dst,tag) stream bookkeeping. MPI's non-overtaking rule only
/// constrains messages of the same stream: while any message of a stream is
/// parked, later sends of that stream must queue behind it (release-time
/// clamped); messages of other streams may overtake freely.
struct StreamState {
    std::int64_t last_release_ns = 0;
    int inflight = 0;
};

struct CollectiveCtx {
    lockdep::Mutex m{"mpisim.coll"};
    std::condition_variable_any cv;
    int arrived = 0;
    std::uint64_t generation = 0;
    std::vector<const void*> ins;
    std::vector<void*> outs;
};

class WorldSink;

struct WorldState {
    int nranks = 0;
    std::vector<std::unique_ptr<Mailbox>> mailboxes;
    CollectiveCtx coll;

    WorldOptions opts;
    int local_rank = 0;
    bool is_distributed = false;
    std::atomic<int> lost_peer{-1};  // rank whose connection died uncleanly

    bool wire() const { return !endpoints.empty(); }

    // Completion "activity" broadcast used by wait_any and blocking waits.
    lockdep::Mutex activity_m{"mpisim.activity"};
    std::condition_variable_any activity_cv;
    std::uint64_t activity_seq = 0;

    std::atomic<bool> aborted{false};
    std::atomic<std::uint64_t> messages_delivered{0};
    std::atomic<std::uint64_t> bytes_delivered{0};
    /// Staging copies skipped by the zero-copy pack/unpack paths (isend_tx
    /// skipping the frame copy, view receives skipping the delivery memcpy).
    std::atomic<std::uint64_t> copies_elided{0};

    // Fault injection (null = fault-free fast path, identical to before).
    FaultInjector* faults = nullptr;
    lockdep::Mutex sched_m{"mpisim.sched"};
    std::condition_variable_any sched_cv;
    std::vector<DelayedMsg> sched_heap;  // min-heap by (release_ns, seq)
    std::map<std::tuple<int, int, int>, StreamState> streams;
    std::uint64_t sched_seq = 0;
    bool sched_shutdown = false;
    std::thread sched_thread;

#if defined(DFAMR_VERIFY)
    // Live wire-protocol validation (verify/mc/protocol.hpp): one checker
    // per endpoint, attached as its WireObserver. Declared before the
    // endpoints so the checkers outlive the reader/writer threads that
    // report frames into them; the verdict is read in ~World after the
    // endpoints (and their Bye exchange) are gone.
    std::vector<std::unique_ptr<verify::mc::WireChecker>> wire_checkers;
#endif

    // Transport. `endpoints` is empty for the in-process transport. On a
    // wire transport (Tcp or Shm) it holds one transport per rank (loopback
    // world) or a single transport at index local_rank (distributed world);
    // all other slots are null. Declared LAST: their progress threads call
    // into the sinks and from there into the mailboxes/activity_cv above,
    // so the transports must be destroyed (threads joined) before any other
    // member. `sinks` right before them, so sinks outlive those threads too.
    std::vector<std::unique_ptr<WorldSink>> sinks;
    std::vector<std::unique_ptr<net::Transport>> endpoints;

    void bump_activity() {
        {
            std::lock_guard lock(activity_m);
            ++activity_seq;
        }
        activity_cv.notify_all();
    }

    void check_aborted() const {
        if (aborted.load(std::memory_order_relaxed)) {
            throw Error("mpisim: world aborted (another rank failed)");
        }
    }
};

std::span<const void* const> ctx_inputs(const CollectiveCtx& ctx) {
    return {ctx.ins.data(), ctx.ins.size()};
}
std::span<void* const> ctx_outputs(const CollectiveCtx& ctx) {
    return {ctx.outs.data(), ctx.outs.size()};
}

namespace {

/// What a receive into a buffer smaller than its message raises.
[[noreturn]] void throw_truncation() {
    throw Error("message truncation: recv buffer too small");
}

void complete_request(const std::shared_ptr<RequestState>& req, const Status& st,
                      bool truncated = false) {
    {
        std::lock_guard lock(req->m);
        req->done = true;
        req->truncated = truncated;
        req->status = st;
    }
    req->cv.notify_all();
    req->world->bump_activity();
}

bool matches(int want_source, int want_tag, int have_source, int have_tag) {
    // A wildcard tag never matches reserved (protocol-internal) tags, so
    // wire-collective traffic can't leak into application receives.
    if (want_tag == kAnyTag && have_tag >= kReservedTagBase) return false;
    return (want_source == kAnySource || want_source == have_source) &&
           (want_tag == kAnyTag || want_tag == have_tag);
}

/// The first message of `mbox.unexpected` a receive for (source, tag)
/// matches, or end(). Caller holds mbox.m.
std::deque<PendingMsg>::iterator find_unexpected(Mailbox& mbox, int source, int tag) {
    return std::find_if(mbox.unexpected.begin(), mbox.unexpected.end(),
                        [&](const PendingMsg& m) { return matches(source, tag, m.source, m.tag); });
}

/// Counts a completed delivery and wakes the receive's waiters. Only
/// application messages count: the wire collectives' reserved-tag traffic
/// has no counterpart in an in-process world, whose counts must agree.
void complete_delivery(WorldState* world, const std::shared_ptr<RequestState>& req,
                       const Status& st) {
    if (st.tag < kReservedTagBase) {
        world->messages_delivered.fetch_add(1, std::memory_order_relaxed);
        world->bytes_delivered.fetch_add(st.bytes, std::memory_order_relaxed);
    }
    complete_request(req, st);
}

/// Hands a message to the destination mailbox: matches the first posted
/// receive it fits or parks it in the unexpected queue. Serves local sends
/// (whose payload may still be the sender's), wire arrivals and scheduler
/// releases alike.
void deliver_msg(WorldState* world, int dest, PendingMsg&& msg) {
    Mailbox& mbox = *world->mailboxes[static_cast<std::size_t>(dest)];
    std::shared_ptr<RequestState> matched_recv;
    Status matched_status;
    bool truncated = false;
    {
        std::lock_guard lock(mbox.m);
        auto it = std::find_if(mbox.posted.begin(), mbox.posted.end(), [&](const PostedRecv& r) {
            return matches(r.source, r.tag, msg.source, msg.tag);
        });
        if (it == mbox.posted.end()) {
            msg.own(world->copies_elided);
            mbox.unexpected.push_back(std::move(msg));
            return;
        }
        if (msg.payload.size() > it->capacity) {
            // The receive fails, and its owner's wait or test raises the
            // error: raising here would throw on whichever thread delivers,
            // which for a wire arrival is the transport's receive thread.
            truncated = true;
            if (it->view == nullptr && it->capacity > 0) DFAMR_WIRE_UNREGISTER(it->buf);
        } else if (it->view != nullptr) {
            // Zero-copy receive: hand over the message's own storage — no
            // landing-zone write at all, so no wire-region check. A message
            // that was already buffered skips the copy out of that buffer.
            if (msg.owned()) {
                world->copies_elided.fetch_add(1, std::memory_order_relaxed);
            } else {
                msg.own(world->copies_elided);
            }
            it->view->storage = std::move(msg.storage);
            it->view->payload = msg.payload;
        } else {
            if (!msg.payload.empty()) {
                // Wire-path write into a posted buffer: validate against the
                // in-flight region registry before touching the bytes. This
                // may run on a transport progress thread or the delivery
                // scheduler — outside any task body, invisible to the
                // per-thread declared-region table.
                DFAMR_CHECK_WIRE_WRITE(it->buf, msg.payload.size());
                std::memcpy(it->buf, msg.payload.data(), msg.payload.size());
            }
            if (it->capacity > 0) DFAMR_WIRE_UNREGISTER(it->buf);
        }
        matched_recv = it->req;
        matched_status = Status{msg.source, msg.tag, msg.payload.size()};
        mbox.posted.erase(it);
    }
    if (truncated) {
        complete_request(matched_recv, matched_status, /*truncated=*/true);
    } else {
        complete_delivery(world, matched_recv, matched_status);
    }
}

/// Sends a message eagerly where it belongs: the local mailbox for the
/// in-process transport or a self-send, the wire otherwise.
void route_msg(WorldState* world, int dest, PendingMsg&& msg) {
    if (world->wire() && dest != msg.source) {
        msg.own(world->copies_elided);
        net::Transport* ep = world->endpoints[static_cast<std::size_t>(msg.source)].get();
        ep->send_eager(dest, msg.tag, std::move(msg.storage));
        return;
    }
    deliver_msg(world, dest, std::move(msg));
}

/// Parks a message with the delivery scheduler when the fault injector
/// delays it, or when an earlier message of its stream is still parked
/// (non-overtaking). Returns false when the message may go out now.
bool schedule_msg(WorldState* world, int dest, std::int64_t delay_ns, PendingMsg& msg) {
    {
        std::lock_guard lock(world->sched_m);
        const auto key = std::make_tuple(msg.source, dest, msg.tag);
        if (delay_ns <= 0 && world->streams.find(key) == world->streams.end()) return false;
        StreamState& stream = world->streams[key];
        const std::int64_t release = std::max(steady_now_ns() + delay_ns, stream.last_release_ns);
        stream.last_release_ns = release;
        ++stream.inflight;
        msg.own(world->copies_elided);
        world->sched_heap.push_back(DelayedMsg{release, world->sched_seq++, dest, std::move(msg)});
        std::push_heap(world->sched_heap.begin(), world->sched_heap.end(), ReleasesLater{});
    }
    world->sched_cv.notify_one();
    return true;
}

/// Delivery-scheduler thread body: releases parked messages in (release
/// time, post order). Runs only in worlds with a fault injector. Released
/// messages always travel eagerly: their payload is already buffered, so
/// the rendezvous handshake would buy nothing.
void scheduler_loop(WorldState* world) {
    std::unique_lock lock(world->sched_m);
    for (;;) {
        if (world->sched_heap.empty()) {
            if (world->sched_shutdown) return;
            world->sched_cv.wait(lock);
            continue;
        }
        const std::int64_t now = steady_now_ns();
        const std::int64_t next = world->sched_heap.front().release_ns;
        // On shutdown remaining messages are flushed immediately: nothing
        // may be waiting on them anymore, and dropping them silently would
        // skew the delivery counters tests rely on.
        if (next > now && !world->sched_shutdown) {
            world->sched_cv.wait_for(lock, std::chrono::nanoseconds(next - now));
            continue;
        }
        std::pop_heap(world->sched_heap.begin(), world->sched_heap.end(), ReleasesLater{});
        DelayedMsg dm = std::move(world->sched_heap.back());
        world->sched_heap.pop_back();
        lock.unlock();
        const auto key = std::make_tuple(dm.msg.source, dm.dest, dm.msg.tag);
        route_msg(world, dm.dest, std::move(dm.msg));
        lock.lock();
        auto it = world->streams.find(key);
        if (it != world->streams.end() && --it->second.inflight == 0) {
            world->streams.erase(it);
        }
    }
}

}  // namespace

/// Bridges a rank's net::Endpoint into the matching machinery: a received
/// frame becomes a PendingMsg and takes the exact same deliver path as a
/// local send. An unclean peer loss aborts the world.
class WorldSink : public net::Sink {
public:
    WorldSink(WorldState* world, int owner_rank) : world_(world), owner_(owner_rank) {}

    void deliver(int src, int tag, net::FrameBuf storage,
                 std::span<const std::byte> payload) override {
        deliver_msg(world_, owner_, PendingMsg{src, tag, std::move(storage), payload, nullptr});
    }

    void peer_gone(int peer, bool clean) override {
        if (clean) return;  // orderly Bye during teardown
        world_->lost_peer.store(peer, std::memory_order_relaxed);
        world_->aborted.store(true, std::memory_order_relaxed);
        world_->bump_activity();
    }

private:
    WorldState* world_;
    int owner_;
};

}  // namespace detail

// ---- Request -------------------------------------------------------------

bool Request::test(Status* status) const {
    DFAMR_REQUIRE(state_ != nullptr, "test on null request");
    std::lock_guard lock(state_->m);
    if (state_->truncated) detail::throw_truncation();
    if (state_->done && status != nullptr) *status = state_->status;
    return state_->done;
}

void Request::wait(Status* status) const {
    DFAMR_REQUIRE(state_ != nullptr, "wait on null request");
    std::unique_lock lock(state_->m);
    while (!state_->done) {
        state_->cv.wait_for(lock, detail::kAbortPollInterval);
        if (!state_->done) state_->world->check_aborted();
    }
    if (state_->truncated) detail::throw_truncation();
    if (status != nullptr) *status = state_->status;
}

bool Request::wait_for(std::int64_t timeout_ns, Status* status) const {
    DFAMR_REQUIRE(state_ != nullptr, "wait_for on null request");
    const std::int64_t deadline = detail::steady_now_ns() + timeout_ns;
    std::unique_lock lock(state_->m);
    while (!state_->done) {
        const std::int64_t now = detail::steady_now_ns();
        if (now >= deadline) return false;
        const auto step = std::min<std::int64_t>(
            deadline - now,
            std::chrono::duration_cast<std::chrono::nanoseconds>(detail::kAbortPollInterval)
                .count());
        state_->cv.wait_for(lock, std::chrono::nanoseconds(step));
        if (!state_->done) state_->world->check_aborted();
    }
    if (state_->truncated) detail::throw_truncation();
    if (status != nullptr) *status = state_->status;
    return true;
}

bool Request::cancel() const {
    DFAMR_REQUIRE(state_ != nullptr, "cancel on null request");
    detail::Mailbox* mbox = state_->mbox;
    if (mbox == nullptr) return false;  // sends complete eagerly: nothing to cancel
    {
        std::lock_guard lock(mbox->m);
        auto it = mbox->posted.begin();
        for (; it != mbox->posted.end(); ++it) {
            if (it->req == state_) break;
        }
        if (it == mbox->posted.end()) return false;  // already matched/completed
        if (it->view == nullptr && it->capacity > 0) DFAMR_WIRE_UNREGISTER(it->buf);
        mbox->posted.erase(it);
    }
    detail::complete_request(state_, Status{kUndefined, kUndefined, 0, /*ok=*/false});
    return true;
}

void wait_all(std::span<Request> reqs) {
    for (Request& r : reqs) {
        if (r.valid()) {
            r.wait();
            r.state_.reset();
        }
    }
}

int wait_any_for(std::span<Request> reqs, std::int64_t timeout_ns, Status* status) {
    detail::WorldState* world = nullptr;
    for (const Request& r : reqs) {
        if (r.valid()) {
            world = r.state_->world;
            break;
        }
    }
    if (world == nullptr) return kUndefined;
    const std::int64_t deadline = detail::steady_now_ns() + timeout_ns;

    for (;;) {
        std::uint64_t seq;
        {
            std::lock_guard lock(world->activity_m);
            seq = world->activity_seq;
        }
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (reqs[i].valid() && reqs[i].test(status)) {
                reqs[i].state_.reset();
                return static_cast<int>(i);
            }
        }
        const std::int64_t now = detail::steady_now_ns();
        if (now >= deadline) {
            // An aborted world must surface as RankError, never as a benign
            // timeout — otherwise the caller would retry into a dead world.
            // (The abort may arrive via a transport progress thread, so this
            // path is reachable on both transports.)
            world->check_aborted();
            return kTimeout;
        }
        const auto step = std::min<std::int64_t>(
            deadline - now,
            std::chrono::duration_cast<std::chrono::nanoseconds>(detail::kAbortPollInterval)
                .count());
        std::unique_lock lock(world->activity_m);
        world->activity_cv.wait_for(lock, std::chrono::nanoseconds(step),
                                    [&] { return world->activity_seq != seq; });
        lock.unlock();
        world->check_aborted();
    }
}

int wait_any(std::span<Request> reqs, Status* status) {
    detail::WorldState* world = nullptr;
    bool any_valid = false;
    for (const Request& r : reqs) {
        if (r.valid()) {
            any_valid = true;
            world = r.state_->world;
            break;
        }
    }
    if (!any_valid) return kUndefined;

    for (;;) {
        std::uint64_t seq;
        {
            std::lock_guard lock(world->activity_m);
            seq = world->activity_seq;
        }
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (reqs[i].valid() && reqs[i].test(status)) {
                reqs[i].state_.reset();
                return static_cast<int>(i);
            }
        }
        std::unique_lock lock(world->activity_m);
        world->activity_cv.wait_for(lock, detail::kAbortPollInterval,
                                    [&] { return world->activity_seq != seq; });
        lock.unlock();
        world->check_aborted();
    }
}

// ---- Zero-copy buffers -----------------------------------------------------

TxBuffer make_tx_buffer(std::size_t bytes) {
    TxBuffer tx;
    tx.storage = net::make_empty_frame(bytes);
    tx.payload = {tx.storage->data() + net::kHeaderBytes, bytes};
    return tx;
}

// ---- Communicator: point-to-point -----------------------------------------

bool Communicator::aborted() const {
    return world_->aborted.load(std::memory_order_relaxed);
}

Request Communicator::isend(const void* buf, std::size_t bytes, int dest, int tag) {
    DFAMR_REQUIRE(tag >= 0 && tag < kReservedTagBase,
                  "isend: tag must be in [0, kReservedTagBase)");
    DFAMR_REQUIRE(0 <= dest && dest < size_, "isend: destination rank out of range");
    return post_send(detail::borrowed(rank_, tag, buf, bytes), dest, /*allow_fault=*/true);
}

Request Communicator::isend_tx(const TxBuffer& tx, int dest, int tag) {
    DFAMR_REQUIRE(tag >= 0 && tag < kReservedTagBase,
                  "isend_tx: tag must be in [0, kReservedTagBase)");
    DFAMR_REQUIRE(0 <= dest && dest < size_, "isend_tx: destination rank out of range");
    DFAMR_REQUIRE(tx.storage != nullptr && tx.storage->size() >= net::kHeaderBytes &&
                      tx.payload.data() == tx.storage->data() + net::kHeaderBytes &&
                      tx.payload.size() == tx.storage->size() - net::kHeaderBytes,
                  "isend_tx: buffer not from make_tx_buffer");
    return post_send(detail::PendingMsg{rank_, tag, nullptr, tx.payload, tx.storage}, dest,
                     /*allow_fault=*/true);
}

Request Communicator::post_send(detail::PendingMsg&& msg, int dest, bool allow_fault) {
    auto req = std::make_shared<detail::RequestState>();
    req->world = world_;
    const int tag = msg.tag;
    const std::size_t bytes = msg.payload.size();

    if (allow_fault && world_->faults != nullptr) {
        const FaultAction act = world_->faults->on_send(rank_, dest, tag);
        if (act.stall_ns > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(act.stall_ns));
        }
        if (act.crash) {
            throw Error("mpisim: injected crash at rank " + std::to_string(rank_));
        }
        if (act.drop) {
            // Transient delivery failure: the payload vanishes before it
            // reaches the wire or mailbox (a TxBuffer stays untouched, so a
            // retry may re-post it); the sender learns synchronously via
            // status.ok. Identical on every transport by construction.
            detail::complete_request(req, Status{rank_, tag, bytes, /*ok=*/false});
            return Request(std::move(req));
        }
        if (detail::schedule_msg(world_, dest, act.delay_ns, msg)) {
            detail::complete_request(req, Status{rank_, tag, bytes});
            return Request(std::move(req));
        }
        // No delay on this attempt and nothing parked ahead of it: take the
        // direct path, which buffers at most once (or not at all when a
        // receive is waiting).
    }

    net::Transport* ep =
        world_->wire() && dest != rank_ ? world_->endpoints[static_cast<std::size_t>(rank_)].get()
                                        : nullptr;
    if (ep != nullptr && bytes >= ep->rendezvous_threshold()) {
        // The request completes when the granted Data frame is handed off
        // (from the transport's writer or progress thread).
        msg.own(world_->copies_elided);
        ep->send_rendezvous(dest, tag, std::move(msg.storage), [req, src = rank_, tag, bytes] {
            detail::complete_request(req, Status{src, tag, bytes});
        });
        return Request(std::move(req));
    }
    // Eager transfer: once the payload is on the wire or in the mailbox, the
    // send is complete.
    detail::route_msg(world_, dest, std::move(msg));
    detail::complete_request(req, Status{rank_, tag, bytes});
    return Request(std::move(req));
}

Request Communicator::irecv(void* buf, std::size_t bytes, int source, int tag) {
    DFAMR_REQUIRE(tag == kAnyTag || (tag >= 0 && tag < kReservedTagBase),
                  "irecv: tag must be kAnyTag or in [0, kReservedTagBase)");
    DFAMR_REQUIRE(source == kAnySource || (0 <= source && source < size_),
                  "irecv: source rank out of range");
    return post_recv(buf, nullptr, bytes, source, tag);
}

Request Communicator::irecv_view(RxView* view, std::size_t capacity, int source, int tag) {
    DFAMR_REQUIRE(view != nullptr, "irecv_view: null view");
    DFAMR_REQUIRE(tag == kAnyTag || (tag >= 0 && tag < kReservedTagBase),
                  "irecv_view: tag must be kAnyTag or in [0, kReservedTagBase)");
    DFAMR_REQUIRE(source == kAnySource || (0 <= source && source < size_),
                  "irecv_view: source rank out of range");
    return post_recv(nullptr, view, capacity, source, tag);
}

Request Communicator::post_recv(void* buf, RxView* view, std::size_t capacity, int source,
                                int tag) {
    auto req = std::make_shared<detail::RequestState>();
    req->world = world_;
    detail::Mailbox& mbox = *world_->mailboxes[static_cast<std::size_t>(rank_)];
    req->mbox = &mbox;
    Status st;
    {
        std::lock_guard lock(mbox.m);
        auto it = detail::find_unexpected(mbox, source, tag);
        if (it == mbox.unexpected.end()) {
            // A buffer is now an in-flight wire landing zone: register it so
            // delivery-path writes (which run on transport threads, not under
            // this task's declared regions) are bounds-checked. A view has no
            // landing zone: delivery hands over the frame.
            if (view == nullptr) DFAMR_WIRE_REGISTER(buf, capacity, "mpisim.irecv");
            mbox.posted.push_back(detail::PostedRecv{source, tag, buf, capacity, req, view});
            return Request(std::move(req));
        }
        if (it->payload.size() > capacity) detail::throw_truncation();
        if (view != nullptr) {
            // The parked message is buffered already: hand the buffer over
            // instead of copying out of it.
            view->storage = std::move(it->storage);
            view->payload = it->payload;
            world_->copies_elided.fetch_add(1, std::memory_order_relaxed);
        } else if (!it->payload.empty()) {
            std::memcpy(buf, it->payload.data(), it->payload.size());
        }
        st = Status{it->source, it->tag, it->payload.size()};
        mbox.unexpected.erase(it);
    }
    detail::complete_delivery(world_, req, st);
    return Request(std::move(req));
}

void Communicator::send(const void* buf, std::size_t bytes, int dest, int tag) {
    isend(buf, bytes, dest, tag).wait();
}

void Communicator::recv(void* buf, std::size_t bytes, int source, int tag, Status* status) {
    irecv(buf, bytes, source, tag).wait(status);
}

bool Communicator::iprobe(int source, int tag, Status* status) {
    detail::Mailbox& mbox = *world_->mailboxes[static_cast<std::size_t>(rank_)];
    std::lock_guard lock(mbox.m);
    auto it = detail::find_unexpected(mbox, source, tag);
    if (it == mbox.unexpected.end()) return false;
    if (status != nullptr) *status = Status{it->source, it->tag, it->payload.size()};
    return true;
}

void Communicator::abandon_posted_recvs() {
    detail::Mailbox& mbox = *world_->mailboxes[static_cast<std::size_t>(rank_)];
    std::deque<detail::PostedRecv> orphans;
    {
        std::lock_guard lock(mbox.m);
        orphans.swap(mbox.posted);
        for (const detail::PostedRecv& p : orphans) {
            if (p.view == nullptr && p.capacity > 0) DFAMR_WIRE_UNREGISTER(p.buf);
        }
    }
    // Complete outside the mailbox lock (waiters take the request lock).
    for (const detail::PostedRecv& p : orphans) {
        detail::complete_request(p.req, Status{kUndefined, kUndefined, 0, /*ok=*/false});
    }
}

// ---- Communicator: collectives ---------------------------------------------

void Communicator::collective(const void* in, std::size_t in_bytes, void* out,
                              std::size_t out_bytes,
                              const std::function<void(detail::CollectiveCtx&)>& combine) {
    if (world_->wire()) {
        collective_wire(in, in_bytes, out, out_bytes, combine);
        return;
    }
    detail::CollectiveCtx& ctx = world_->coll;
    std::unique_lock lock(ctx.m);
    ctx.ins[static_cast<std::size_t>(rank_)] = in;
    ctx.outs[static_cast<std::size_t>(rank_)] = out;
    const std::uint64_t gen = ctx.generation;
    if (++ctx.arrived == size_) {
        if (combine) combine(ctx);
        ctx.arrived = 0;
        ++ctx.generation;
        ctx.cv.notify_all();
    } else {
        while (ctx.generation == gen) {
            ctx.cv.wait_for(lock, detail::kAbortPollInterval);
            if (ctx.generation == gen) world_->check_aborted();
        }
    }
}

// Wire collectives: rank 0 coordinates. Every other rank contributes a
// 16-byte size announcement ([in_bytes, out_bytes]) followed, when
// in_bytes > 0, by its input payload on the same reserved-tag stream (FIFO
// order guarantees the pair arrives intact). Rank 0 materializes a local
// CollectiveCtx — gathered inputs, scratch outputs sized as announced — and
// runs the exact same combine closure the in-process path runs, then sends
// every rank its result. A zero-byte result frame still flows, which is
// what makes barrier (and every collective) a synchronization point.
void Communicator::collective_wire(const void* in, std::size_t in_bytes, void* out,
                                   std::size_t out_bytes,
                                   const std::function<void(detail::CollectiveCtx&)>& combine) {
    constexpr int kCollGather = kReservedTagBase + 1;
    constexpr int kCollResult = kReservedTagBase + 2;
    if (rank_ != 0) {
        std::uint64_t sizes[2] = {in_bytes, out_bytes};
        post_send(detail::borrowed(rank_, kCollGather, sizes, sizeof sizes), 0, false).wait();
        if (in_bytes > 0) {
            post_send(detail::borrowed(rank_, kCollGather, in, in_bytes), 0, false).wait();
        }
        post_recv(out_bytes > 0 ? out : nullptr, nullptr, out_bytes, 0, kCollResult).wait();
        return;
    }
    const std::size_t n = static_cast<std::size_t>(size_);
    std::vector<std::uint64_t> peer_in(n, 0), peer_out(n, 0);
    std::vector<std::vector<std::byte>> gathered(n);
    peer_in[0] = in_bytes;
    peer_out[0] = out_bytes;
    for (int r = 1; r < size_; ++r) {
        std::uint64_t sizes[2] = {0, 0};
        post_recv(sizes, nullptr, sizeof sizes, r, kCollGather).wait();
        peer_in[static_cast<std::size_t>(r)] = sizes[0];
        peer_out[static_cast<std::size_t>(r)] = sizes[1];
        if (sizes[0] > 0) {
            gathered[static_cast<std::size_t>(r)].resize(static_cast<std::size_t>(sizes[0]));
            post_recv(gathered[static_cast<std::size_t>(r)].data(), nullptr, sizes[0], r,
                      kCollGather)
                .wait();
        }
    }
    detail::CollectiveCtx ctx;
    ctx.ins.resize(n, nullptr);
    ctx.outs.resize(n, nullptr);
    std::vector<std::vector<std::byte>> scratch(n);
    ctx.ins[0] = in;
    ctx.outs[0] = out_bytes > 0 ? out : nullptr;
    for (int r = 1; r < size_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        ctx.ins[ri] = peer_in[ri] > 0 ? gathered[ri].data() : nullptr;
        if (peer_out[ri] > 0) {
            scratch[ri].resize(static_cast<std::size_t>(peer_out[ri]));
            ctx.outs[ri] = scratch[ri].data();
        }
    }
    if (combine) combine(ctx);
    for (int r = 1; r < size_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        post_send(detail::borrowed(rank_, kCollResult, scratch[ri].data(), scratch[ri].size()), r,
                  /*allow_fault=*/false)
            .wait();
    }
}

void Communicator::barrier() { collective(nullptr, 0, nullptr, 0, {}); }

void Communicator::bcast(void* buf, std::size_t bytes, int root) {
    DFAMR_REQUIRE(0 <= root && root < size_, "bcast: root out of range");
    collective(buf, rank_ == root ? bytes : 0, buf, rank_ == root ? 0 : bytes,
               [bytes, root, this](detail::CollectiveCtx& ctx) {
        const void* src = ctx.ins[static_cast<std::size_t>(root)];
        for (int r = 0; r < size_; ++r) {
            if (r != root) std::memcpy(ctx.outs[static_cast<std::size_t>(r)], src, bytes);
        }
    });
}

void Communicator::allgather(const void* in, std::size_t bytes, void* out) {
    collective(in, bytes, out, static_cast<std::size_t>(size_) * bytes,
               [bytes, this](detail::CollectiveCtx& ctx) {
        for (int r = 0; r < size_; ++r) {
            auto* dst = static_cast<std::byte*>(ctx.outs[static_cast<std::size_t>(r)]);
            for (int s = 0; s < size_; ++s) {
                std::memcpy(dst + static_cast<std::size_t>(s) * bytes,
                            ctx.ins[static_cast<std::size_t>(s)], bytes);
            }
        }
    });
}

void Communicator::alltoall(const void* in, std::size_t bytes, void* out) {
    const std::size_t total = static_cast<std::size_t>(size_) * bytes;
    collective(in, total, out, total, [bytes, this](detail::CollectiveCtx& ctx) {
        for (int r = 0; r < size_; ++r) {
            auto* dst = static_cast<std::byte*>(ctx.outs[static_cast<std::size_t>(r)]);
            for (int s = 0; s < size_; ++s) {
                const auto* src = static_cast<const std::byte*>(ctx.ins[static_cast<std::size_t>(s)]);
                std::memcpy(dst + static_cast<std::size_t>(s) * bytes,
                            src + static_cast<std::size_t>(r) * bytes, bytes);
            }
        }
    });
}

// ---- World ----------------------------------------------------------------

World::World(int nranks, FaultInjector* faults) : World(nranks, WorldOptions{}, faults) {}

World::World(int nranks, const WorldOptions& options, FaultInjector* faults)
    : state_(std::make_unique<detail::WorldState>()) {
    DFAMR_REQUIRE(nranks >= 1, "world needs at least one rank");
    state_->nranks = nranks;
    state_->opts = options;
    state_->faults = faults;
    state_->mailboxes.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        state_->mailboxes.push_back(std::make_unique<detail::Mailbox>());
    }
    state_->coll.ins.resize(static_cast<std::size_t>(nranks), nullptr);
    state_->coll.outs.resize(static_cast<std::size_t>(nranks), nullptr);
    comms_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        comms_.push_back(Communicator(state_.get(), r, nranks));
    }

    const auto env = options.ignore_launch_env ? std::optional<net::LaunchEnv>{}
                                               : net::LaunchEnv::detect();
    const auto make_trace = [&](int rank) {
        net::ProgressTrace trace;
        if (options.progress_trace) {
            trace = [cb = options.progress_trace, rank](std::int64_t t0, std::int64_t t1) {
                cb(rank, t0, t1);
            };
        }
        return trace;
    };
    const auto attach_checker = [&](int rank) {
#if defined(DFAMR_VERIFY)
        state_->wire_checkers[static_cast<std::size_t>(rank)] =
            std::make_unique<verify::mc::WireChecker>(rank);
        state_->endpoints[static_cast<std::size_t>(rank)]->set_wire_observer(
            state_->wire_checkers[static_cast<std::size_t>(rank)].get());
#else
        (void)rank;
#endif
    };
    if (options.transport != TransportKind::Inproc) {
        state_->endpoints.resize(static_cast<std::size_t>(nranks));
        state_->sinks.resize(static_cast<std::size_t>(nranks));
#if defined(DFAMR_VERIFY)
        state_->wire_checkers.resize(static_cast<std::size_t>(nranks));
#endif
        if (env.has_value()) {
            DFAMR_REQUIRE(env->nranks == nranks,
                          "mpisim: world size " + std::to_string(nranks) +
                              " does not match DFAMR_NRANKS=" + std::to_string(env->nranks));
            state_->is_distributed = true;
            state_->local_rank = env->rank;
        }
    }
    if (options.transport == TransportKind::Tcp) {
        const auto make_endpoint = [&](int rank) {
            state_->sinks[static_cast<std::size_t>(rank)] =
                std::make_unique<detail::WorldSink>(state_.get(), rank);
            auto ep = std::make_unique<net::Endpoint>(
                rank, nranks, options.rendezvous_threshold,
                state_->sinks[static_cast<std::size_t>(rank)].get(), make_trace(rank),
                options.coalesce);
            net::Endpoint* raw = ep.get();
            state_->endpoints[static_cast<std::size_t>(rank)] = std::move(ep);
            attach_checker(rank);
            return raw;
        };
        if (env.has_value()) {
            // Distributed world: one rank in this process; the launcher's
            // exchange server brokers the address table.
            net::Endpoint* ep = make_endpoint(env->rank);
            const std::vector<net::HostPort> table =
                net::exchange_addresses(*env, ep->listen_port());
            ep->connect_mesh(table);
        } else {
            // Loopback world: every rank is a thread here, each with a real
            // TCP endpoint on localhost. Meshing must run concurrently (rank
            // r blocks accepting from ranks > r while dialing ranks < r).
            std::vector<net::Endpoint*> eps;
            eps.reserve(static_cast<std::size_t>(nranks));
            for (int r = 0; r < nranks; ++r) eps.push_back(make_endpoint(r));
            std::vector<net::HostPort> table(static_cast<std::size_t>(nranks));
            for (int r = 0; r < nranks; ++r) {
                table[static_cast<std::size_t>(r)] =
                    net::HostPort{"127.0.0.1", eps[static_cast<std::size_t>(r)]->listen_port()};
            }
            std::vector<std::thread> meshers;
            meshers.reserve(static_cast<std::size_t>(nranks));
            for (int r = 0; r < nranks; ++r) {
                meshers.emplace_back([r, &table, &eps] {
                    eps[static_cast<std::size_t>(r)]->connect_mesh(table);
                });
            }
            for (auto& t : meshers) t.join();
        }
    } else if (options.transport == TransportKind::Shm) {
        // Namespace: explicit option, launcher-provided env, or a per-world
        // name for loopback (pid + counter keeps concurrent worlds apart).
        std::string ns = options.shm_ns;
        if (ns.empty()) {
            if (const char* e = std::getenv("DFAMR_SHM_NS"); e != nullptr && *e != '\0') {
                ns = e;
            } else {
                static std::atomic<std::uint64_t> next_world{0};
                ns = "loop" + std::to_string(static_cast<long>(::getpid())) + "x" +
                     std::to_string(next_world.fetch_add(1, std::memory_order_relaxed));
            }
        }
        const std::uint32_t ring_bytes = net::shm_ring_bytes_from_env();
        const auto make_shm = [&](int rank) {
            state_->sinks[static_cast<std::size_t>(rank)] =
                std::make_unique<detail::WorldSink>(state_.get(), rank);
            net::ShmOptions sopts;
            sopts.rank = rank;
            sopts.nranks = nranks;
            sopts.rendezvous_threshold = options.rendezvous_threshold;
            sopts.ring_bytes = ring_bytes;
            sopts.ns = ns;
            sopts.coalesce = options.coalesce;
            sopts.trace = make_trace(rank);
            auto tp = std::make_unique<net::ShmTransport>(
                sopts, state_->sinks[static_cast<std::size_t>(rank)].get());
            net::ShmTransport* raw = tp.get();
            state_->endpoints[static_cast<std::size_t>(rank)] = std::move(tp);
            attach_checker(rank);
            return raw;
        };
        if (env.has_value()) {
            // Distributed world: the exchange round trip doubles as the
            // barrier proving every rank created its outbound segments.
            net::ShmTransport* tp = make_shm(env->rank);
            (void)net::exchange_addresses(*env, 0);
            tp->open_peers();
        } else {
            // Loopback world: sequential construction IS the barrier.
            std::vector<net::ShmTransport*> tps;
            tps.reserve(static_cast<std::size_t>(nranks));
            for (int r = 0; r < nranks; ++r) tps.push_back(make_shm(r));
            for (net::ShmTransport* tp : tps) tp->open_peers();
        }
    } else {
        DFAMR_REQUIRE(!env.has_value(),
                      "mpisim: launched by dfamr_mpirun (DFAMR_RANK is set) but the transport "
                      "is inproc; pass --transport tcp/shm or set ignore_launch_env");
    }

    if (faults != nullptr) {
        state_->sched_thread = std::thread(detail::scheduler_loop, state_.get());
    }
}

World::~World() {
    if (state_->sched_thread.joinable()) {
        {
            std::lock_guard lock(state_->sched_m);
            state_->sched_shutdown = true;
        }
        state_->sched_cv.notify_all();
        state_->sched_thread.join();
    }
#if defined(DFAMR_VERIFY)
    // Tear the transport down now (joins the reader/writer threads and
    // completes the Bye exchange), then read the wire-protocol verdict.
    state_->endpoints.clear();
    const bool clean_world = state_->lost_peer.load(std::memory_order_relaxed) < 0 &&
                             !state_->aborted.load(std::memory_order_relaxed);
    bool dirty = false;
    for (const auto& chk : state_->wire_checkers) {
        if (!chk) continue;
        for (const std::string& v : chk->violations()) {
            std::fprintf(stderr, "mpisim wire-protocol violation: %s\n", v.c_str());
            dirty = true;
        }
        if (clean_world) {
            // A killed peer legitimately strands its in-flight rendezvous
            // transfers; a clean world must not.
            for (const std::string& p : chk->pending()) {
                std::fprintf(stderr, "mpisim wire-protocol leak: %s\n", p.c_str());
                dirty = true;
            }
        }
    }
    if (dirty) {
        std::fprintf(stderr, "mpisim: wire-protocol verification failed — aborting\n");
        std::abort();
    }
#endif
}

int World::size() const { return state_->nranks; }

Communicator& World::comm(int rank) {
    DFAMR_REQUIRE(0 <= rank && rank < state_->nranks, "rank out of range");
    DFAMR_REQUIRE(!state_->is_distributed || rank == state_->local_rank,
                  "comm: rank " + std::to_string(rank) + " lives in another process");
    return comms_[static_cast<std::size_t>(rank)];
}

bool World::distributed() const { return state_->is_distributed; }

int World::local_rank() const { return state_->is_distributed ? state_->local_rank : 0; }

net::NetCounters World::net_counters() const {
    net::NetCounters total;
    for (const auto& ep : state_->endpoints) {
        if (ep) total += ep->counters();
    }
    // Elisions happen in mpisim's matching layer (and on in-process fast
    // paths), not inside any one transport.
    total.copies_elided += state_->copies_elided.load(std::memory_order_relaxed);
    return total;
}

std::vector<net::PeerStats> World::peer_net_counters() const {
    std::vector<net::PeerStats> total(static_cast<std::size_t>(state_->nranks));
    for (const auto& ep : state_->endpoints) {
        if (!ep) continue;
        const std::vector<net::PeerStats> peers = ep->peer_counters();
        for (std::size_t p = 0; p < peers.size() && p < total.size(); ++p) {
            total[p] += peers[p];
        }
    }
    return total;
}

void World::run(const std::function<void(Communicator&)>& rank_main) {
    std::mutex error_mutex;
    std::exception_ptr first_error;

    // A distributed world hosts exactly one rank; its siblings run the same
    // rank_main in their own processes.
    const int first_rank = state_->is_distributed ? state_->local_rank : 0;
    const int last_rank = state_->is_distributed ? state_->local_rank + 1 : state_->nranks;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(last_rank - first_rank));
    for (int r = first_rank; r < last_rank; ++r) {
        threads.emplace_back([this, r, &rank_main, &error_mutex, &first_error] {
            const auto record = [&](std::exception_ptr err) {
                {
                    std::lock_guard lock(error_mutex);
                    if (!first_error) first_error = std::move(err);
                }
                state_->aborted.store(true, std::memory_order_relaxed);
                state_->bump_activity();
            };
            try {
                rank_main(comm(r));
            } catch (const RankError&) {
                record(std::current_exception());  // already annotated
            } catch (const std::exception& e) {
                record(std::make_exception_ptr(RankError(r, e.what())));
            } catch (...) {
                record(std::current_exception());
            }
        });
    }
    for (auto& t : threads) t.join();
    state_->aborted.store(false, std::memory_order_relaxed);
    if (first_error) std::rethrow_exception(first_error);
    const int lost = state_->lost_peer.load(std::memory_order_relaxed);
    if (lost >= 0) {
        throw RankError(state_->local_rank,
                        "connection to rank " + std::to_string(lost) +
                            " lost (peer process died without a Bye)");
    }
}

std::uint64_t World::messages_delivered() const {
    return state_->messages_delivered.load(std::memory_order_relaxed);
}

std::uint64_t World::bytes_delivered() const {
    return state_->bytes_delivered.load(std::memory_order_relaxed);
}

}  // namespace dfamr::mpi
