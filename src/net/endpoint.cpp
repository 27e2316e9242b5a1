#include "net/endpoint.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/timing.hpp"

namespace dfamr::net {

namespace {

// Writes a whole buffer to a non-blocking socket, parking in poll(POLLOUT)
// whenever the kernel buffer is full. Returns false if the peer is gone.
bool write_frame(const Socket& s, std::span<const std::byte> buf) {
    std::size_t sent = 0;
    while (sent < buf.size()) {
        const ssize_t n = ::send(s.fd(), buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            pollfd pfd{s.fd(), POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            continue;
        }
        return false;  // EPIPE / ECONNRESET: peer died
    }
    return true;
}

// Scatter-gather variant of write_frame: sends every iovec in order,
// consuming entries as the kernel accepts bytes. Mutates `iov`.
bool write_vectored(const Socket& s, std::vector<iovec>& iov) {
    std::size_t idx = 0;
    while (idx < iov.size()) {
        msghdr msg{};
        msg.msg_iov = iov.data() + idx;
        msg.msg_iovlen = iov.size() - idx;
        const ssize_t n = ::sendmsg(s.fd(), &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{s.fd(), POLLOUT, 0};
                ::poll(&pfd, 1, 100);
                continue;
            }
            return false;
        }
        std::size_t left = static_cast<std::size_t>(n);
        while (idx < iov.size() && left >= iov[idx].iov_len) {
            left -= iov[idx].iov_len;
            ++idx;
        }
        if (idx < iov.size() && left > 0) {
            iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
            iov[idx].iov_len -= left;
        }
    }
    return true;
}

// Alignment padding between coalesced sub-payloads (at most 7 bytes).
constexpr std::array<std::byte, kSubMsgAlign> kZeroPad{};

}  // namespace

Endpoint::Endpoint(int rank, int nranks, std::size_t rendezvous_threshold, Sink* sink,
                   ProgressTrace trace, bool coalesce)
    : FramedTransport(rank, nranks, rendezvous_threshold, sink),
      trace_(std::move(trace)),
      coalesce_(coalesce) {
    auto [sock, port] = listen_on("0.0.0.0", 0, nranks + 8);
    listener_ = std::move(sock);
    listen_port_ = port;
    conns_.reserve(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) conns_.push_back(std::make_unique<Connection>());
    DFAMR_REQUIRE(::pipe(wake_pipe_) == 0, "net: pipe() failed");
    const int flags = ::fcntl(wake_pipe_[0], F_GETFL, 0);
    DFAMR_REQUIRE(flags >= 0 && ::fcntl(wake_pipe_[0], F_SETFL, flags | O_NONBLOCK) == 0,
                  "net: pipe fcntl failed");
}

Endpoint::~Endpoint() {
    if (mesh_started_) {
        // 1. Let in-flight rendezvous transfers finish.
        drain_rendezvous();
        // 2. Say goodbye, then drain the write queue and stop the writer.
        for (auto& c : conns_) {
            if (c->peer != rank_ && c->open.load()) {
                enqueue(c->peer, header_only_frame(FrameKind::Bye));
            }
        }
        {
            std::lock_guard lk(write_m_);
            writer_shutdown_ = true;
        }
        write_cv_.notify_all();
        if (writer_.joinable()) writer_.join();
        // 3. Stop the reader.
        reader_stop_.store(true, std::memory_order_release);
        wake_reader();
        if (reader_.joinable()) reader_.join();
    }
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Endpoint::connect_mesh(const std::vector<HostPort>& table) {
    DFAMR_REQUIRE(!mesh_started_, "net: connect_mesh called twice");
    DFAMR_REQUIRE(static_cast<int>(table.size()) == nranks_, "net: bad address table");
    std::uint64_t retries = 0;
    // Dial every lower rank and identify ourselves with a Hello frame.
    for (int peer = 0; peer < rank_; ++peer) {
        Socket s = dial(table[static_cast<std::size_t>(peer)], /*attempts=*/250, &retries);
        const FrameHeader hello = make_header(FrameKind::Hello);
        std::array<std::byte, kHeaderBytes> buf;
        encode_header(hello, buf.data());
        if (observer_ != nullptr) observer_->on_frame_sent(peer, hello);
        write_all(s, buf);
        count_sent(peer, kHeaderBytes);
        auto& c = *conns_[static_cast<std::size_t>(peer)];
        c.peer = peer;
        c.sock = std::move(s);
        c.open.store(true);
    }
    // Accept from every higher rank; the Hello tells us who dialed.
    for (int i = rank_ + 1; i < nranks_; ++i) {
        Socket s = accept_one(listener_);
        std::array<std::byte, kHeaderBytes> buf;
        DFAMR_REQUIRE(read_exactly(s, buf), "net: EOF before Hello");
        const FrameHeader hello = decode_header(buf);
        DFAMR_REQUIRE(hello.magic == kWireMagic && hello.kind == FrameKind::Hello,
                      "net: bad Hello frame");
        DFAMR_REQUIRE(hello.src > rank_ && hello.src < nranks_, "net: Hello from bad rank");
        auto& c = *conns_[static_cast<std::size_t>(hello.src)];
        DFAMR_REQUIRE(!c.open.load(), "net: duplicate Hello from rank " + std::to_string(hello.src));
        // The Hello is the first frame of the peer's stream: decode it there.
        std::memcpy(read_target(hello.src).data(), buf.data(), kHeaderBytes);
        on_read(hello.src, kHeaderBytes);
        c.peer = hello.src;
        c.sock = std::move(s);
        c.open.store(true);
    }
    count_reconnects(retries);
    for (auto& c : conns_) {
        if (c->open.load()) {
            c->sock.set_nonblocking(true);
            c->sock.set_nodelay(true);
        }
    }
    mesh_started_ = true;
    reader_ = std::thread([this] { reader_loop(); });
    writer_ = std::thread([this] { writer_loop(); });
}

void Endpoint::enqueue(int dest, FrameBuf frame, std::function<void()> on_written) {
    {
        std::lock_guard lk(write_m_);
        write_q_.push_back(QueuedWrite{dest, std::move(frame), std::move(on_written)});
    }
    write_cv_.notify_one();
}

void Endpoint::wake_reader() {
    const char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

std::vector<Endpoint::QueuedWrite> Endpoint::pop_write_batch(
    std::unique_lock<lockdep::Mutex>& /*held write_m_*/) {
    std::vector<QueuedWrite> batch;
    batch.push_back(std::move(write_q_.front()));
    write_q_.pop_front();
    if (!coalesce_) return batch;
    const FrameHeader head = decode_header({batch.front().frame->data(), kHeaderBytes});
    if (head.kind != FrameKind::Eager) return batch;
    const int dest = batch.front().dest;
    std::size_t total = batch.front().frame->size() - kHeaderBytes;
    for (auto it = write_q_.begin();
         it != write_q_.end() && batch.size() < kMaxCoalesceMsgs && total < kMaxCoalesceBytes;) {
        if (it->dest != dest) {
            ++it;  // other destinations are independent streams; skip over
            continue;
        }
        const FrameHeader h = decode_header({it->frame->data(), kHeaderBytes});
        // Stop at the first non-Eager frame for this destination: pulling an
        // Eager forward past an Rts or Data would reorder it within its own
        // (source, tag) stream and break non-overtaking.
        if (h.kind != FrameKind::Eager) break;
        total += it->frame->size() - kHeaderBytes;
        batch.push_back(std::move(*it));
        it = write_q_.erase(it);
    }
    return batch;
}

bool Endpoint::write_coalesced(Connection& conn, const std::vector<QueuedWrite>& batch) {
    // Head buffer: Coalesced header followed by the sub-message table; the
    // sub-payloads stay in their original frames and go out via writev.
    const std::size_t count = batch.size();
    std::vector<std::byte> head(kHeaderBytes + count * kSubMsgEntryBytes);
    std::uint64_t payload_total = count * kSubMsgEntryBytes;
    std::vector<iovec> iov;
    iov.reserve(1 + 2 * count);
    iov.push_back(iovec{head.data(), head.size()});
    for (std::size_t i = 0; i < count; ++i) {
        const auto& frame = *batch[i].frame;
        const FrameHeader sub = decode_header({frame.data(), kHeaderBytes});
        SubMsgEntry e;
        e.tag = sub.tag;
        e.bytes = frame.size() - kHeaderBytes;
        encode_sub_entry(e, head.data() + kHeaderBytes + i * kSubMsgEntryBytes);
        const std::size_t padded = padded_sub_bytes(static_cast<std::size_t>(e.bytes));
        payload_total += padded;
        if (e.bytes > 0) {
            iov.push_back(iovec{const_cast<std::byte*>(frame.data()) + kHeaderBytes,
                                static_cast<std::size_t>(e.bytes)});
        }
        if (padded > e.bytes) {
            iov.push_back(
                iovec{const_cast<std::byte*>(kZeroPad.data()), padded - e.bytes});
        }
    }
    const FrameHeader h = make_header(FrameKind::Coalesced, 0, 0, payload_total, count);
    encode_header(h, head.data());
    // Observe BEFORE the bytes hit the socket (see writer_loop).
    if (observer_ != nullptr) observer_->on_frame_sent(conn.peer, h);
    if (!write_vectored(conn.sock, iov)) return false;
    count_sent(conn.peer, kHeaderBytes + payload_total, count);
    return true;
}

void Endpoint::writer_loop() {
    for (;;) {
        std::vector<QueuedWrite> batch;
        {
            std::unique_lock lk(write_m_);
            write_cv_.wait(lk, [&] { return !write_q_.empty() || writer_shutdown_; });
            if (write_q_.empty()) return;  // shutdown and drained
            batch = pop_write_batch(lk);
        }
        const int dest = batch.front().dest;
        auto& conn = *conns_[static_cast<std::size_t>(dest)];
        bool ok = false;
        if (conn.open.load(std::memory_order_acquire)) {
            if (batch.size() == 1) {
                const auto& w = batch.front();
                // Observe BEFORE the bytes hit the socket: once write_frame
                // returns, the peer may already have read the frame and
                // responded, and the reader thread could deliver that response
                // to the observer first — a post-write hook would then see
                // e.g. Cts arrive before its Rts was recorded as sent.
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(
                        dest, decode_header({w.frame->data(), kHeaderBytes}));
                }
                ok = write_frame(conn.sock, *w.frame);
                if (ok) count_sent(dest, w.frame->size());
            } else {
                ok = write_coalesced(conn, batch);
            }
            if (!ok) {
                conn.open.store(false, std::memory_order_release);
                drop_pending_for(conn.peer);
            }
        }
        // Complete the sends even on failure: peer death aborts the world
        // through peer_gone, and a forever-pending request would hang it.
        for (auto& w : batch) {
            if (w.on_written) w.on_written();
        }
    }
}

void Endpoint::reader_loop() {
    std::vector<pollfd> pfds;
    std::vector<int> peers;  // peer rank per pollfd entry (-1 = wake pipe)
    while (!reader_stop_.load(std::memory_order_acquire)) {
        pfds.clear();
        peers.clear();
        pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        peers.push_back(-1);
        for (auto& c : conns_) {
            if (c->open.load(std::memory_order_acquire) && c->sock.valid()) {
                pfds.push_back(pollfd{c->sock.fd(), POLLIN, 0});
                peers.push_back(c->peer);
            }
        }
        const int nready = ::poll(pfds.data(), pfds.size(), 200);
        if (nready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (nready == 0) continue;
        const std::int64_t t0 = trace_ ? now_ns() : 0;
        bool worked = false;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            if (peers[i] < 0) {
                char sink[64];
                while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
                }
                continue;
            }
            worked = true;
            auto& conn = *conns_[static_cast<std::size_t>(peers[i])];
            const ReadStatus st = drain_connection(conn);
            if (st != ReadStatus::More) {
                conn.open.store(false, std::memory_order_release);
                drop_pending_for(conn.peer);
                sink_->peer_gone(conn.peer, st == ReadStatus::Bye);
            }
        }
        if (worked && trace_) trace_(t0, now_ns());
    }
}

Endpoint::ReadStatus Endpoint::drain_connection(Connection& conn) {
    for (;;) {
        const std::span<std::byte> dst = read_target(conn.peer);
        const ssize_t n = ::recv(conn.sock.fd(), dst.data(), dst.size(), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return ReadStatus::More;
        if (n <= 0) return ReadStatus::Lost;  // EOF without Bye, or a reset
        const ReadStatus st = on_read(conn.peer, static_cast<std::size_t>(n));
        if (st != ReadStatus::More) return st;
    }
}

}  // namespace dfamr::net
