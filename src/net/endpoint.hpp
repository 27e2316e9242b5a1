// One rank's TCP transport endpoint: a full-duplex connection to every peer,
// a writer thread draining an ordered frame queue, and a reader (progress)
// thread that feeds every byte it receives to the frame decoder
// (framed_transport.hpp), which hands complete messages to a Sink — the
// hook mpisim implements with its matching/mailbox machinery. This file only
// moves bytes: the connect and Hello handshake, the two threads, and writev
// coalescing.
//
// Coalescing (opt-in): when enabled, the writer thread batches consecutive
// same-destination Eager frames from its queue into one Coalesced frame
// with a sub-message table (wire.hpp::SubMsgEntry) — one header and one
// syscall instead of n. The batch stops at the first non-Eager frame for
// that destination, so an Eager never moves past an Rts or Data of its own
// stream and non-overtaking order is preserved frame-for-frame.
//
// Threading: send_eager/send_rendezvous may be called from any thread. The
// reader thread never blocks on a partially received frame (non-blocking
// sockets, per-peer reassembly state), so every endpoint always drains its
// peers; that is what makes the writer threads' blocking sends deadlock-free
// even when two ranks exchange large payloads simultaneously.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "net/framed_transport.hpp"
#include "net/socket.hpp"

namespace dfamr::net {

class Endpoint final : public FramedTransport {
public:
    /// Creates the endpoint and binds its data listener (ephemeral port).
    /// `sink` must outlive the endpoint. With `coalesce`, the writer batches
    /// queued same-destination eager frames into Coalesced frames.
    Endpoint(int rank, int nranks, std::size_t rendezvous_threshold, Sink* sink,
             ProgressTrace trace = nullptr, bool coalesce = false);
    ~Endpoint() override;

    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;

    std::uint16_t listen_port() const { return listen_port_; }

    /// Establishes the peer mesh from the rank -> address table (this rank
    /// dials every lower rank, accepts from every higher one) and starts the
    /// reader and writer threads. Must be called exactly once.
    void connect_mesh(const std::vector<HostPort>& table);

private:
    struct QueuedWrite {
        int dest = 0;
        FrameBuf frame;
        std::function<void()> on_written;
    };

    struct Connection {
        int peer = -1;
        Socket sock;
        // Cleared by the reader on EOF / by the writer on send failure; the
        // socket itself stays open until destruction so the fd can't be
        // reused under the other thread.
        std::atomic<bool> open{false};
    };

    void enqueue(int dest, FrameBuf frame, std::function<void()> on_written = nullptr) override;
    void reader_loop();
    void writer_loop();
    /// Pops the front write plus — under coalescing — every later Eager for
    /// the same destination up to the first non-Eager frame headed there.
    /// Returns the frames to put on the wire as one unit (size 1 when not
    /// coalescing or nothing merged).
    std::vector<QueuedWrite> pop_write_batch(std::unique_lock<lockdep::Mutex>& lk);
    /// Sends a batch of eager frames as one Coalesced frame. Returns false
    /// when the connection died mid-write.
    bool write_coalesced(Connection& conn, const std::vector<QueuedWrite>& batch);
    /// Reads whatever is available on `conn` without blocking, feeding the
    /// decoder. Returns More once drained, or how the stream ended.
    ReadStatus drain_connection(Connection& conn);
    void wake_reader();

    const ProgressTrace trace_;
    const bool coalesce_;

    Socket listener_;
    std::uint16_t listen_port_ = 0;
    std::vector<std::unique_ptr<Connection>> conns_;  // by peer rank (self slot unused)
    int wake_pipe_[2] = {-1, -1};

    lockdep::Mutex write_m_{"net.write"};
    std::condition_variable_any write_cv_;
    std::deque<QueuedWrite> write_q_;
    bool writer_shutdown_ = false;

    std::thread reader_;
    std::thread writer_;
    std::atomic<bool> reader_stop_{false};
    bool mesh_started_ = false;
};

}  // namespace dfamr::net
