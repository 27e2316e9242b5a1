// The frame protocol of every wire backend (wire.hpp), written once: eager
// and rendezvous sends, frame reassembly from a byte stream, the decoder
// with its non-overtaking hold-back, the wire counters and the observer
// hook. A backend only moves bytes: net::Endpoint over TCP sockets,
// net::ShmTransport over shared-memory rings. It implements enqueue() to put
// whole frames on its medium in order, and feeds every byte it receives
// through read_target()/on_read(), which decode and dispatch each frame the
// bytes complete.
//
// Eager vs rendezvous: payloads below the rendezvous threshold travel in one
// Eager frame. At or above it, the sender posts a header-only Rts and keeps
// the payload; the receiver grants a Cts, and the payload follows in a Data
// frame. Later frames of the same (source, tag) stream can overtake the Data,
// so the receiver parks them per (peer, tag) behind the pending rendezvous and
// releases them in order once the Data lands: MPI non-overtaking order holds
// across both transfer modes.
//
// Failure model: a peer that breaks the protocol ends its stream exactly like
// a peer that vanished. A bad magic, an unknown kind, a Hello that is not the
// stream's first frame, a Cts or Data for nothing pending, a Coalesced table
// that overruns its payload and a payload length that cannot be allocated all
// make on_read() return ReadStatus::Lost; the backend then drops the peer's
// pending rendezvous sends and reports Sink::peer_gone(peer, false). No byte
// a peer sends can abort the receiving process.
//
// Threading: send_eager/send_rendezvous may be called from any thread.
// read_target/on_read belong to the backend's one receiving thread (and to
// mesh setup before that thread starts).
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/lockdep.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dfamr::net {

// Coalescing batch caps shared by both backends' writers: enough to amortize
// headers and syscalls without letting one batch hog the writer.
inline constexpr std::size_t kMaxCoalesceMsgs = 64;
inline constexpr std::size_t kMaxCoalesceBytes = 256 * 1024;

class FramedTransport : public Transport {
public:
    int rank() const override { return rank_; }
    std::size_t rendezvous_threshold() const override { return rndz_threshold_; }

    void send_eager(int dest, int tag, FrameBuf frame) override;
    void send_rendezvous(int dest, int tag, FrameBuf frame,
                         std::function<void()> on_sent) override;

    NetCounters counters() const override;
    std::vector<PeerStats> peer_counters() const override;

    /// Must be called before the mesh starts; the observer must outlive the
    /// transport.
    void set_wire_observer(WireObserver* obs) override { observer_ = obs; }

protected:
    /// What a peer's stream did with the bytes on_read() was fed.
    enum class ReadStatus {
        More,  // still open
        Bye,   // orderly end: the peer said Bye
        Lost,  // protocol violation: treat like a vanished peer
    };

    FramedTransport(int rank, int nranks, std::size_t rendezvous_threshold, Sink* sink);

    /// Puts a whole frame on the medium toward `dest`, after every frame
    /// queued for `dest` before it. `on_written` fires once the bytes are
    /// handed off, or once the peer is known to be gone.
    virtual void enqueue(int dest, FrameBuf frame, std::function<void()> on_written = nullptr) = 0;

    /// Where the next bytes of `peer`'s stream go; never empty.
    std::span<std::byte> read_target(int peer);
    /// Accounts `n` bytes just written into read_target(peer), and decodes
    /// and dispatches the frame they complete, if any.
    ReadStatus on_read(int peer, std::size_t n);

    /// Counts one frame of `bytes` put on the wire toward `dest`; a
    /// Coalesced frame also passes how many messages it batches.
    void count_sent(int dest, std::size_t bytes, std::uint64_t coalesced_messages = 0);
    void count_reconnects(std::uint64_t n);
    /// Completes and forgets the rendezvous sends headed at a dead peer.
    void drop_pending_for(int peer);
    /// First teardown step: lets in-flight rendezvous sends finish (bounded,
    /// since a dead peer never grants its Cts), then forgets the rest.
    void drain_rendezvous();

    FrameHeader make_header(FrameKind kind, int tag = 0, std::uint32_t seq = 0,
                            std::uint64_t payload_bytes = 0, std::uint64_t aux = 0) const;
    FrameBuf header_only_frame(FrameKind kind, int tag = 0, std::uint32_t seq = 0,
                               std::uint64_t aux = 0) const;

    const int rank_;
    const int nranks_;
    Sink* const sink_;
    WireObserver* observer_ = nullptr;

private:
    /// Hold-back entry: a message ready to deliver, or the placeholder of a
    /// granted rendezvous whose Data frame is still in flight.
    struct HeldFrame {
        bool placeholder = false;
        std::uint32_t seq = 0;
        FrameBuf storage;
        std::span<const std::byte> payload;
    };

    /// One peer's receive side (receiving thread only).
    struct Inbound {
        std::array<std::byte, kHeaderBytes> header_buf{};
        FrameHeader header;     // of the frame whose payload is arriving
        FrameBuf payload;       // non-null while a payload is arriving
        std::size_t got = 0;    // bytes of the header, then of the payload
        bool started = false;   // a frame was handled (a Hello must be first)
        std::map<int, std::deque<HeldFrame>> held;  // by tag
    };

    struct PendingSend {
        FrameBuf frame;  // the Data frame, header encoded
        std::function<void()> on_sent;
    };

    ReadStatus handle_frame(int peer, Inbound& in, const FrameHeader& h, FrameBuf payload);
    void deliver_or_hold(int peer, Inbound& in, int tag, FrameBuf storage,
                         std::span<const std::byte> payload);

    const std::size_t rndz_threshold_;
    std::vector<Inbound> inbound_;  // by peer rank (self slot unused)

    // Sender-side rendezvous transfers awaiting their Cts.
    lockdep::Mutex rndz_m_{"net.rndz"};
    std::condition_variable_any rndz_cv_;
    std::uint32_t next_seq_ = 1;
    std::map<std::pair<int, std::uint32_t>, PendingSend> pending_rndz_;

    mutable lockdep::Mutex counters_m_{"net.counters"};
    NetCounters counters_;
    std::vector<PeerStats> peers_;  // by peer rank (self row stays zero)
};

}  // namespace dfamr::net
