// The transport abstraction mpisim talks to: eager and rendezvous sends
// into a peer mesh, a Sink that receives complete messages, and uniform wire
// counters. net::FramedTransport implements it once for the frame protocol
// (framed_transport.hpp); the TCP endpoint and the shared-memory rings
// derive from that and only move bytes. Because the matching/mailbox
// machinery above and the protocol code below are shared, checksums are
// bit-identical across transports by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace dfamr::net {

/// A frame's backing storage: header (kHeaderBytes) followed by payload.
/// Shared so the mailbox can keep a view of the payload without copying.
using FrameBuf = std::shared_ptr<std::vector<std::byte>>;

/// Allocates a frame with room for `payload_bytes` and copies the payload
/// in after the (still unwritten) header. This is the single payload copy
/// of the eager send path.
FrameBuf make_frame(const void* payload, std::size_t payload_bytes);

/// Allocates an empty frame with room for `payload_bytes` after the header,
/// without copying anything in — the zero-copy pack path writes the payload
/// directly into the returned buffer.
FrameBuf make_empty_frame(std::size_t payload_bytes);

/// Where received messages go. Implemented by mpisim (delivery into the
/// destination mailbox) and by tests (capture).
class Sink {
public:
    virtual ~Sink() = default;
    /// A complete user message arrived (eager payload or rendezvous data).
    /// `storage` owns the bytes `payload` points into.
    virtual void deliver(int src, int tag, FrameBuf storage,
                         std::span<const std::byte> payload) = 0;
    /// The connection to `peer` ended: `clean` when a Bye frame preceded
    /// EOF, false when the peer vanished (crash / kill) or sent a frame
    /// that breaks the protocol.
    virtual void peer_gone(int peer, bool clean) = 0;
};

/// Called by a transport's progress thread around each batch of protocol
/// work, so progress-thread time shows up in the execution traces
/// (amr::PhaseKind::NetProgress); null disables the accounting.
using ProgressTrace = std::function<void(std::int64_t t0_ns, std::int64_t t1_ns)>;

/// Observer of every frame a transport puts on or takes off the wire —
/// the hook the protocol-table verifier (verify/mc/protocol.hpp) attaches
/// under DFAMR_VERIFY to validate live traffic against the Rts/Cts state
/// machine. on_frame_sent fires before the frame becomes visible to the
/// peer (and once per Hello during mesh setup); on_frame_received fires on
/// every reassembled frame, before protocol handling. Implementations must
/// be thread-safe. Null disables the accounting: one pointer check per
/// frame (the same zero-cost pattern as tasking::VerifyHook).
class WireObserver {
public:
    virtual ~WireObserver() = default;
    virtual void on_frame_sent(int dest, const FrameHeader& h) = 0;
    virtual void on_frame_received(int src, const FrameHeader& h) = 0;
};

/// Abstract wire backend for one rank. All methods may be called from any
/// thread once the mesh is up; sends never block on the peer.
class Transport {
public:
    virtual ~Transport() = default;

    virtual int rank() const = 0;
    virtual std::size_t rendezvous_threshold() const = 0;

    /// Queues `frame` (payload already in place) for eager transfer. The
    /// payload is considered delivered to the transport on return.
    virtual void send_eager(int dest, int tag, FrameBuf frame) = 0;

    /// Starts a rendezvous transfer: posts the Rts now, sends the payload
    /// when the peer grants it. `on_sent` fires (from a transport thread)
    /// once the Data frame is handed off; it may be null.
    virtual void send_rendezvous(int dest, int tag, FrameBuf frame,
                                 std::function<void()> on_sent) = 0;

    /// Snapshot of the wire counters.
    virtual NetCounters counters() const = 0;
    /// Per-peer bytes/frames, indexed by peer rank (self row stays zero).
    virtual std::vector<PeerStats> peer_counters() const = 0;

    /// Attaches a wire observer (nullptr detaches). Must be called before
    /// the mesh starts; the observer must outlive the transport.
    virtual void set_wire_observer(WireObserver* obs) = 0;
};

}  // namespace dfamr::net
