// Wire format of every wire transport: length-prefixed frames over one
// ordered byte stream per directed peer pair (a TCP connection, or a
// shared-memory ring).
//
// Every frame starts with a fixed 40-byte little-endian header. Small
// payloads travel eagerly inside a single Eager frame; payloads at or above
// the rendezvous threshold use a three-way handshake — the sender announces
// the transfer with a header-only Rts (request-to-send) frame, the
// receiver's progress thread answers with Cts (clear-to-send), and only then
// does the payload move in a Data frame. The receiver preserves MPI
// non-overtaking order per (source, tag) stream by holding frames that
// arrive between an Rts and its Data. framed_transport.cpp implements the
// protocol once for both transports.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace dfamr::net {

inline constexpr std::uint32_t kWireMagic = 0x4446'4E31;  // "DFN1"

enum class FrameKind : std::uint32_t {
    Hello = 0,      // first frame on a dialed connection; src = dialer's rank
    Eager = 1,      // payload carried inline
    Rts = 2,        // rendezvous announce; aux = payload bytes to follow
    Cts = 3,        // rendezvous grant; seq echoes the Rts
    Data = 4,       // rendezvous payload; seq matches the granted Rts
    Bye = 5,        // orderly shutdown; EOF without Bye means the peer died
    Coalesced = 6,  // batch of eager sub-messages; aux = count (see SubMsgEntry)
};

/// One entry of a Coalesced frame's sub-message table. The payload of a
/// Coalesced frame is `aux` of these (16 bytes each), followed by the
/// sub-payloads in table order, each padded to kSubMsgAlign so a receiver
/// can hand out aligned views straight into the frame (doubles included:
/// kHeaderBytes is itself 8-aligned). Batching n eager frames this way
/// replaces n 40-byte headers with one header plus n 16-byte entries —
/// fewer frames AND fewer bytes on the wire.
struct SubMsgEntry {
    std::int32_t tag = 0;
    std::uint32_t reserved = 0;
    std::uint64_t bytes = 0;  // unpadded sub-payload size
};

inline constexpr std::size_t kSubMsgEntryBytes = sizeof(SubMsgEntry);
static_assert(kSubMsgEntryBytes == 16, "sub-message table layout changed");

inline constexpr std::size_t kSubMsgAlign = 8;

inline constexpr std::size_t padded_sub_bytes(std::size_t bytes) {
    return (bytes + (kSubMsgAlign - 1)) & ~(kSubMsgAlign - 1);
}

inline void encode_sub_entry(const SubMsgEntry& e, std::byte* out) {
    std::memcpy(out, &e, kSubMsgEntryBytes);
}

inline SubMsgEntry decode_sub_entry(std::span<const std::byte> in) {
    SubMsgEntry e;
    std::memcpy(&e, in.data(), kSubMsgEntryBytes);
    return e;
}

struct FrameHeader {
    std::uint32_t magic = kWireMagic;
    FrameKind kind = FrameKind::Eager;
    std::int32_t src = 0;
    std::int32_t tag = 0;
    std::uint32_t seq = 0;          // rendezvous sequence (Rts/Cts/Data)
    std::uint32_t reserved = 0;
    std::uint64_t payload_bytes = 0;  // bytes following this header
    std::uint64_t aux = 0;            // Rts: announced Data payload size
};

inline constexpr std::size_t kHeaderBytes = sizeof(FrameHeader);
static_assert(kHeaderBytes == 40, "wire header layout changed");

inline void encode_header(const FrameHeader& h, std::byte* out) {
    std::memcpy(out, &h, kHeaderBytes);
}

inline FrameHeader decode_header(std::span<const std::byte> in) {
    FrameHeader h;
    std::memcpy(&h, in.data(), kHeaderBytes);
    return h;
}

/// Wire-level counters surfaced through core::RunResult and the "net"
/// object of the metrics JSON (core/metrics.hpp). bytes_* count everything
/// on the wire (headers included); frames_* count frames of every kind.
struct NetCounters {
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t rendezvous = 0;  // Rts handshakes initiated by this side
    std::uint64_t reconnects = 0;  // extra dial attempts during mesh setup
    std::uint64_t coalesced_frames_sent = 0;  // Coalesced frames on the wire
    std::uint64_t coalesced_messages = 0;     // eager messages batched into them
    std::uint64_t copies_elided = 0;  // staging copies removed by zero-copy pack

    NetCounters& operator+=(const NetCounters& o) {
        bytes_sent += o.bytes_sent;
        bytes_received += o.bytes_received;
        frames_sent += o.frames_sent;
        frames_received += o.frames_received;
        rendezvous += o.rendezvous;
        reconnects += o.reconnects;
        coalesced_frames_sent += o.coalesced_frames_sent;
        coalesced_messages += o.coalesced_messages;
        copies_elided += o.copies_elided;
        return *this;
    }
};

/// Per-peer slice of the wire counters (bytes/frames only — the cheap
/// fields a transport can index by peer on its hot paths). Surfaced through
/// core::RunResult as one row per peer rank.
struct PeerStats {
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_received = 0;

    PeerStats& operator+=(const PeerStats& o) {
        bytes_sent += o.bytes_sent;
        frames_sent += o.frames_sent;
        bytes_received += o.bytes_received;
        frames_received += o.frames_received;
        return *this;
    }
};

}  // namespace dfamr::net
