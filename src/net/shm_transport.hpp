// Shared-memory transport for co-located ranks: one SPSC byte-stream ring
// (shm_ring.hpp) per directed pair of ranks, carrying the frame protocol of
// framed_transport.hpp — the same code, not just the same format, as the TCP
// endpoint: Hello first, Eager / Rts / Cts / Data with receiver-side
// hold-back for non-overtaking order, Bye last. This file only moves bytes:
// the segments, the rings, the progress loop, liveness probes, the inline
// fast path and composed-copy coalescing. Because mpisim's matching sits
// above the Transport interface, checksums are bit-identical across
// transports by construction; fault injection also lives above the
// transport, so chaos runs work unchanged.
//
// Segment lifecycle (two-phase, race-free):
//   1. The constructor creates and maps every *outbound* segment
//      ("/dfamr_<ns>_<i>to<j>", O_CREAT|O_EXCL).
//   2. The caller crosses a barrier that proves every rank finished step 1 —
//      the launcher's address-exchange round trip, or plain construction
//      order for in-process loopback worlds.
//   3. open_peers() maps every *inbound* segment, unlinks it (the consumer
//      owns the name; both sides hold mappings so the pages survive),
//      queues a Hello per peer, and starts the progress thread.
//
// Threading: send_eager/send_rendezvous may be called from any thread; they
// only append to a per-destination pending queue. The single progress
// thread is the sole producer of every outbound ring and sole consumer of
// every inbound ring — that is what makes the lock-free SPSC rings sound.
// It also probes peer liveness (kill(pid, 0)) so a crashed neighbour turns
// into peer_gone(unclean) just like a TCP connection reset.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "net/framed_transport.hpp"
#include "net/shm_ring.hpp"

namespace dfamr::net {

struct ShmOptions {
    int rank = 0;
    int nranks = 1;
    std::size_t rendezvous_threshold = 64 * 1024;
    /// Data bytes per directed ring (env DFAMR_SHM_RING_BYTES overrides).
    std::uint32_t ring_bytes = 1 << 20;
    /// Namespace shared by all ranks of one world; distinct per world so
    /// concurrent worlds on one host never collide.
    std::string ns;
    bool coalesce = false;
    ProgressTrace trace;
};

class ShmTransport final : public FramedTransport {
public:
    /// Phase 1: creates and maps this rank's outbound segments. `sink` must
    /// outlive the transport.
    ShmTransport(const ShmOptions& opts, Sink* sink);
    ~ShmTransport() override;

    ShmTransport(const ShmTransport&) = delete;
    ShmTransport& operator=(const ShmTransport&) = delete;

    /// Phase 3: maps every peer's outbound segment as our inbound ring,
    /// queues Hellos, and starts the progress thread. Every rank must have
    /// been constructed before any rank calls this (see file comment).
    void open_peers();

private:
    struct QueuedWrite {
        FrameBuf frame;
        std::function<void()> on_written;
        bool observed = false;        // on_frame_sent already fired
        std::size_t offset = 0;       // bytes of the frame already in the ring
        std::uint64_t sub_count = 0;  // messages batched, for a Coalesced frame
    };

    struct Peer {
        int rank = -1;
        // Outbound: segment we created; inbound: peer's segment we opened.
        void* out_map = nullptr;
        void* in_map = nullptr;
        std::size_t map_bytes = 0;
        ShmRing out;
        ShmRing in;
        std::atomic<bool> open{false};
        bool gone_reported = false;
        // Outbound frames not yet fully in the ring (front may be partial).
        std::deque<QueuedWrite> pending;  // guarded by out_m_
    };

    void enqueue(int dest, FrameBuf frame, std::function<void()> on_written = nullptr) override;
    void progress_loop();
    /// Streams pending outbound frames into the rings; true if bytes moved.
    bool flush_outbound();
    /// Drains inbound rings into the decoder; true if bytes moved.
    bool drain_inbound();
    /// Replaces a run of queued Eager frames with one Coalesced frame.
    void maybe_coalesce(Peer& p);
    void report_gone(Peer& p, bool clean);
    void probe_peers();
    std::string segment_name(int from, int to) const;

    const std::uint32_t ring_bytes_;
    const std::string ns_;
    const bool coalesce_;
    const ProgressTrace trace_;

    std::vector<std::unique_ptr<Peer>> peers_;  // by rank (self slot unused)

    lockdep::Mutex out_m_{"shm.out"};
    std::condition_variable_any out_cv_;

    std::thread progress_;
    std::atomic<bool> stop_{false};
    bool started_ = false;
};

/// Ring size from the environment (DFAMR_SHM_RING_BYTES) or the default.
std::uint32_t shm_ring_bytes_from_env();

}  // namespace dfamr::net
