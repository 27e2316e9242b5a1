#include "net/shm_transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/timing.hpp"

namespace dfamr::net {

namespace {

// How long open_peers waits for a peer's segment. The caller's barrier
// means the segment exists before we look; this only covers scheduling
// skew and slow filesystems.
constexpr auto kOpenDeadline = std::chrono::seconds(20);

// Progress-thread pacing: yield-spin before sleeping on the cv with a short
// timeout (the timeout doubles as the inbound poll period — a peer writing
// into our ring cannot signal our cv). yield() is cheap even on an
// oversubscribed machine — it hands the core straight to a runnable worker
// and comes back with no timer latency — while a timed cv wait parks the
// thread for at least the timer slack on every idle cycle. So the loop
// leans on yield and only falls back to the cv sleep after a long idle
// streak, to avoid burning power on a genuinely quiet transport.
constexpr int kSpinIters = 4000;
constexpr auto kIdleSleep = std::chrono::microseconds(500);
constexpr auto kProbePeriod = std::chrono::milliseconds(50);

}  // namespace

std::uint32_t shm_ring_bytes_from_env() {
    const char* env = std::getenv("DFAMR_SHM_RING_BYTES");
    if (env == nullptr || *env == '\0') return 1 << 20;
    const long long v = std::atoll(env);
    if (v < (1 << 10)) return 1 << 10;
    if (v > (1 << 30)) return 1 << 30;
    return static_cast<std::uint32_t>(v);
}

std::string ShmTransport::segment_name(int from, int to) const {
    return "/dfamr_" + ns_ + "_" + std::to_string(from) + "to" + std::to_string(to);
}

ShmTransport::ShmTransport(const ShmOptions& opts, Sink* sink)
    : FramedTransport(opts.rank, opts.nranks, opts.rendezvous_threshold, sink),
      ring_bytes_(opts.ring_bytes),
      ns_(opts.ns),
      coalesce_(opts.coalesce),
      trace_(opts.trace) {
    DFAMR_REQUIRE(!ns_.empty(), "shm: namespace required");
    peers_.reserve(static_cast<std::size_t>(nranks_));
    for (int i = 0; i < nranks_; ++i) peers_.push_back(std::make_unique<Peer>());
    const std::size_t seg_bytes = shm_segment_bytes(ring_bytes_);
    for (int j = 0; j < nranks_; ++j) {
        if (j == rank_) continue;
        const std::string name = segment_name(rank_, j);
        int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        if (fd < 0 && errno == EEXIST) {
            // Stale segment from a crashed run that reused our namespace.
            ::shm_unlink(name.c_str());
            fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        }
        DFAMR_REQUIRE(fd >= 0, "shm: shm_open(create " + name + ") failed");
        const bool sized = ::ftruncate(fd, static_cast<off_t>(seg_bytes)) == 0;
        void* base = sized ? ::mmap(nullptr, seg_bytes, PROT_READ | PROT_WRITE,
                                    MAP_SHARED, fd, 0)
                           : MAP_FAILED;
        ::close(fd);
        if (base == MAP_FAILED) ::shm_unlink(name.c_str());
        DFAMR_REQUIRE(sized && base != MAP_FAILED, "shm: mapping " + name + " failed");
        ShmRing::init(base, ring_bytes_, static_cast<std::int32_t>(::getpid()));
        auto& p = *peers_[static_cast<std::size_t>(j)];
        p.rank = j;
        p.out_map = base;
        p.map_bytes = seg_bytes;
        p.out.attach(base, ring_bytes_);
    }
}

ShmTransport::~ShmTransport() {
    if (started_) {
        // 1. Let in-flight rendezvous transfers finish. The progress thread
        //    keeps running through every wait below, so it still grants Cts
        //    to peers and drains their frames — mutual flush-waits cannot
        //    deadlock.
        drain_rendezvous();
        // 2. Say goodbye, then wait (bounded) for the queues to drain into
        //    the rings.
        for (auto& p : peers_) {
            if (p->rank >= 0 && p->rank != rank_ && p->open.load()) {
                enqueue(p->rank, header_only_frame(FrameKind::Bye));
            }
        }
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
            bool drained = true;
            {
                std::lock_guard lk(out_m_);
                for (auto& p : peers_) {
                    if (!p->pending.empty()) drained = false;
                }
            }
            if (drained || std::chrono::steady_clock::now() >= deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // 3. Stop the progress thread.
        stop_.store(true, std::memory_order_release);
        out_cv_.notify_all();
        if (progress_.joinable()) progress_.join();
    }
    for (auto& p : peers_) {
        if (p->in_map != nullptr) ::munmap(p->in_map, p->map_bytes);
        if (p->out_map != nullptr) ::munmap(p->out_map, p->map_bytes);
        if (p->rank >= 0 && p->rank != rank_) {
            // Normally the consumer already unlinked this; ENOENT is fine.
            ::shm_unlink(segment_name(rank_, p->rank).c_str());
        }
    }
}

void ShmTransport::open_peers() {
    DFAMR_REQUIRE(!started_, "shm: open_peers called twice");
    for (int j = 0; j < nranks_; ++j) {
        if (j == rank_) continue;
        const std::string name = segment_name(j, rank_);
        const auto deadline = std::chrono::steady_clock::now() + kOpenDeadline;
        int fd = -1;
        for (;;) {
            fd = ::shm_open(name.c_str(), O_RDWR, 0);
            if (fd >= 0) break;
            DFAMR_REQUIRE(std::chrono::steady_clock::now() < deadline,
                          "shm: peer segment " + name + " never appeared");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        struct stat st{};
        const bool statted = ::fstat(fd, &st) == 0 &&
                             static_cast<std::size_t>(st.st_size) >= sizeof(RingHeader);
        void* base = statted ? ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)
                             : MAP_FAILED;
        ::close(fd);
        DFAMR_REQUIRE(statted && base != MAP_FAILED, "shm: mapping " + name + " failed");
        // The consumer owns the name: once both sides hold mappings the name
        // is no longer needed, and unlinking here makes cleanup automatic
        // even on crash.
        ::shm_unlink(name.c_str());
        auto* hdr = static_cast<RingHeader*>(base);
        DFAMR_REQUIRE(hdr->magic == kRingMagic &&
                          shm_segment_bytes(hdr->capacity) <=
                              static_cast<std::size_t>(st.st_size),
                      "shm: bad ring header in " + name);
        auto& p = *peers_[static_cast<std::size_t>(j)];
        p.in_map = base;
        p.in.attach(base, hdr->capacity);
        p.open.store(true, std::memory_order_release);
        enqueue(j, header_only_frame(FrameKind::Hello));
    }
    started_ = true;
    progress_ = std::thread([this] { progress_loop(); });
}

void ShmTransport::enqueue(int dest, FrameBuf frame, std::function<void()> on_written) {
    DFAMR_REQUIRE(dest >= 0 && dest < nranks_ && dest != rank_, "shm: bad destination");
    Peer& p = *peers_[static_cast<std::size_t>(dest)];
    // Inline fast path: when nothing is queued for this peer, copy the frame
    // into the ring from the calling thread instead of waking the progress
    // thread — that hop costs a context switch per frame on the latency
    // path. Safe against the lock-free front streaming in flush_outbound
    // because that only runs while pending is non-empty and this only runs
    // while it is empty, both decided under out_m_. With coalescing on,
    // Eager frames still queue (queuing is what gives the batcher adjacent
    // frames to merge) but everything else — Rts/Cts/Data/Bye, which the
    // batcher never merges — goes inline; with the queue empty there is no
    // run to split and nothing to overtake.
    const bool mergeable =
        coalesce_ && decode_header({frame->data(), kHeaderBytes}).kind == FrameKind::Eager;
    if (!mergeable) {
        bool wrote_all = false;
        const std::size_t frame_bytes = frame->size();
        {
            std::lock_guard lk(out_m_);
            if (p.pending.empty() && p.open.load(std::memory_order_acquire)) {
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(dest, decode_header({frame->data(), kHeaderBytes}));
                }
                const std::size_t n = p.out.try_write({frame->data(), frame_bytes});
                if (n == frame_bytes) {
                    wrote_all = true;
                } else {
                    // Ring full mid-frame: park the tail for the progress
                    // thread, already marked as observed.
                    QueuedWrite w;
                    w.frame = std::move(frame);
                    w.on_written = std::move(on_written);
                    w.observed = true;
                    w.offset = n;
                    p.pending.push_back(std::move(w));
                }
            }
        }
        if (wrote_all) {
            count_sent(dest, frame_bytes);
            if (on_written) on_written();
            return;
        }
        if (frame == nullptr) {  // parked the tail above
            out_cv_.notify_all();
            return;
        }
    }
    {
        std::lock_guard lk(out_m_);
        QueuedWrite w;
        w.frame = std::move(frame);
        w.on_written = std::move(on_written);
        p.pending.push_back(std::move(w));
    }
    out_cv_.notify_all();
}

void ShmTransport::report_gone(Peer& p, bool clean) {
    if (p.gone_reported) return;
    p.gone_reported = true;
    p.open.store(false, std::memory_order_release);
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard lk(out_m_);
        for (auto& w : p.pending) {
            if (w.on_written) callbacks.push_back(std::move(w.on_written));
        }
        p.pending.clear();
    }
    for (auto& cb : callbacks) cb();
    drop_pending_for(p.rank);
    sink_->peer_gone(p.rank, clean);
}

void ShmTransport::probe_peers() {
    const auto self = static_cast<std::int32_t>(::getpid());
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_ || !p.open.load(std::memory_order_acquire)) continue;
        if (!p.in.valid()) continue;
        const std::int32_t pid = p.in.producer_pid();
        if (pid == self || pid <= 0) continue;  // co-threaded loopback world
        if (::kill(pid, 0) != 0 && errno == ESRCH) report_gone(p, /*clean=*/false);
    }
}

void ShmTransport::maybe_coalesce(Peer& p) {
    // Called under out_m_. Replace the leading run of complete, unstarted
    // Eager frames with one Coalesced frame. Unlike the TCP writer (which
    // scatter-gathers with writev), composing here costs one extra copy of
    // the sub-payloads — accepted: it buys one ring reservation + one header
    // per batch, and the copy is within-socket-buffer-sized.
    if (p.pending.size() < 2 || p.pending.front().offset != 0) return;
    std::size_t run = 0;
    std::size_t total = 0;
    for (const auto& w : p.pending) {
        if (run >= kMaxCoalesceMsgs || total >= kMaxCoalesceBytes) break;
        const FrameHeader h = decode_header({w.frame->data(), kHeaderBytes});
        if (h.kind != FrameKind::Eager) break;
        total += w.frame->size() - kHeaderBytes;
        ++run;
    }
    if (run < 2) return;
    std::size_t payload_total = run * kSubMsgEntryBytes;
    for (std::size_t i = 0; i < run; ++i) {
        payload_total += padded_sub_bytes(p.pending[i].frame->size() - kHeaderBytes);
    }
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes + payload_total);
    std::size_t off = kHeaderBytes + run * kSubMsgEntryBytes;
    std::vector<std::function<void()>> callbacks;
    for (std::size_t i = 0; i < run; ++i) {
        auto& w = p.pending[i];
        const FrameHeader sub = decode_header({w.frame->data(), kHeaderBytes});
        SubMsgEntry e;
        e.tag = sub.tag;
        e.bytes = w.frame->size() - kHeaderBytes;
        encode_sub_entry(e, buf->data() + kHeaderBytes + i * kSubMsgEntryBytes);
        if (e.bytes > 0) {
            std::memcpy(buf->data() + off, w.frame->data() + kHeaderBytes,
                        static_cast<std::size_t>(e.bytes));
        }
        off += padded_sub_bytes(static_cast<std::size_t>(e.bytes));
        if (w.on_written) callbacks.push_back(std::move(w.on_written));
    }
    encode_header(make_header(FrameKind::Coalesced, 0, 0, payload_total, run), buf->data());
    p.pending.erase(p.pending.begin(), p.pending.begin() + static_cast<std::ptrdiff_t>(run));
    QueuedWrite composed;
    composed.frame = std::move(buf);
    composed.sub_count = run;
    if (!callbacks.empty()) {
        composed.on_written = [cbs = std::move(callbacks)] {
            for (auto& cb : cbs) cb();
        };
    }
    p.pending.push_front(std::move(composed));
}

bool ShmTransport::flush_outbound() {
    bool worked = false;
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_) continue;
        for (;;) {
            QueuedWrite* front = nullptr;
            std::vector<std::function<void()>> dropped;
            {
                std::lock_guard lk(out_m_);
                if (!p.pending.empty()) {
                    if (!p.open.load(std::memory_order_acquire)) {
                        // Peer is gone: complete the sends so nothing hangs.
                        for (auto& w : p.pending) {
                            if (w.on_written) dropped.push_back(std::move(w.on_written));
                        }
                        p.pending.clear();
                    } else {
                        if (coalesce_) maybe_coalesce(p);
                        front = &p.pending.front();
                    }
                }
            }
            for (auto& cb : dropped) cb();
            if (front == nullptr) break;
            // Only this thread mutates queue fronts, and deque growth never
            // invalidates references — safe to stream without the lock held.
            if (front->offset == 0 && !front->observed) {
                front->observed = true;
                if (observer_ != nullptr) {
                    observer_->on_frame_sent(
                        p.rank, decode_header({front->frame->data(), kHeaderBytes}));
                }
            }
            const std::span<const std::byte> rest(front->frame->data() + front->offset,
                                                  front->frame->size() - front->offset);
            const std::size_t n = p.out.try_write(rest);
            if (n > 0) worked = true;
            front->offset += n;
            if (front->offset < front->frame->size()) break;  // ring full for now
            count_sent(p.rank, front->frame->size(), front->sub_count);
            std::function<void()> cb;
            {
                std::lock_guard lk(out_m_);
                cb = std::move(p.pending.front().on_written);
                p.pending.pop_front();
            }
            if (cb) cb();
        }
    }
    return worked;
}

bool ShmTransport::drain_inbound() {
    bool worked = false;
    for (auto& pp : peers_) {
        auto& p = *pp;
        if (p.rank < 0 || p.rank == rank_) continue;
        if (!p.open.load(std::memory_order_acquire) || !p.in.valid()) continue;
        for (;;) {
            const std::size_t n = p.in.try_read(read_target(p.rank));
            if (n == 0) break;  // drained
            worked = true;
            const ReadStatus st = on_read(p.rank, n);
            if (st != ReadStatus::More) {
                report_gone(p, st == ReadStatus::Bye);
                break;
            }
        }
    }
    return worked;
}

void ShmTransport::progress_loop() {
    int idle = 0;
    auto last_probe = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
        const std::int64_t t0 = trace_ ? now_ns() : 0;
        bool worked = flush_outbound();
        worked = drain_inbound() || worked;
        if (worked && trace_) trace_(t0, now_ns());
        const auto now = std::chrono::steady_clock::now();
        if (now - last_probe >= kProbePeriod) {
            last_probe = now;
            probe_peers();
        }
        if (worked) {
            idle = 0;
            continue;
        }
        if (++idle < kSpinIters) {
            std::this_thread::yield();
            continue;
        }
        std::unique_lock lk(out_m_);
        out_cv_.wait_for(lk, kIdleSleep);
    }
}

}  // namespace dfamr::net
