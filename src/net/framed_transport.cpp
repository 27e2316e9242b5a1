#include "net/framed_transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>

#include "common/error.hpp"

namespace dfamr::net {

namespace {

// No host maps a 1 TiB payload: a longer announced length is a corrupt
// header, rejected before the allocator sees it (sanitizer allocators abort
// on such requests instead of throwing std::bad_alloc).
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 40;

std::span<const std::byte> bytes_of(const FrameBuf& buf) {
    return buf ? std::span<const std::byte>(*buf) : std::span<const std::byte>{};
}

}  // namespace

FrameBuf make_frame(const void* payload, std::size_t payload_bytes) {
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes + payload_bytes);
    if (payload_bytes > 0) {
        std::memcpy(buf->data() + kHeaderBytes, payload, payload_bytes);
    }
    return buf;
}

FrameBuf make_empty_frame(std::size_t payload_bytes) {
    return std::make_shared<std::vector<std::byte>>(kHeaderBytes + payload_bytes);
}

FramedTransport::FramedTransport(int rank, int nranks, std::size_t rendezvous_threshold,
                                 Sink* sink)
    : rank_(rank), nranks_(nranks), sink_(sink), rndz_threshold_(rendezvous_threshold) {
    DFAMR_REQUIRE(rank >= 0 && rank < nranks, "net: rank out of range");
    inbound_.resize(static_cast<std::size_t>(nranks));
    peers_.resize(static_cast<std::size_t>(nranks));
}

void FramedTransport::send_eager(int dest, int tag, FrameBuf frame) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "net: frame too small");
    encode_header(make_header(FrameKind::Eager, tag, 0, frame->size() - kHeaderBytes),
                  frame->data());
    enqueue(dest, std::move(frame));
}

void FramedTransport::send_rendezvous(int dest, int tag, FrameBuf frame,
                                      std::function<void()> on_sent) {
    DFAMR_REQUIRE(frame->size() >= kHeaderBytes, "net: frame too small");
    const std::uint64_t payload_bytes = frame->size() - kHeaderBytes;
    std::uint32_t seq = 0;
    {
        std::lock_guard lk(rndz_m_);
        seq = next_seq_++;
        encode_header(make_header(FrameKind::Data, tag, seq, payload_bytes), frame->data());
        pending_rndz_[{dest, seq}] = PendingSend{std::move(frame), std::move(on_sent)};
    }
    {
        std::lock_guard lk(counters_m_);
        ++counters_.rendezvous;
    }
    enqueue(dest, header_only_frame(FrameKind::Rts, tag, seq, payload_bytes));
}

NetCounters FramedTransport::counters() const {
    std::lock_guard lk(counters_m_);
    return counters_;
}

std::vector<PeerStats> FramedTransport::peer_counters() const {
    std::lock_guard lk(counters_m_);
    return peers_;
}

std::span<std::byte> FramedTransport::read_target(int peer) {
    Inbound& in = inbound_[static_cast<std::size_t>(peer)];
    if (!in.payload) return {in.header_buf.data() + in.got, kHeaderBytes - in.got};
    return {in.payload->data() + in.got, in.payload->size() - in.got};
}

FramedTransport::ReadStatus FramedTransport::on_read(int peer, std::size_t n) {
    {
        std::lock_guard lk(counters_m_);
        counters_.bytes_received += n;
        peers_[static_cast<std::size_t>(peer)].bytes_received += n;
    }
    Inbound& in = inbound_[static_cast<std::size_t>(peer)];
    in.got += n;
    if (!in.payload) {
        if (in.got < kHeaderBytes) return ReadStatus::More;
        in.header = decode_header(in.header_buf);
        in.got = 0;
        if (in.header.magic != kWireMagic) return ReadStatus::Lost;
        if (in.header.payload_bytes > 0) {
            if (in.header.payload_bytes > kMaxPayloadBytes) return ReadStatus::Lost;
            try {
                in.payload = std::make_shared<std::vector<std::byte>>(
                    static_cast<std::size_t>(in.header.payload_bytes));
            } catch (const std::bad_alloc&) {
                return ReadStatus::Lost;
            }
            return ReadStatus::More;
        }
    } else if (in.got < in.payload->size()) {
        return ReadStatus::More;
    }
    // A whole frame is assembled.
    {
        std::lock_guard lk(counters_m_);
        ++counters_.frames_received;
        peers_[static_cast<std::size_t>(peer)].frames_received += 1;
    }
    in.got = 0;
    if (observer_ != nullptr) observer_->on_frame_received(peer, in.header);
    return handle_frame(peer, in, in.header, std::move(in.payload));
}

FramedTransport::ReadStatus FramedTransport::handle_frame(int peer, Inbound& in,
                                                          const FrameHeader& h,
                                                          FrameBuf payload) {
    const bool first = !in.started;
    in.started = true;
    switch (h.kind) {
        case FrameKind::Hello:
            return first && h.src == peer ? ReadStatus::More : ReadStatus::Lost;
        case FrameKind::Eager: {
            const std::span<const std::byte> view = bytes_of(payload);
            deliver_or_hold(peer, in, h.tag, std::move(payload), view);
            return ReadStatus::More;
        }
        case FrameKind::Coalesced: {
            // Unbatch: each sub-message is its own eager message, viewed in
            // place in the one frame buffer. The whole table is checked
            // before anything is delivered, so a corrupt frame delivers
            // nothing.
            const std::span<const std::byte> all = bytes_of(payload);
            if (h.aux > all.size() / kSubMsgEntryBytes) return ReadStatus::Lost;
            const auto count = static_cast<std::size_t>(h.aux);
            for (const bool deliver : {false, true}) {
                std::size_t off = count * kSubMsgEntryBytes;
                for (std::size_t i = 0; i < count; ++i) {
                    const SubMsgEntry e = decode_sub_entry(all.subspan(i * kSubMsgEntryBytes));
                    if (off > all.size() || e.bytes > all.size() - off) return ReadStatus::Lost;
                    const auto bytes = static_cast<std::size_t>(e.bytes);
                    if (deliver) deliver_or_hold(peer, in, e.tag, payload, all.subspan(off, bytes));
                    off += padded_sub_bytes(bytes);
                }
            }
            return ReadStatus::More;
        }
        case FrameKind::Rts:
            // Reserve the message's slot in the stream now and grant the
            // transfer; the payload fills the slot when Data arrives.
            in.held[h.tag].push_back(HeldFrame{true, h.seq, nullptr, {}});
            enqueue(peer, header_only_frame(FrameKind::Cts, h.tag, h.seq));
            return ReadStatus::More;
        case FrameKind::Cts: {
            PendingSend w;
            {
                std::lock_guard lk(rndz_m_);
                auto it = pending_rndz_.find({peer, h.seq});
                if (it == pending_rndz_.end()) return ReadStatus::Lost;
                w = std::move(it->second);
                pending_rndz_.erase(it);
            }
            rndz_cv_.notify_all();
            enqueue(peer, std::move(w.frame), std::move(w.on_sent));
            return ReadStatus::More;
        }
        case FrameKind::Data: {
            // Cts grants leave in stream order, so Data frames of one stream
            // arrive in placeholder order; fill the matching slot.
            auto it = in.held.find(h.tag);
            if (it == in.held.end()) return ReadStatus::Lost;
            auto& dq = it->second;
            auto slot = std::find_if(dq.begin(), dq.end(), [&](const HeldFrame& f) {
                return f.placeholder && f.seq == h.seq;
            });
            if (slot == dq.end()) return ReadStatus::Lost;
            slot->placeholder = false;
            slot->payload = bytes_of(payload);
            slot->storage = std::move(payload);
            // Release the in-order prefix that is now complete.
            while (!dq.empty() && !dq.front().placeholder) {
                HeldFrame f = std::move(dq.front());
                dq.pop_front();
                sink_->deliver(peer, h.tag, std::move(f.storage), f.payload);
            }
            if (dq.empty()) in.held.erase(it);
            return ReadStatus::More;
        }
        case FrameKind::Bye:
            return ReadStatus::Bye;
    }
    return ReadStatus::Lost;  // unknown kind
}

void FramedTransport::deliver_or_hold(int peer, Inbound& in, int tag, FrameBuf storage,
                                      std::span<const std::byte> payload) {
    auto it = in.held.find(tag);
    if (it != in.held.end() && !it->second.empty()) {
        it->second.push_back(HeldFrame{false, 0, std::move(storage), payload});
        return;
    }
    sink_->deliver(peer, tag, std::move(storage), payload);
}

void FramedTransport::count_sent(int dest, std::size_t bytes, std::uint64_t coalesced_messages) {
    std::lock_guard lk(counters_m_);
    ++counters_.frames_sent;
    counters_.bytes_sent += bytes;
    auto& ps = peers_[static_cast<std::size_t>(dest)];
    ps.frames_sent += 1;
    ps.bytes_sent += bytes;
    if (coalesced_messages > 0) {
        ++counters_.coalesced_frames_sent;
        counters_.coalesced_messages += coalesced_messages;
    }
}

void FramedTransport::count_reconnects(std::uint64_t n) {
    std::lock_guard lk(counters_m_);
    counters_.reconnects += n;
}

void FramedTransport::drop_pending_for(int peer) {
    std::vector<std::function<void()>> callbacks;
    {
        std::lock_guard lk(rndz_m_);
        for (auto it = pending_rndz_.begin(); it != pending_rndz_.end();) {
            if (it->first.first == peer) {
                if (it->second.on_sent) callbacks.push_back(std::move(it->second.on_sent));
                it = pending_rndz_.erase(it);
            } else {
                ++it;
            }
        }
    }
    rndz_cv_.notify_all();
    for (auto& cb : callbacks) cb();
}

void FramedTransport::drain_rendezvous() {
    std::unique_lock lk(rndz_m_);
    rndz_cv_.wait_for(lk, std::chrono::seconds(10), [&] { return pending_rndz_.empty(); });
    pending_rndz_.clear();
}

FrameHeader FramedTransport::make_header(FrameKind kind, int tag, std::uint32_t seq,
                                         std::uint64_t payload_bytes, std::uint64_t aux) const {
    FrameHeader h;
    h.kind = kind;
    h.src = rank_;
    h.tag = tag;
    h.seq = seq;
    h.payload_bytes = payload_bytes;
    h.aux = aux;
    return h;
}

FrameBuf FramedTransport::header_only_frame(FrameKind kind, int tag, std::uint32_t seq,
                                            std::uint64_t aux) const {
    auto buf = std::make_shared<std::vector<std::byte>>(kHeaderBytes);
    encode_header(make_header(kind, tag, seq, 0, aux), buf->data());
    return buf;
}

}  // namespace dfamr::net
