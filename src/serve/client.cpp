#include "serve/client.hpp"

#include <sys/socket.h>

#include <mutex>

#include "common/error.hpp"

namespace dfamr::serve {

Client::Client(const net::HostPort& addr) {
    sock_ = net::dial(addr, /*attempts=*/50);
    sock_.set_nodelay(true);
    reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() {
    close();
    if (reader_.joinable()) reader_.join();
}

void Client::close() {
    {
        std::lock_guard<lockdep::Mutex> lock(mutex_);
        if (closed_) return;
        closed_ = true;
        try {
            write_frame(sock_, FrameKind::Bye, 0, {});
        } catch (const std::exception&) {
        }
        if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
    }
    if (reader_.joinable() && reader_.get_id() != std::this_thread::get_id()) {
        reader_.join();
    }
}

void Client::send_frame(FrameKind kind, std::uint64_t ref,
                        const std::vector<std::byte>& payload) {
    std::lock_guard<lockdep::Mutex> lock(mutex_);
    DFAMR_REQUIRE(!closed_, "serve client: connection closed");
    write_frame(sock_, kind, ref, payload);
}

std::uint64_t Client::submit(const JobSpec& spec) {
    std::vector<std::byte> payload;
    encode_job_spec(spec, payload);
    std::lock_guard<lockdep::Mutex> lock(mutex_);
    DFAMR_REQUIRE(!closed_, "serve client: connection closed");
    const std::uint64_t ref = next_ref_++;
    Slot& slot = slots_[ref];
    slot.submitted = std::chrono::steady_clock::now();
    const int now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = peak_inflight_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_inflight_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    write_frame(sock_, FrameKind::Submit, ref, payload);
    return ref;
}

ClientJobResult Client::wait(std::uint64_t ref) {
    std::unique_lock<lockdep::Mutex> lock(mutex_);
    const auto it = slots_.find(ref);
    DFAMR_REQUIRE(it != slots_.end(), "serve client: wait on unknown job ref");
    cv_.wait(lock, [&] { return it->second.terminal; });
    return it->second.result;
}

void Client::cancel(std::uint64_t ref) { send_frame(FrameKind::Cancel, ref, {}); }

ServerStats Client::stats() {
    std::unique_lock<lockdep::Mutex> lock(mutex_);
    DFAMR_REQUIRE(!closed_, "serve client: connection closed");
    const std::uint64_t want = stats_generation_ + 1;
    write_frame(sock_, FrameKind::StatsReq, 0, {});
    cv_.wait(lock, [&] { return stats_generation_ >= want || closed_; });
    DFAMR_REQUIRE(stats_generation_ >= want, "serve client: connection lost awaiting stats");
    return last_stats_;
}

Client::Slot& Client::slot_locked(std::uint64_t ref) {
    const auto it = slots_.find(ref);
    DFAMR_REQUIRE(it != slots_.end(), "serve client: frame for unknown job ref");
    return it->second;
}

void Client::reader_loop() {
    try {
        FrameHeader header;
        std::vector<std::byte> payload;
        while (read_frame(sock_, header, payload)) {
            const auto kind = static_cast<FrameKind>(header.kind);
            std::lock_guard<lockdep::Mutex> lock(mutex_);
            switch (kind) {
                case FrameKind::Accepted: slot_locked(header.job_id).result.accepted = true; break;
                case FrameKind::Rejected: {
                    Slot& slot = slot_locked(header.job_id);
                    slot.result.error = decode_string(payload.data(), payload.size());
                    slot.result.latency_s =
                        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      slot.submitted)
                            .count();
                    slot.terminal = true;
                    inflight_.fetch_sub(1, std::memory_order_relaxed);
                    cv_.notify_all();
                    break;
                }
                case FrameKind::Progress:
                    ++slot_locked(header.job_id).result.progress_frames;
                    break;
                case FrameKind::Done: {
                    Slot& slot = slot_locked(header.job_id);
                    const JobDone d = decode_job_done(payload.data(), payload.size());
                    // Done and Failed imply acceptance. They can overtake the
                    // Accepted frame: the server writes that after its submit
                    // call returns, and a short job may already have finished
                    // on the pool by then.
                    slot.result.accepted = true;
                    slot.result.done = true;
                    slot.result.checksums = d.checksums;
                    slot.result.elapsed_s = d.elapsed_s;
                    slot.result.suspends = d.suspends;
                    slot.result.retries = d.retries;
                    slot.result.latency_s =
                        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      slot.submitted)
                            .count();
                    slot.terminal = true;
                    inflight_.fetch_sub(1, std::memory_order_relaxed);
                    cv_.notify_all();
                    break;
                }
                case FrameKind::Failed: {
                    Slot& slot = slot_locked(header.job_id);
                    slot.result.accepted = true;
                    slot.result.error = decode_string(payload.data(), payload.size());
                    slot.result.latency_s =
                        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      slot.submitted)
                            .count();
                    slot.terminal = true;
                    inflight_.fetch_sub(1, std::memory_order_relaxed);
                    cv_.notify_all();
                    break;
                }
                case FrameKind::Stats: {
                    last_stats_ = decode_server_stats(payload.data(), payload.size());
                    ++stats_generation_;
                    cv_.notify_all();
                    break;
                }
                default:
                    throw Error("serve client: unexpected server frame kind " +
                                std::to_string(header.kind));
            }
        }
    } catch (const std::exception&) {
        // Connection torn down (or protocol error): resolve every waiter.
    }
    std::lock_guard<lockdep::Mutex> lock(mutex_);
    closed_ = true;
    for (auto& [ref, slot] : slots_) {
        if (slot.terminal) continue;
        slot.result.error = "connection lost";
        slot.terminal = true;
        inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
}

}  // namespace dfamr::serve
