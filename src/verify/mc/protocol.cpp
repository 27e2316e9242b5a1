#include "verify/mc/protocol.hpp"

#include <deque>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace dfamr::verify::mc {

const char* to_string(SenderState s) {
    switch (s) {
        case SenderState::Idle: return "Idle";
        case SenderState::RtsSent: return "RtsSent";
        case SenderState::DataOwed: return "DataOwed";
        case SenderState::Done: return "Done";
    }
    return "?";
}

const char* to_string(ReceiverState s) {
    switch (s) {
        case ReceiverState::Idle: return "Idle";
        case ReceiverState::CtsOwed: return "CtsOwed";
        case ReceiverState::DataExpected: return "DataExpected";
        case ReceiverState::Done: return "Done";
    }
    return "?";
}

const char* to_string(FaultKind k) {
    switch (k) {
        case FaultKind::None: return "none";
        case FaultKind::Drop: return "drop";
        case FaultKind::Delay: return "delay";
        case FaultKind::Reorder: return "reorder";
        case FaultKind::Stall: return "stall";
    }
    return "?";
}

std::vector<FaultKind> all_fault_kinds() {
    return {FaultKind::None, FaultKind::Drop, FaultKind::Delay, FaultKind::Reorder,
            FaultKind::Stall};
}

namespace {

/// A frame in flight. Only the protocol-relevant fields: kind and seq.
struct MFrame {
    std::uint8_t kind = 0;  // net::FrameKind value
    std::uint8_t seq = 0;   // rendezvous seq (1-based), 0 for eager
};

/// One direction of travel d: peer d is the sender, peer 1-d the receiver.
/// Cts frames for direction d's transfers travel on channel 1-d but are
/// bookkept here, with the transfer they grant.
struct MDir {
    std::uint8_t eager_left = 0;
    std::uint8_t rndz_left = 0;
    std::uint8_t drops_left = 0;
    std::uint8_t next_seq = 1;
    std::uint8_t delivered = 0;
    std::uint8_t stalled = 0;
    std::vector<MFrame> channel;  // FIFO; [0] is oldest
    std::vector<MFrame> delayed;  // parked by the Delay fault
    std::vector<std::uint8_t> sender;    // per seq, SenderState
    std::vector<std::uint8_t> receiver;  // per seq, ReceiverState
};

struct MState {
    MDir dir[2];

    std::string key() const {
        std::string k;
        for (const MDir& d : dir) {
            k += static_cast<char>(d.eager_left);
            k += static_cast<char>(d.rndz_left);
            k += static_cast<char>(d.drops_left);
            k += static_cast<char>(d.next_seq);
            k += static_cast<char>(d.delivered);
            k += static_cast<char>(d.stalled);
            k += static_cast<char>(d.channel.size());
            for (const MFrame& f : d.channel) {
                k += static_cast<char>(f.kind);
                k += static_cast<char>(f.seq);
            }
            k += static_cast<char>(d.delayed.size());
            for (const MFrame& f : d.delayed) {
                k += static_cast<char>(f.kind);
                k += static_cast<char>(f.seq);
            }
            for (std::uint8_t s : d.sender) k += static_cast<char>(s);
            for (std::uint8_t s : d.receiver) k += static_cast<char>(s);
            k += '|';
        }
        return k;
    }
};

struct Checker {
    const ModelOptions& opts;
    ModelResult& res;

    void fail(bool& flag, const std::string& msg) {
        if (res.violations.size() < 16) res.violations.push_back(msg);
        flag = false;
    }

    bool step_sender(MState& s, int d, std::uint8_t seq, SenderEvent ev) {
        std::uint8_t& st = s.dir[d].sender[seq - 1];
        const std::uint8_t next = kSenderTable[st][static_cast<int>(ev)];
        if (next == kInvalidState) {
            std::ostringstream os;
            os << "protocol safety: sender machine dir" << d << " seq " << int(seq)
               << " in state " << to_string(static_cast<SenderState>(st))
               << " rejects event " << static_cast<int>(ev);
            fail(res.safe, os.str());
            return false;
        }
        st = next;
        return true;
    }

    bool step_receiver(MState& s, int d, std::uint8_t seq, ReceiverEvent ev) {
        std::uint8_t& st = s.dir[d].receiver[seq - 1];
        const std::uint8_t next = kReceiverTable[st][static_cast<int>(ev)];
        if (next == kInvalidState) {
            std::ostringstream os;
            os << "protocol safety: receiver machine dir" << d << " seq " << int(seq)
               << " in state " << to_string(static_cast<ReceiverState>(st))
               << " rejects event " << static_cast<int>(ev);
            fail(res.safe, os.str());
            return false;
        }
        st = next;
        return true;
    }

    /// Processes one frame arriving at the receiving end of channel `c` —
    /// the model twin of FramedTransport::handle_frame, including the synchronous
    /// Cts / Data enqueues. Returns false on a safety violation (the state
    /// is then not expanded further).
    bool process(MState& s, int c, const MFrame& f) {
        switch (static_cast<net::FrameKind>(f.kind)) {
            case net::FrameKind::Eager:
                ++s.dir[c].delivered;
                return true;
            case net::FrameKind::Rts: {
                // handle_frame reserves the slot and enqueues the Cts grant
                // synchronously, so both receiver-machine steps happen here.
                if (!step_receiver(s, c, f.seq, ReceiverEvent::RecvRts)) return false;
                if (!step_receiver(s, c, f.seq, ReceiverEvent::SendCts)) return false;
                s.dir[1 - c].channel.push_back(
                    MFrame{static_cast<std::uint8_t>(net::FrameKind::Cts), f.seq});
                return true;
            }
            case net::FrameKind::Cts: {
                // A Cts on channel c grants a transfer of direction 1-c; the
                // transport enqueues the Data frame synchronously.
                const int t = 1 - c;
                if (!step_sender(s, t, f.seq, SenderEvent::RecvCts)) return false;
                if (!step_sender(s, t, f.seq, SenderEvent::SendData)) return false;
                s.dir[t].channel.push_back(
                    MFrame{static_cast<std::uint8_t>(net::FrameKind::Data), f.seq});
                return true;
            }
            case net::FrameKind::Data: {
                if (!step_receiver(s, c, f.seq, ReceiverEvent::RecvData)) return false;
                ++s.dir[c].delivered;
                return true;
            }
            default: {
                std::ostringstream os;
                os << "protocol safety: unexpected frame kind " << int(f.kind)
                   << " on channel " << c;
                fail(res.safe, os.str());
                return false;
            }
        }
    }

    bool is_final(const MState& s) const {
        for (const MDir& d : s.dir) {
            if (d.eager_left != 0 || d.rndz_left != 0) return false;
            if (!d.channel.empty() || !d.delayed.empty()) return false;
        }
        return true;
    }

    void check_final(const MState& s) {
        ++res.final_states;
        const int expected = opts.eager_per_direction + opts.rndz_per_direction;
        for (int d = 0; d < 2; ++d) {
            if (s.dir[d].delivered != expected) {
                std::ostringstream os;
                os << "message leak: direction " << d << " delivered "
                   << int(s.dir[d].delivered) << " of " << expected;
                fail(res.leak_free, os.str());
            }
            for (std::size_t i = 0; i < s.dir[d].sender.size(); ++i) {
                if (s.dir[d].sender[i] != static_cast<std::uint8_t>(SenderState::Done) ||
                    s.dir[d].receiver[i] != static_cast<std::uint8_t>(ReceiverState::Done)) {
                    std::ostringstream os;
                    os << "credit violation: dir " << d << " seq " << (i + 1)
                       << " ended sender=" << to_string(static_cast<SenderState>(s.dir[d].sender[i]))
                       << " receiver="
                       << to_string(static_cast<ReceiverState>(s.dir[d].receiver[i]));
                    fail(res.credits_ok, os.str());
                }
            }
        }
    }

    /// All successor states of `s`. An empty result for a non-final state
    /// is a deadlock.
    std::vector<MState> successors(const MState& s) {
        std::vector<MState> out;
        for (int d = 0; d < 2; ++d) {
            const MDir& dir = s.dir[d];
            // App-layer sends.
            if (dir.eager_left > 0) {
                MState n = s;
                --n.dir[d].eager_left;
                n.dir[d].channel.push_back(
                    MFrame{static_cast<std::uint8_t>(net::FrameKind::Eager), 0});
                out.push_back(std::move(n));
                if (opts.fault == FaultKind::Drop && dir.drops_left > 0) {
                    // FaultPlan drops the message before it reaches the
                    // wire; the sender retries, so eager_left stays.
                    MState dn = s;
                    --dn.dir[d].drops_left;
                    out.push_back(std::move(dn));
                }
            }
            if (dir.rndz_left > 0) {
                MState n = s;
                MDir& nd = n.dir[d];
                --nd.rndz_left;
                const std::uint8_t seq = nd.next_seq++;
                if (step_sender(n, d, seq, SenderEvent::SendRts)) {
                    nd.channel.push_back(
                        MFrame{static_cast<std::uint8_t>(net::FrameKind::Rts), seq});
                    out.push_back(std::move(n));
                }
                if (opts.fault == FaultKind::Drop && dir.drops_left > 0) {
                    MState dn = s;
                    --dn.dir[d].drops_left;
                    out.push_back(std::move(dn));
                }
            }
            // Deliveries. TCP is FIFO per connection: only the channel head
            // is deliverable — except under Reorder, which models the
            // cross-stream reordering FaultPlan's delay scheduler allows.
            if (!dir.channel.empty() && dir.stalled == 0) {
                const std::size_t limit =
                    opts.fault == FaultKind::Reorder ? dir.channel.size() : 1;
                for (std::size_t i = 0; i < limit; ++i) {
                    MState n = s;
                    const MFrame f = n.dir[d].channel[i];
                    n.dir[d].channel.erase(n.dir[d].channel.begin() +
                                           static_cast<std::ptrdiff_t>(i));
                    if (process(n, d, f)) out.push_back(std::move(n));
                }
            }
            // Delay: park the head, let later frames overtake it.
            if (opts.fault == FaultKind::Delay && !dir.channel.empty() &&
                static_cast<int>(dir.delayed.size()) < opts.max_delay_slots) {
                MState n = s;
                n.dir[d].delayed.push_back(n.dir[d].channel.front());
                n.dir[d].channel.erase(n.dir[d].channel.begin());
                out.push_back(std::move(n));
            }
            if (!dir.delayed.empty() && dir.stalled == 0) {
                for (std::size_t i = 0; i < dir.delayed.size(); ++i) {
                    MState n = s;
                    const MFrame f = n.dir[d].delayed[i];
                    n.dir[d].delayed.erase(n.dir[d].delayed.begin() +
                                           static_cast<std::ptrdiff_t>(i));
                    if (process(n, d, f)) out.push_back(std::move(n));
                }
            }
            // Stall: an explicit delivery gate per direction. (With fully
            // asynchronous delivery a stalled phase is also subsumed by
            // interleaving; the gate makes those phases explicit states.)
            if (opts.fault == FaultKind::Stall) {
                MState n = s;
                n.dir[d].stalled = dir.stalled == 0 ? 1 : 0;
                out.push_back(std::move(n));
            }
        }
        return out;
    }
};

}  // namespace

ModelResult check_protocol(const ModelOptions& opts) {
    DFAMR_REQUIRE(opts.rndz_per_direction <= 200, "mc: rndz workload too large for seq encoding");
    ModelResult res;
    Checker chk{opts, res};

    MState init;
    for (int d = 0; d < 2; ++d) {
        init.dir[d].eager_left = static_cast<std::uint8_t>(opts.eager_per_direction);
        init.dir[d].rndz_left = static_cast<std::uint8_t>(opts.rndz_per_direction);
        init.dir[d].drops_left =
            opts.fault == FaultKind::Drop ? static_cast<std::uint8_t>(opts.max_extra_drops) : 0;
        init.dir[d].sender.assign(static_cast<std::size_t>(opts.rndz_per_direction),
                                  static_cast<std::uint8_t>(SenderState::Idle));
        init.dir[d].receiver.assign(static_cast<std::size_t>(opts.rndz_per_direction),
                                    static_cast<std::uint8_t>(ReceiverState::Idle));
    }

    std::set<std::string> visited;
    std::deque<MState> frontier;
    visited.insert(init.key());
    frontier.push_back(std::move(init));
    while (!frontier.empty()) {
        MState s = std::move(frontier.front());
        frontier.pop_front();
        ++res.states_explored;
        if (chk.is_final(s)) {
            chk.check_final(s);
            // Stall-gate toggles can still move; no need to expand further
            // from a final state.
            continue;
        }
        std::vector<MState> next = chk.successors(s);
        if (next.empty()) {
            std::ostringstream os;
            os << "deadlock: no enabled action (ch0=" << s.dir[0].channel.size()
               << " ch1=" << s.dir[1].channel.size() << " eager=" << int(s.dir[0].eager_left)
               << "/" << int(s.dir[1].eager_left) << ")";
            chk.fail(res.deadlock_free, os.str());
            continue;
        }
        for (MState& n : next) {
            ++res.transitions;
            std::string key = n.key();
            if (visited.insert(std::move(key)).second) frontier.push_back(std::move(n));
        }
    }
    return res;
}

std::string ModelResult::to_string() const {
    std::ostringstream os;
    os << states_explored << " states, " << transitions << " transitions, " << final_states
       << " final; safety=" << (safe ? "ok" : "VIOLATED")
       << " deadlock-free=" << (deadlock_free ? "ok" : "VIOLATED")
       << " leak-free=" << (leak_free ? "ok" : "VIOLATED")
       << " credits=" << (credits_ok ? "ok" : "VIOLATED");
    for (const std::string& v : violations) os << "\n  [witness] " << v;
    return os.str();
}

// ----- WireChecker ----------------------------------------------------------

void WireChecker::violation(std::string msg) {
    if (violations_.size() < 64) violations_.push_back(std::move(msg));
}

void WireChecker::on_frame_sent(int dest, const net::FrameHeader& h) {
    std::lock_guard lock(mutex_);
    ++frames_;
    Direction& dir = out_dir_[dest];
    std::ostringstream pre;
    pre << "rank " << rank_ << " -> " << dest << ": ";
    if (dir.saw_bye) violation(pre.str() + "frame after Bye");
    switch (h.kind) {
        case net::FrameKind::Hello:
            if (dir.saw_frame) violation(pre.str() + "Hello not first in direction");
            dir.saw_hello = true;
            break;
        case net::FrameKind::Bye:
            dir.saw_bye = true;
            break;
        case net::FrameKind::Eager:
            break;
        case net::FrameKind::Coalesced:
            // A batch of eager sub-messages: protocol-neutral like Eager (the
            // sub-message table is validated structurally by the transport).
            break;
        case net::FrameKind::Rts: {
            SenderState& st = sending_.try_emplace({dest, h.seq}, SenderState::Idle)
                                  .first->second;
            const std::uint8_t next =
                kSenderTable[static_cast<int>(st)][static_cast<int>(SenderEvent::SendRts)];
            if (next == kInvalidState) {
                violation(pre.str() + "Rts seq " + std::to_string(h.seq) + " in state " +
                          to_string(st));
            } else {
                st = static_cast<SenderState>(next);
            }
            break;
        }
        case net::FrameKind::Data: {
            auto it = sending_.find({dest, h.seq});
            if (it == sending_.end()) {
                violation(pre.str() + "Data seq " + std::to_string(h.seq) + " without Rts");
                break;
            }
            const std::uint8_t next = kSenderTable[static_cast<int>(it->second)]
                                                  [static_cast<int>(SenderEvent::SendData)];
            if (next == kInvalidState) {
                violation(pre.str() + "Data seq " + std::to_string(h.seq) + " in state " +
                          to_string(it->second));
            } else {
                it->second = static_cast<SenderState>(next);
            }
            break;
        }
        case net::FrameKind::Cts: {
            auto it = receiving_.find({dest, h.seq});
            if (it == receiving_.end()) {
                violation(pre.str() + "Cts seq " + std::to_string(h.seq) + " without Rts");
                break;
            }
            const std::uint8_t next = kReceiverTable[static_cast<int>(it->second)]
                                                    [static_cast<int>(ReceiverEvent::SendCts)];
            if (next == kInvalidState) {
                violation(pre.str() + "Cts seq " + std::to_string(h.seq) + " in state " +
                          to_string(it->second));
            } else {
                it->second = static_cast<ReceiverState>(next);
            }
            break;
        }
    }
    dir.saw_frame = true;
}

void WireChecker::on_frame_received(int src, const net::FrameHeader& h) {
    std::lock_guard lock(mutex_);
    ++frames_;
    Direction& dir = in_dir_[src];
    std::ostringstream pre;
    pre << "rank " << rank_ << " <- " << src << ": ";
    if (dir.saw_bye) violation(pre.str() + "frame after Bye");
    switch (h.kind) {
        case net::FrameKind::Hello:
            if (dir.saw_frame) violation(pre.str() + "Hello not first in direction");
            dir.saw_hello = true;
            break;
        case net::FrameKind::Bye:
            dir.saw_bye = true;
            break;
        case net::FrameKind::Eager:
            break;
        case net::FrameKind::Coalesced:
            break;
        case net::FrameKind::Rts: {
            ReceiverState& st = receiving_.try_emplace({src, h.seq}, ReceiverState::Idle)
                                    .first->second;
            const std::uint8_t next =
                kReceiverTable[static_cast<int>(st)][static_cast<int>(ReceiverEvent::RecvRts)];
            if (next == kInvalidState) {
                violation(pre.str() + "Rts seq " + std::to_string(h.seq) + " in state " +
                          to_string(st));
            } else {
                st = static_cast<ReceiverState>(next);
            }
            break;
        }
        case net::FrameKind::Cts: {
            auto it = sending_.find({src, h.seq});
            if (it == sending_.end()) {
                violation(pre.str() + "Cts seq " + std::to_string(h.seq) + " for unknown Rts");
                break;
            }
            const std::uint8_t next = kSenderTable[static_cast<int>(it->second)]
                                                  [static_cast<int>(SenderEvent::RecvCts)];
            if (next == kInvalidState) {
                violation(pre.str() + "Cts seq " + std::to_string(h.seq) + " in state " +
                          to_string(it->second));
            } else {
                it->second = static_cast<SenderState>(next);
            }
            break;
        }
        case net::FrameKind::Data: {
            auto it = receiving_.find({src, h.seq});
            if (it == receiving_.end()) {
                violation(pre.str() + "Data seq " + std::to_string(h.seq) + " without Rts");
                break;
            }
            const std::uint8_t next = kReceiverTable[static_cast<int>(it->second)]
                                                    [static_cast<int>(ReceiverEvent::RecvData)];
            if (next == kInvalidState) {
                violation(pre.str() + "Data seq " + std::to_string(h.seq) + " in state " +
                          to_string(it->second));
            } else {
                it->second = static_cast<ReceiverState>(next);
            }
            break;
        }
    }
    dir.saw_frame = true;
}

std::vector<std::string> WireChecker::violations() const {
    std::lock_guard lock(mutex_);
    return violations_;
}

std::vector<std::string> WireChecker::pending() const {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    for (const auto& [key, st] : sending_) {
        if (st != SenderState::Done) {
            out.push_back("rank " + std::to_string(rank_) + " -> " + std::to_string(key.first) +
                          " seq " + std::to_string(key.second) + " stuck at " + to_string(st));
        }
    }
    for (const auto& [key, st] : receiving_) {
        if (st != ReceiverState::Done) {
            out.push_back("rank " + std::to_string(rank_) + " <- " + std::to_string(key.first) +
                          " seq " + std::to_string(key.second) + " stuck at " + to_string(st));
        }
    }
    return out;
}

std::uint64_t WireChecker::frames_checked() const {
    std::lock_guard lock(mutex_);
    return frames_;
}

}  // namespace dfamr::verify::mc
