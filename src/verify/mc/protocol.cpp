#include "verify/mc/protocol.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "verify/mc/state_space.hpp"

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

/// A frame in flight. Eager-like frames carry the send-order ids of their
/// sub-messages (one id for a plain Eager, several for a Coalesced frame);
/// rendezvous control frames carry their seq.
struct Frame {
    net::FrameKind kind = net::FrameKind::Eager;
    std::uint8_t seq = 0;  // rendezvous seq (1-based), 0 for eager-like
    std::vector<std::uint8_t> ids;

    bool eager_like() const {
        return kind == net::FrameKind::Eager || kind == net::FrameKind::Coalesced;
    }
};

/// One direction of travel d: peer d is the sender, peer 1-d the receiver.
/// Cts frames for direction d's transfers travel on channel 1-d but are
/// bookkept here, with the transfer they grant.
struct Dir {
    std::uint8_t eager_left = 0;
    std::uint8_t next_id = 1;
    std::uint8_t rndz_left = 0;
    std::uint8_t next_seq = 1;
    std::uint8_t drops_left = 0;
    std::uint8_t rndz_delivered = 0;
    std::uint8_t stalled = 0;
    std::vector<std::uint8_t> delivered_ids;  // eager ids, arrival order
    std::vector<Frame> channel;               // FIFO; [0] is oldest
    std::vector<Frame> delayed;               // parked by the Delay fault
    std::vector<SenderState> sender;          // per seq
    std::vector<ReceiverState> receiver;      // per seq
};

struct State {
    Dir dir[2];

    std::string key() const {
        std::string k;
        const auto frame = [&k](const Frame& f) {
            k += static_cast<char>(f.kind);
            k += static_cast<char>(f.seq);
            k += static_cast<char>(f.ids.size());
            for (std::uint8_t id : f.ids) k += static_cast<char>(id);
        };
        for (const Dir& d : dir) {
            k += static_cast<char>(d.eager_left);
            k += static_cast<char>(d.next_id);
            k += static_cast<char>(d.rndz_left);
            k += static_cast<char>(d.next_seq);
            k += static_cast<char>(d.drops_left);
            k += static_cast<char>(d.rndz_delivered);
            k += static_cast<char>(d.stalled);
            k += static_cast<char>(d.delivered_ids.size());
            for (std::uint8_t id : d.delivered_ids) k += static_cast<char>(id);
            k += static_cast<char>(d.channel.size());
            for (const Frame& f : d.channel) frame(f);
            k += static_cast<char>(d.delayed.size());
            for (const Frame& f : d.delayed) frame(f);
            for (SenderState st : d.sender) k += static_cast<char>(st);
            for (ReceiverState st : d.receiver) k += static_cast<char>(st);
            k += '|';
        }
        return k;
    }
};

struct FrameModel {
    const ModelOptions& opts;

    /// Faults that leave the channel FIFO: delivery order of eager ids must
    /// then be globally increasing, coalesced or not. (Drop is pre-wire
    /// with retry, so nothing that reached the channel moved.)
    bool fifo_faults() const {
        return opts.fault == FaultKind::None || opts.fault == FaultKind::Drop ||
               opts.fault == FaultKind::Stall;
    }

    /// Steps the seq'th machine of `machines` (direction d); a rejected
    /// event is a safety violation.
    template <class Machine, class Event>
    static bool advance(std::vector<Machine>& machines, const char* role, int d, std::uint8_t seq,
                        Event ev, ModelResult& res) {
        Machine& st = machines[seq - 1];
        if (step(st, ev)) return true;
        std::ostringstream os;
        os << "protocol safety: " << role << " machine dir" << d << " seq " << int(seq)
           << " in state " << to_string(st) << " rejects event " << static_cast<int>(ev);
        fail(res, res.safe, os.str());
        return false;
    }

    /// Processes one frame arriving at the receiving end of channel `c` —
    /// the model twin of FramedTransport::handle_frame, including the
    /// synchronous Cts / Data enqueues. Unpacks eager-like frames, checking
    /// the two ordering properties. Returns false on a safety violation
    /// (the state is then not expanded further).
    bool process(State& s, int c, const Frame& f, ModelResult& res) const {
        Dir& d = s.dir[c];
        if (f.eager_like()) {
            std::uint8_t prev_in_frame = 0;
            for (std::uint8_t id : f.ids) {
                if (id <= prev_in_frame) {
                    std::ostringstream os;
                    os << "overtaking inside a coalesced frame: dir " << c << " id " << int(id)
                       << " after id " << int(prev_in_frame);
                    fail(res, res.safe, os.str());
                    return false;
                }
                prev_in_frame = id;
                if (fifo_faults() && !d.delivered_ids.empty() && id <= d.delivered_ids.back()) {
                    std::ostringstream os;
                    os << "eager FIFO broken under fault " << to_string(opts.fault) << ": dir "
                       << c << " id " << int(id) << " after id " << int(d.delivered_ids.back());
                    fail(res, res.safe, os.str());
                    return false;
                }
                d.delivered_ids.push_back(id);
            }
            return true;
        }
        // A Cts on channel c grants a transfer of direction t = 1-c.
        const int t = 1 - c;
        switch (f.kind) {
            case net::FrameKind::Rts:
                // handle_frame reserves the slot and enqueues the Cts grant
                // synchronously, so both receiver-machine steps happen here.
                if (!advance(d.receiver, "receiver", c, f.seq, ReceiverEvent::RecvRts, res) ||
                    !advance(d.receiver, "receiver", c, f.seq, ReceiverEvent::SendCts, res)) {
                    return false;
                }
                s.dir[t].channel.push_back(Frame{net::FrameKind::Cts, f.seq, {}});
                return true;
            case net::FrameKind::Cts:
                if (!advance(s.dir[t].sender, "sender", t, f.seq, SenderEvent::RecvCts, res) ||
                    !advance(s.dir[t].sender, "sender", t, f.seq, SenderEvent::SendData, res)) {
                    return false;
                }
                s.dir[t].channel.push_back(Frame{net::FrameKind::Data, f.seq, {}});
                return true;
            case net::FrameKind::Data:
                if (!advance(d.receiver, "receiver", c, f.seq, ReceiverEvent::RecvData, res)) {
                    return false;
                }
                ++d.rndz_delivered;
                return true;
            default: {
                std::ostringstream os;
                os << "protocol safety: unexpected frame kind " << int(f.kind) << " on channel "
                   << c;
                fail(res, res.safe, os.str());
                return false;
            }
        }
    }

    bool is_final(const State& s) const {
        for (const Dir& d : s.dir) {
            if (d.eager_left != 0 || d.rndz_left != 0) return false;
            if (!d.channel.empty() || !d.delayed.empty()) return false;
        }
        return true;
    }

    void check_final(const State& s, ModelResult& res) const {
        ++res.final_states;
        for (int d = 0; d < 2; ++d) {
            // Every eager id exactly once (order already checked en route).
            std::vector<std::uint8_t> got = s.dir[d].delivered_ids;
            std::sort(got.begin(), got.end());
            bool exact = got.size() == static_cast<std::size_t>(opts.eager_per_direction);
            for (std::size_t i = 0; exact && i < got.size(); ++i) {
                exact = got[i] == static_cast<std::uint8_t>(i + 1);
            }
            if (!exact) {
                std::ostringstream os;
                os << "eager leak: direction " << d << " delivered " << got.size() << " of "
                   << opts.eager_per_direction << " ids (or a duplicate)";
                fail(res, res.leak_free, os.str());
            }
            if (s.dir[d].rndz_delivered != opts.rndz_per_direction) {
                std::ostringstream os;
                os << "rendezvous leak: direction " << d << " delivered "
                   << int(s.dir[d].rndz_delivered) << " of " << opts.rndz_per_direction;
                fail(res, res.leak_free, os.str());
            }
            for (std::size_t i = 0; i < s.dir[d].sender.size(); ++i) {
                if (s.dir[d].sender[i] != SenderState::Done ||
                    s.dir[d].receiver[i] != ReceiverState::Done) {
                    std::ostringstream os;
                    os << "credit violation: dir " << d << " seq " << (i + 1)
                       << " ended sender=" << to_string(s.dir[d].sender[i])
                       << " receiver=" << to_string(s.dir[d].receiver[i]);
                    fail(res, res.credits_ok, os.str());
                }
            }
        }
    }

    std::string describe(const State& s) const {
        std::ostringstream os;
        os << "(ch0=" << s.dir[0].channel.size() << " ch1=" << s.dir[1].channel.size()
           << " eager=" << int(s.dir[0].eager_left) << "/" << int(s.dir[1].eager_left) << ")";
        return os.str();
    }

    std::vector<State> successors(const State& s, ModelResult& res) const {
        std::vector<State> out;
        for (int d = 0; d < 2; ++d) {
            const Dir& dir = s.dir[d];
            // App-layer sends. Ids are assigned when the send succeeds;
            // FaultPlan drops a message before it reaches the wire and the
            // sender retries, so a drop consumes neither a send nor an id.
            if (dir.eager_left > 0) {
                State n = s;
                Dir& nd = n.dir[d];
                --nd.eager_left;
                nd.channel.push_back(Frame{net::FrameKind::Eager, 0, {nd.next_id}});
                ++nd.next_id;
                out.push_back(std::move(n));
                if (opts.fault == FaultKind::Drop && dir.drops_left > 0) {
                    State dn = s;
                    --dn.dir[d].drops_left;
                    out.push_back(std::move(dn));
                }
            }
            if (dir.rndz_left > 0) {
                State n = s;
                Dir& nd = n.dir[d];
                --nd.rndz_left;
                const std::uint8_t seq = nd.next_seq++;
                if (advance(nd.sender, "sender", d, seq, SenderEvent::SendRts, res)) {
                    nd.channel.push_back(Frame{net::FrameKind::Rts, seq, {}});
                    out.push_back(std::move(n));
                }
                if (opts.fault == FaultKind::Drop && dir.drops_left > 0) {
                    State dn = s;
                    --dn.dir[d].drops_left;
                    out.push_back(std::move(dn));
                }
            }
            // The writer: merge two ADJACENT eager-like frames into one
            // Coalesced frame. A control frame in between blocks the merge,
            // mirroring pop_write_batch stopping at the first non-Eager
            // frame for the destination. (The real writer merges only at
            // the queue head; allowing any adjacent pair over-approximates,
            // checking strictly more interleavings.)
            for (std::size_t i = 0; i + 1 < dir.channel.size(); ++i) {
                const Frame& a = dir.channel[i];
                const Frame& b = dir.channel[i + 1];
                if (!a.eager_like() || !b.eager_like()) continue;
                if (a.ids.size() + b.ids.size() > static_cast<std::size_t>(opts.batch_cap)) {
                    continue;
                }
                State n = s;
                Frame merged{net::FrameKind::Coalesced, 0, a.ids};
                merged.ids.insert(merged.ids.end(), b.ids.begin(), b.ids.end());
                auto& ch = n.dir[d].channel;
                ch[i] = std::move(merged);
                ch.erase(ch.begin() + static_cast<std::ptrdiff_t>(i + 1));
                out.push_back(std::move(n));
            }
            // Deliveries. TCP is FIFO per connection: only the channel head
            // is deliverable — except under Reorder, which models the
            // cross-stream reordering FaultPlan's delay scheduler allows.
            if (!dir.channel.empty() && dir.stalled == 0) {
                const std::size_t limit =
                    opts.fault == FaultKind::Reorder ? dir.channel.size() : 1;
                for (std::size_t i = 0; i < limit; ++i) {
                    State n = s;
                    const Frame f = n.dir[d].channel[i];
                    n.dir[d].channel.erase(n.dir[d].channel.begin() +
                                           static_cast<std::ptrdiff_t>(i));
                    if (process(n, d, f, res)) out.push_back(std::move(n));
                }
            }
            // Delay: park the head, let later frames overtake it.
            if (opts.fault == FaultKind::Delay && !dir.channel.empty() &&
                static_cast<int>(dir.delayed.size()) < opts.max_delay_slots) {
                State n = s;
                n.dir[d].delayed.push_back(n.dir[d].channel.front());
                n.dir[d].channel.erase(n.dir[d].channel.begin());
                out.push_back(std::move(n));
            }
            if (!dir.delayed.empty() && dir.stalled == 0) {
                for (std::size_t i = 0; i < dir.delayed.size(); ++i) {
                    State n = s;
                    const Frame f = n.dir[d].delayed[i];
                    n.dir[d].delayed.erase(n.dir[d].delayed.begin() +
                                           static_cast<std::ptrdiff_t>(i));
                    if (process(n, d, f, res)) out.push_back(std::move(n));
                }
            }
            // Stall: an explicit delivery gate per direction. (With fully
            // asynchronous delivery a stalled phase is also subsumed by
            // interleaving; the gate makes those phases explicit states.)
            if (opts.fault == FaultKind::Stall) {
                State n = s;
                n.dir[d].stalled = dir.stalled == 0 ? 1 : 0;
                out.push_back(std::move(n));
            }
        }
        return out;
    }
};

}  // namespace

ModelResult check_protocol(const ModelOptions& opts) {
    DFAMR_REQUIRE(opts.eager_per_direction <= 200 && opts.rndz_per_direction <= 200,
                  "mc: workload too large for id encoding");
    DFAMR_REQUIRE(opts.batch_cap >= 1, "mc: batch_cap must be at least 1");
    State init;
    for (Dir& d : init.dir) {
        d.eager_left = static_cast<std::uint8_t>(opts.eager_per_direction);
        d.rndz_left = static_cast<std::uint8_t>(opts.rndz_per_direction);
        d.drops_left =
            opts.fault == FaultKind::Drop ? static_cast<std::uint8_t>(opts.max_extra_drops) : 0;
        d.sender.assign(static_cast<std::size_t>(opts.rndz_per_direction), SenderState::Idle);
        d.receiver.assign(static_cast<std::size_t>(opts.rndz_per_direction), ReceiverState::Idle);
    }
    return explore_states(FrameModel{opts}, std::move(init));
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

void WireChecker::on_frame_sent(int dest, const net::FrameHeader& h) { on_frame(true, dest, h); }

void WireChecker::on_frame_received(int src, const net::FrameHeader& h) {
    on_frame(false, src, h);
}

/// Steps the (peer, seq) machine of `machines`. An Rts (`unknown` null)
/// opens it; any other frame for a machine never opened is a violation
/// named by `unknown`.
template <class Machine, class Event>
void WireChecker::advance(Machines<Machine>& machines, int peer, std::uint32_t seq, Event ev,
                          const std::string& what, const char* unknown) {
    const auto it = unknown == nullptr ? machines.try_emplace({peer, seq}, Machine::Idle).first
                                       : machines.find({peer, seq});
    if (it == machines.end()) {
        violation(what + unknown);
    } else if (!step(it->second, ev)) {
        violation(what + " in state " + to_string(it->second));
    }
}

void WireChecker::on_frame(bool sent, int peer, const net::FrameHeader& h) {
    std::lock_guard lock(mutex_);
    ++frames_;
    Direction& dir = (sent ? out_dir_ : in_dir_)[peer];
    const std::string pre =
        "rank " + std::to_string(rank_) + (sent ? " -> " : " <- ") + std::to_string(peer) + ": ";
    const std::string seq = " seq " + std::to_string(h.seq);
    if (dir.saw_bye) violation(pre + "frame after Bye");
    switch (h.kind) {
        case net::FrameKind::Hello:
            if (dir.saw_frame) violation(pre + "Hello not first in direction");
            break;
        case net::FrameKind::Bye:
            dir.saw_bye = true;
            break;
        case net::FrameKind::Eager:
        case net::FrameKind::Coalesced:
            // A Coalesced frame is a batch of eager sub-messages: protocol-
            // neutral like Eager (the transport validates its sub-message
            // table structurally).
            break;
        case net::FrameKind::Rts:
            if (sent) {
                advance(sending_, peer, h.seq, SenderEvent::SendRts, pre + "Rts" + seq, nullptr);
            } else {
                advance(receiving_, peer, h.seq, ReceiverEvent::RecvRts, pre + "Rts" + seq,
                        nullptr);
            }
            break;
        case net::FrameKind::Cts:
            if (sent) {
                advance(receiving_, peer, h.seq, ReceiverEvent::SendCts, pre + "Cts" + seq,
                        " without Rts");
            } else {
                advance(sending_, peer, h.seq, SenderEvent::RecvCts, pre + "Cts" + seq,
                        " for unknown Rts");
            }
            break;
        case net::FrameKind::Data:
            if (sent) {
                advance(sending_, peer, h.seq, SenderEvent::SendData, pre + "Data" + seq,
                        " without Rts");
            } else {
                advance(receiving_, peer, h.seq, ReceiverEvent::RecvData, pre + "Data" + seq,
                        " without Rts");
            }
            break;
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
