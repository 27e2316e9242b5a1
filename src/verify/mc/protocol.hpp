// Wire-protocol state-machine verification for the eager/rendezvous
// transports of src/net (wire.hpp + framed_transport.cpp).
//
// The protocol is encoded ONCE as explicit transition tables
// (kSenderTable / kReceiverTable), stepped by one function per table,
// step(), and consumed by two clients:
//
//  * check_protocol(): an explicit-state model checker of one frame-level
//    model. Two peers exchange eager messages (each carrying a send-order
//    id) and rendezvous transfers over per-direction FIFO channels; a
//    breadth-first search (state_space.hpp) enumerates every reachable
//    interleaving of send, deliver and fault actions under one FaultKind
//    perturbation (drop / delay / reorder / stall, mirroring
//    resilience::FaultPlan). With batch_cap >= 2 a COALESCE action also
//    merges two adjacent eager-like frames of a channel into one
//    Coalesced frame, like the writer thread batching consecutive
//    same-dest Eager frames (a control frame in between blocks the
//    merge); batch_cap 1 merges nothing. Proved over the full state space:
//      - safety: every frame event is legal per the transition tables,
//        and the sub-message ids inside any delivered frame increase
//        (no overtaking inside a coalesced frame);
//      - FIFO: under faults that keep the channel in order (none / drop /
//        stall) each direction's eager ids arrive in send order;
//      - deadlock-freedom: every non-final state has an enabled action;
//      - leak-freedom + credit conservation: in every final state every
//        eager id and rendezvous payload arrived exactly once and every
//        rendezvous machine is Done (each Rts got exactly one Cts, each
//        Cts exactly one Data).
//    Stall is modelled with an explicit per-direction gate; with fully
//    asynchronous delivery a stalled phase is also subsumed by plain
//    interleaving, so this mostly documents that fact in the state space.
//
//  * WireChecker: a net::WireObserver that validates LIVE traffic frame by
//    frame through the same step(). mpisim attaches one per endpoint under
//    DFAMR_VERIFY; a safety violation aborts the world at shutdown, a
//    rendezvous leak is reported only when the world shut down cleanly
//    (a killed peer legitimately strands its in-flight transfers).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lockdep.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dfamr::verify::mc {

// ----- the protocol, as data ------------------------------------------------

/// Per-rendezvous sender progress: Rts out, Cts back, Data out.
enum class SenderState : std::uint8_t { Idle, RtsSent, DataOwed, Done };
/// Per-rendezvous receiver progress: Rts in, Cts out, Data in.
enum class ReceiverState : std::uint8_t { Idle, CtsOwed, DataExpected, Done };

enum class SenderEvent : std::uint8_t { SendRts, RecvCts, SendData };
enum class ReceiverEvent : std::uint8_t { RecvRts, SendCts, RecvData };

inline constexpr std::uint8_t kInvalidState = 0xff;

/// sender_table[state][event] -> next state, kInvalidState = protocol error.
/// Row order matches SenderState, column order SenderEvent.
constexpr std::uint8_t kSenderTable[4][3] = {
    //                SendRts  RecvCts  SendData
    /* Idle     */ {1, kInvalidState, kInvalidState},
    /* RtsSent  */ {kInvalidState, 2, kInvalidState},
    /* DataOwed */ {kInvalidState, kInvalidState, 3},
    /* Done     */ {kInvalidState, kInvalidState, kInvalidState},
};

constexpr std::uint8_t kReceiverTable[4][3] = {
    //                 RecvRts  SendCts  RecvData
    /* Idle         */ {1, kInvalidState, kInvalidState},
    /* CtsOwed      */ {kInvalidState, 2, kInvalidState},
    /* DataExpected */ {kInvalidState, kInvalidState, 3},
    /* Done         */ {kInvalidState, kInvalidState, kInvalidState},
};

/// Steps one rendezvous machine by `ev` per its table. A rejected event
/// (kInvalidState) leaves `st` as it was and returns false.
inline bool step(SenderState& st, SenderEvent ev) {
    const std::uint8_t next = kSenderTable[static_cast<int>(st)][static_cast<int>(ev)];
    if (next == kInvalidState) return false;
    st = static_cast<SenderState>(next);
    return true;
}

inline bool step(ReceiverState& st, ReceiverEvent ev) {
    const std::uint8_t next = kReceiverTable[static_cast<int>(st)][static_cast<int>(ev)];
    if (next == kInvalidState) return false;
    st = static_cast<ReceiverState>(next);
    return true;
}

const char* to_string(SenderState s);
const char* to_string(ReceiverState s);

// ----- model checker --------------------------------------------------------

/// The perturbation under which the protocol is model-checked; mirrors the
/// fault classes of resilience::FaultPlan (crash is covered by the live
/// checker's lost-peer path, not the model).
enum class FaultKind : std::uint8_t { None, Drop, Delay, Reorder, Stall };

const char* to_string(FaultKind k);
std::vector<FaultKind> all_fault_kinds();

struct ModelOptions {
    FaultKind fault = FaultKind::None;
    int eager_per_direction = 1;
    int rndz_per_direction = 2;  // two seqs exercise credit bookkeeping
    int batch_cap = 1;           // max sub-messages per frame; 1 = no merges
    int max_extra_drops = 1;     // Drop: bounded pre-wire drops, like FaultPlan
    int max_delay_slots = 1;     // Delay: frames parked in flight at once
};

struct ModelResult {
    std::uint64_t states_explored = 0;
    std::uint64_t transitions = 0;
    std::uint64_t final_states = 0;
    bool deadlock_free = true;
    bool safe = true;        // no transition-table violation reachable
    bool leak_free = true;   // every final state delivered everything once
    bool credits_ok = true;  // every final state has all machines Done
    std::vector<std::string> violations;  // rendered witnesses

    bool clean() const { return deadlock_free && safe && leak_free && credits_ok; }
    std::string to_string() const;
};

/// Exhaustively explores the 2-peer frame model under `opts`.
ModelResult check_protocol(const ModelOptions& opts);

// ----- live-traffic checker -------------------------------------------------

/// Validates every frame one endpoint sends or receives against the
/// transition tables. Thread-safe (writer thread, reader thread and
/// connect_mesh all report frames).
class WireChecker final : public net::WireObserver {
public:
    explicit WireChecker(int rank) : rank_(rank) {}

    void on_frame_sent(int dest, const net::FrameHeader& h) override;
    void on_frame_received(int src, const net::FrameHeader& h) override;

    /// Safety violations observed so far (frame events the tables reject).
    std::vector<std::string> violations() const;
    /// Rendezvous transfers stuck mid-protocol. Only meaningful after the
    /// endpoint shut down; expected to be empty iff no peer died.
    std::vector<std::string> pending() const;
    std::uint64_t frames_checked() const;

private:
    struct Direction {
        bool saw_frame = false;
        bool saw_bye = false;
    };

    template <class Machine>
    using Machines = std::map<std::pair<int, std::uint32_t>, Machine>;  // (peer, seq)

    void on_frame(bool sent, int peer, const net::FrameHeader& h);
    template <class Machine, class Event>
    void advance(Machines<Machine>& machines, int peer, std::uint32_t seq, Event ev,
                 const std::string& what, const char* unknown);
    void violation(std::string msg);

    const int rank_;
    mutable lockdep::Mutex mutex_{"verify.wire"};
    std::uint64_t frames_ = 0;
    std::map<int, Direction> out_dir_;  // by peer
    std::map<int, Direction> in_dir_;
    Machines<SenderState> sending_;
    Machines<ReceiverState> receiving_;
    std::vector<std::string> violations_;
};

}  // namespace dfamr::verify::mc
