#include "verify/mc/transport_models.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "verify/mc/state_space.hpp"

namespace dfamr::verify::mc {

namespace {

/// Producer and consumer progress over the byte stream. The ring fill is
/// derived (bytes produced minus bytes consumed), so the state is just the
/// two cursors plus the fault bookkeeping.
struct RState {
    std::uint8_t prod_frame = 0;  // frames fully written
    std::uint8_t prod_bytes = 0;  // partial bytes of frame prod_frame
    std::uint8_t cons_frame = 0;  // frames fully delivered
    std::uint8_t cons_bytes = 0;  // partial bytes of frame cons_frame
    std::uint8_t drops_left = 0;
    std::uint8_t stalled = 0;

    std::string key() const {
        std::string k;
        k += static_cast<char>(prod_frame);
        k += static_cast<char>(prod_bytes);
        k += static_cast<char>(cons_frame);
        k += static_cast<char>(cons_bytes);
        k += static_cast<char>(drops_left);
        k += static_cast<char>(stalled);
        return k;
    }
};

struct RingModel {
    const ShmRingOptions& opts;

    int prefix(int frames) const {
        int sum = 0;
        for (int i = 0; i < frames; ++i) sum += opts.frame_sizes[static_cast<std::size_t>(i)];
        return sum;
    }

    int fill(const RState& s) const {
        return prefix(s.prod_frame) + s.prod_bytes - prefix(s.cons_frame) - s.cons_bytes;
    }

    /// The bounded-fill safety invariant, checked on every reachable state.
    bool check_fill(const RState& s, ModelResult& res) const {
        const int f = fill(s);
        if (f < 0 || f > opts.capacity) {
            std::ostringstream os;
            os << "ring safety: fill " << f << " outside [0, " << opts.capacity << "] at prod="
               << int(s.prod_frame) << "+" << int(s.prod_bytes) << " cons=" << int(s.cons_frame)
               << "+" << int(s.cons_bytes);
            fail(res, res.safe, os.str());
            return false;
        }
        return true;
    }

    bool is_final(const RState& s) const {
        const int n = static_cast<int>(opts.frame_sizes.size());
        return s.prod_frame == n && s.cons_frame == n;
    }

    void check_final(const RState& s, ModelResult& res) const {
        ++res.final_states;
        // cons_frame advances only through complete, in-order frames, so
        // reaching n IS the delivery property; the leak check restates it.
        if (s.cons_frame != static_cast<int>(opts.frame_sizes.size()) || s.cons_bytes != 0) {
            std::ostringstream os;
            os << "frame leak: consumer finished at frame " << int(s.cons_frame) << " byte "
               << int(s.cons_bytes) << " of " << opts.frame_sizes.size() << " frames";
            fail(res, res.leak_free, os.str());
        }
    }

    std::string describe(const RState& s) const {
        std::ostringstream os;
        os << "at prod=" << int(s.prod_frame) << "+" << int(s.prod_bytes)
           << " cons=" << int(s.cons_frame) << "+" << int(s.cons_bytes) << " fill=" << fill(s)
           << "/" << opts.capacity;
        return os.str();
    }

    std::vector<RState> successors(const RState& s, ModelResult& res) const {
        std::vector<RState> out;
        const int n = static_cast<int>(opts.frame_sizes.size());
        // Producer: drop the next frame pre-write (retried, so the frame
        // still goes out later — mirrors FaultPlan's send-side drop).
        if (opts.fault == FaultKind::Drop && s.drops_left > 0 && s.prod_frame < n &&
            s.prod_bytes == 0) {
            RState d = s;
            --d.drops_left;
            out.push_back(d);
        }
        // Producer: write 1 byte or everything that fits right now. The
        // two amounts bound every real partial-write schedule.
        if (s.prod_frame < n) {
            const int free = opts.capacity - fill(s);
            const int remaining =
                opts.frame_sizes[static_cast<std::size_t>(s.prod_frame)] - s.prod_bytes;
            const int max_write = std::min(free, remaining);
            for (int amount : {1, max_write}) {
                if (amount < 1 || amount > max_write) continue;
                RState w = s;
                w.prod_bytes = static_cast<std::uint8_t>(w.prod_bytes + amount);
                if (w.prod_bytes ==
                    opts.frame_sizes[static_cast<std::size_t>(w.prod_frame)]) {
                    ++w.prod_frame;
                    w.prod_bytes = 0;
                }
                if (check_fill(w, res)) out.push_back(w);
                if (amount == max_write) break;  // 1 == max_write: one action
            }
        }
        // Consumer: read 1 byte or everything available for the current
        // frame. Bytes leave the ring FIFO, so they always belong to
        // cons_frame — a byte stream cannot reorder (Reorder adds nothing).
        if (s.cons_frame < n && s.stalled == 0) {
            const int wanted =
                opts.frame_sizes[static_cast<std::size_t>(s.cons_frame)] - s.cons_bytes;
            const int avail = std::min(fill(s), wanted);
            for (int amount : {1, avail}) {
                if (amount < 1 || amount > avail) continue;
                RState r = s;
                r.cons_bytes = static_cast<std::uint8_t>(r.cons_bytes + amount);
                if (r.cons_bytes ==
                    opts.frame_sizes[static_cast<std::size_t>(r.cons_frame)]) {
                    ++r.cons_frame;
                    r.cons_bytes = 0;
                }
                if (check_fill(r, res)) out.push_back(r);
                if (amount == avail) break;
            }
        }
        // Stall: gate the consumer (the progress thread pinned elsewhere).
        // Delay is a paused thread — already subsumed by interleaving.
        if (opts.fault == FaultKind::Stall) {
            RState t = s;
            t.stalled = s.stalled == 0 ? 1 : 0;
            out.push_back(t);
        }
        return out;
    }
};

}  // namespace

ModelResult check_shm_ring(const ShmRingOptions& opts) {
    DFAMR_REQUIRE(!opts.frame_sizes.empty(), "mc: ring workload is empty");
    DFAMR_REQUIRE(opts.capacity >= 1, "mc: ring capacity must be positive");
    int total = 0;
    for (int sz : opts.frame_sizes) {
        DFAMR_REQUIRE(sz >= 1 && sz <= 200, "mc: ring frame size out of range");
        total += sz;
    }
    DFAMR_REQUIRE(total <= 200 && opts.frame_sizes.size() <= 200,
                  "mc: ring workload too large for byte encoding");
    // The initial state is empty, so the fill invariant holds there.
    RState init;
    init.drops_left =
        opts.fault == FaultKind::Drop ? static_cast<std::uint8_t>(opts.max_extra_drops) : 0;
    return explore_states(RingModel{opts}, init);
}

}  // namespace dfamr::verify::mc
