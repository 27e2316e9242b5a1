#include "core/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <vector>

namespace dfamr::core {

namespace {

/// A double that reads back bit for bit; JSON has no NaN or infinity, so
/// those become null.
std::string exact_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Appends a JSON object member by member: one member per line, two spaces
/// of indent per level of nesting.
class JsonWriter {
public:
    void open(const char* key) {
        member(key) += '{';
        ++depth_;
        first_ = true;
    }
    void close() {
        --depth_;
        if (!first_) newline();
        out_ += '}';
        first_ = false;
    }
    template <std::integral T>
    void integer(const char* key, T v) { member(key) += std::to_string(v); }
    void fixed(const char* key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", v);
        member(key) += buf;
    }
    void exact(const char* key, double v) { member(key) += exact_number(v); }
    void boolean(const char* key, bool v) { member(key) += v ? "true" : "false"; }
    void string(const char* key, const char* v) { member(key) += '"' + std::string(v) + '"'; }
    /// An array of values already written as JSON text, one per line.
    void array(const char* key, const std::vector<std::string>& items) {
        member(key) += '[';
        ++depth_;
        for (std::size_t i = 0; i < items.size(); ++i) {
            newline(i > 0 ? "," : "");
            out_ += items[i];
        }
        --depth_;
        if (!items.empty()) newline();
        out_ += ']';
    }
    std::string finish() {
        close();
        return out_ + '\n';
    }

private:
    std::string& member(const char* key) {
        newline(first_ ? "" : ",");
        first_ = false;
        return out_ += '"' + std::string(key) + "\": ";
    }
    void newline(const char* after = "") {
        (out_ += after) += '\n';
        out_.append(static_cast<std::size_t>(2 * depth_), ' ');
    }

    std::string out_ = "{";
    int depth_ = 1;
    bool first_ = true;
};

void write_runtime(JsonWriter& w, const tasking::RuntimeStats& s) {
    w.integer("tasks_executed", s.tasks_executed);
    w.integer("steals", s.steals);
    w.integer("steal_fails", s.steal_fails);
    w.integer("parks", s.parks);
    w.integer("wakeups", s.wakeups);
    w.integer("immediate_successor_hits", s.immediate_successor_hits);
    w.integer("tasks_submitted", s.tasks_submitted);
    w.integer("edges_added", s.edges_added);
    w.integer("edges_elided", s.edges_elided);
}

const char* stop_name(StopKind stop) {
    switch (stop) {
        case StopKind::Suspended:
            return "suspended";
        case StopKind::Cancelled:
            return "cancelled";
        case StopKind::None:
            break;
    }
    return "none";
}

}  // namespace

std::string metrics_to_json(const amr::TraceAnalysis& t, const RunResult& r) {
    JsonWriter w;
    w.string("schema", "dfamr_metrics_v1");
    const double span = static_cast<double>(t.span_ns);
    const auto frac = [span](std::int64_t ns) {
        return span > 0 ? static_cast<double>(ns) / span : 0.0;
    };

    w.open("trace");
    w.integer("span_ns", t.span_ns);
    w.integer("busy_ns", t.busy_ns);
    w.integer("progress_ns", t.progress_ns);
    w.fixed("utilization", t.utilization);
    w.integer("overlap_ns", t.overlap_ns);
    w.fixed("overlap_frac", frac(t.overlap_ns));
    w.integer("largest_idle_gap_ns", t.largest_idle_gap_ns);
    w.fixed("largest_idle_gap_frac", frac(t.largest_idle_gap_ns));
    w.integer("refine_span_ns", t.refine_span_ns);
    w.integer("cores", t.cores);
    w.integer("progress_lanes", t.progress_lanes);
    w.integer("events", t.events);
    w.open("busy_ns_by_kind");
    for (const auto& [kind, ns] : t.busy_ns_by_kind) w.integer(to_string(kind).c_str(), ns);
    w.close();
    w.close();

    w.open("scheduler");
    write_runtime(w, r.sched);
    w.open("refine");
    write_runtime(w, r.sched_refine);
    w.close();
    w.close();

    w.open("net");
    w.integer("bytes_sent", r.net.bytes_sent);
    w.integer("bytes_received", r.net.bytes_received);
    w.integer("frames_sent", r.net.frames_sent);
    w.integer("frames_received", r.net.frames_received);
    w.integer("rendezvous", r.net.rendezvous);
    w.integer("reconnects", r.net.reconnects);
    w.integer("coalesced_frames_sent", r.net.coalesced_frames_sent);
    w.integer("coalesced_messages", r.net.coalesced_messages);
    w.integer("copies_elided", r.net.copies_elided);
    w.integer("rndv_threshold", r.rndv_threshold);
    std::vector<std::string> peers;
    for (std::size_t p = 0; p < r.net_peers.size(); ++p) {
        const net::PeerStats& ps = r.net_peers[p];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"rank\": %zu, \"bytes_sent\": %" PRIu64 ", \"frames_sent\": %" PRIu64
                      ", \"bytes_received\": %" PRIu64 ", \"frames_received\": %" PRIu64 "}",
                      p, ps.bytes_sent, ps.frames_sent, ps.bytes_received, ps.frames_received);
        peers.emplace_back(buf);
    }
    w.array("peers", peers);
    w.close();

    w.open("run");
    w.fixed("total_s", r.times.total);
    w.fixed("refine_s", r.times.refine);
    w.fixed("comm_s", r.times.comm);
    w.fixed("stencil_s", r.times.stencil);
    w.fixed("checksum_s", r.times.checksum);
    w.integer("messages", r.messages);
    w.integer("bytes", r.bytes);
    w.integer("total_flops", r.total_flops);
    w.integer("final_blocks", r.final_blocks);
    w.integer("arena_high_water", r.arena_high_water);
    w.boolean("validation_ok", r.validation_ok);
    w.integer("blocks_split", r.counters.blocks_split);
    w.integer("blocks_merged", r.counters.blocks_merged);
    w.integer("blocks_moved", r.counters.blocks_moved);
    w.integer("blocks_refined_by_estimator", r.counters.blocks_refined_by_estimator);
    w.integer("refinement_phases", r.counters.refinement_phases);
    w.integer("load_balances", r.counters.load_balances);
    w.integer("checksum_stages", r.counters.checksum_stages);
    w.integer("refine_coarsen_thrash", r.counters.refine_coarsen_thrash);
    w.integer("reflux_corrections", r.counters.reflux_corrections);
    w.exact("error_norm", r.error_norm);
    w.boolean("has_error_norm", r.has_error_norm);
    w.exact("mass_drift", r.mass_drift);
    w.exact("boundary_outflux", r.boundary_outflux);
    w.exact("initial_mass", r.initial_mass);
    w.exact("final_mass", r.final_mass);
    w.string("stop", stop_name(r.stop));
    w.integer("stop_ts", r.stop_ts);
    std::vector<std::string> checksums;
    for (const double c : r.checksums) checksums.push_back(exact_number(c));
    w.array("checksums", checksums);
    w.close();
    return w.finish();
}

}  // namespace dfamr::core
