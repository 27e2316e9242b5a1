#include "core/metrics.hpp"

#include <cinttypes>
#include <cstdio>

namespace dfamr::core {

namespace {

void append_sched(std::string& out, const char* indent, const SchedulerCounters& s) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"tasks_executed\": %" PRIu64 ",\n"
                  "%s\"steals\": %" PRIu64 ",\n"
                  "%s\"steal_fails\": %" PRIu64 ",\n"
                  "%s\"parks\": %" PRIu64 ",\n"
                  "%s\"wakeups\": %" PRIu64 ",\n"
                  "%s\"immediate_successor_hits\": %" PRIu64 "\n",
                  indent, s.tasks_executed, indent, s.steals, indent, s.steal_fails, indent,
                  s.parks, indent, s.wakeups, indent, s.immediate_successor_hits);
    out += buf;
}

}  // namespace

MetricsSnapshot make_metrics_snapshot(const amr::Tracer& tracer, const RunResult& result) {
    MetricsSnapshot m;
    m.trace = tracer.analyze();
    m.sched = result.sched;
    m.sched_refine = result.sched_refine;
    m.net = result.net;
    m.net_peers = result.net_peers;
    m.rndv_threshold = result.rndv_threshold;
    m.messages = result.messages;
    m.bytes = result.bytes;
    m.total_s = result.times.total;
    m.refine_s = result.times.refine;
    m.final_blocks = result.final_blocks;
    m.arena_high_water = result.arena_high_water;
    m.validation_ok = result.validation_ok;
    m.blocks_refined_by_estimator = result.counters.blocks_refined_by_estimator;
    m.refine_coarsen_thrash = result.counters.refine_coarsen_thrash;
    m.error_norm = result.error_norm;
    m.has_error_norm = result.has_error_norm;
    m.mass_drift = result.mass_drift;
    m.boundary_outflux = result.boundary_outflux;
    m.initial_mass = result.initial_mass;
    m.final_mass = result.final_mass;
    m.reflux_corrections = result.counters.reflux_corrections;
    return m;
}

std::string metrics_to_json(const MetricsSnapshot& m) {
    std::string out;
    out.reserve(4096);
    char buf[1024];
    const double span = static_cast<double>(m.trace.span_ns);

    out += "{\n  \"schema\": \"dfamr_metrics_v1\",\n";

    out += "  \"trace\": {\n";
    std::snprintf(buf, sizeof buf,
                  "    \"span_ns\": %" PRId64 ",\n"
                  "    \"busy_ns\": %" PRId64 ",\n"
                  "    \"progress_ns\": %" PRId64 ",\n"
                  "    \"utilization\": %.6f,\n"
                  "    \"overlap_ns\": %" PRId64 ",\n"
                  "    \"overlap_frac\": %.6f,\n"
                  "    \"largest_idle_gap_ns\": %" PRId64 ",\n"
                  "    \"largest_idle_gap_frac\": %.6f,\n"
                  "    \"refine_span_ns\": %" PRId64 ",\n"
                  "    \"cores\": %d,\n"
                  "    \"progress_lanes\": %d,\n"
                  "    \"events\": %" PRIu64 ",\n",
                  m.trace.span_ns, m.trace.busy_ns, m.trace.progress_ns, m.trace.utilization,
                  m.trace.overlap_ns, span > 0 ? static_cast<double>(m.trace.overlap_ns) / span : 0,
                  m.trace.largest_idle_gap_ns,
                  span > 0 ? static_cast<double>(m.trace.largest_idle_gap_ns) / span : 0,
                  m.trace.refine_span_ns, m.trace.cores, m.trace.progress_lanes, m.trace.events);
    out += buf;
    out += "    \"busy_ns_by_kind\": {";
    bool first = true;
    for (const auto& [kind, ns] : m.trace.busy_ns_by_kind) {
        std::snprintf(buf, sizeof buf, "%s\n      \"%s\": %" PRId64, first ? "" : ",",
                      to_string(kind).c_str(), ns);
        out += buf;
        first = false;
    }
    out += first ? "}\n" : "\n    }\n";
    out += "  },\n";

    out += "  \"scheduler\": {\n";
    append_sched(out, "    ", m.sched);
    // append_sched closes with a bare newline; splice the refine slice in.
    out.erase(out.size() - 1);
    out += ",\n    \"refine\": {\n";
    append_sched(out, "      ", m.sched_refine);
    out += "    }\n  },\n";

    const auto u64 = [](std::uint64_t v) { return static_cast<std::uint64_t>(v); };
    out += "  \"net\": {\n";
    std::snprintf(buf, sizeof buf,
                  "    \"bytes_sent\": %" PRIu64 ",\n"
                  "    \"bytes_received\": %" PRIu64 ",\n"
                  "    \"frames_sent\": %" PRIu64 ",\n"
                  "    \"frames_received\": %" PRIu64 ",\n"
                  "    \"rendezvous\": %" PRIu64 ",\n"
                  "    \"reconnects\": %" PRIu64 ",\n"
                  "    \"coalesced_frames_sent\": %" PRIu64 ",\n"
                  "    \"coalesced_messages\": %" PRIu64 ",\n"
                  "    \"copies_elided\": %" PRIu64 ",\n"
                  "    \"rndv_threshold\": %" PRIu64 ",\n",
                  u64(m.net.bytes_sent), u64(m.net.bytes_received), u64(m.net.frames_sent),
                  u64(m.net.frames_received), u64(m.net.rendezvous), u64(m.net.reconnects),
                  u64(m.net.coalesced_frames_sent), u64(m.net.coalesced_messages),
                  u64(m.net.copies_elided), u64(m.rndv_threshold));
    out += buf;
    out += "    \"peers\": [";
    for (std::size_t p = 0; p < m.net_peers.size(); ++p) {
        const net::PeerStats& ps = m.net_peers[p];
        std::snprintf(buf, sizeof buf,
                      "%s\n      {\"rank\": %zu, \"bytes_sent\": %" PRIu64
                      ", \"frames_sent\": %" PRIu64 ", \"bytes_received\": %" PRIu64
                      ", \"frames_received\": %" PRIu64 "}",
                      p == 0 ? "" : ",", p, u64(ps.bytes_sent), u64(ps.frames_sent),
                      u64(ps.bytes_received), u64(ps.frames_received));
        out += buf;
    }
    out += m.net_peers.empty() ? "]\n" : "\n    ]\n";
    out += "  },\n";

    out += "  \"run\": {\n";
    std::snprintf(buf, sizeof buf,
                  "    \"total_s\": %.6f,\n"
                  "    \"refine_s\": %.6f,\n"
                  "    \"messages\": %" PRIu64 ",\n"
                  "    \"bytes\": %" PRIu64 ",\n"
                  "    \"final_blocks\": %" PRId64 ",\n"
                  "    \"arena_high_water\": %" PRIu64 ",\n"
                  "    \"validation_ok\": %s,\n"
                  "    \"blocks_refined_by_estimator\": %" PRId64 ",\n"
                  "    \"refine_coarsen_thrash\": %" PRId64 ",\n"
                  "    \"error_norm\": %.17g,\n"
                  "    \"has_error_norm\": %s,\n"
                  "    \"mass_drift\": %.17g,\n"
                  "    \"boundary_outflux\": %.17g,\n"
                  "    \"initial_mass\": %.17g,\n"
                  "    \"final_mass\": %.17g,\n"
                  "    \"reflux_corrections\": %" PRId64 "\n",
                  m.total_s, m.refine_s, m.messages, m.bytes, m.final_blocks,
                  u64(m.arena_high_water), m.validation_ok ? "true" : "false",
                  m.blocks_refined_by_estimator, m.refine_coarsen_thrash, m.error_norm,
                  m.has_error_norm ? "true" : "false",
                  m.mass_drift, m.boundary_outflux, m.initial_mass, m.final_mass,
                  m.reflux_corrections);
    out += buf;
    out += "  }\n}\n";
    return out;
}

}  // namespace dfamr::core
