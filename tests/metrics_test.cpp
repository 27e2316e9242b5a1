// Tests for the metrics JSON (trace analysis, scheduler and wire counters
// and the reduced result as one blob) and the minimal JSON parser the tools
// use to read it back.
#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hpp"
#include "core/metrics.hpp"
#include "core/variants.hpp"

namespace dfamr::core {
namespace {

using amr::Config;
using amr::ObjectSpec;
using amr::ObjectType;
using amr::Variant;

Config tiny_config() {
    Config cfg;
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = cfg.init_y = cfg.init_z = 1;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.num_vars = 4;
    cfg.num_tsteps = 2;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 2;
    cfg.num_refine = 2;
    cfg.refine_freq = 1;
    cfg.workers = 2;

    ObjectSpec sphere;
    sphere.type = ObjectType::SpheroidSurface;
    sphere.center = {0.1, 0.1, 0.1};
    sphere.size = {0.25, 0.25, 0.25};
    sphere.move = {0.15, 0.1, 0.05};
    sphere.bounce = true;
    cfg.objects.push_back(sphere);
    return cfg;
}

TEST(Json, ParsesScalarsAndNesting) {
    const json::Value v = json::parse(
        R"({"a": -1.5e2, "b": [true, false, null], "s": "x\n\"y\"", "o": {"k": 42}})");
    EXPECT_DOUBLE_EQ(v.at("a").as_double(), -150.0);
    EXPECT_TRUE(v.at("b").at(0).as_bool());
    EXPECT_FALSE(v.at("b").at(1).as_bool());
    EXPECT_TRUE(v.at("b").at(2).is_null());
    EXPECT_EQ(v.at("s").as_string(), "x\n\"y\"");
    EXPECT_EQ(v.at("o").at("k").as_int(), 42);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_TRUE(v.contains("a"));
    EXPECT_FALSE(v.contains("z"));
}

TEST(Json, ParsesUnicodeEscapesAndEmptyContainers) {
    const json::Value v = json::parse(R"({"e": {}, "l": [], "u": "Aé"})");
    EXPECT_EQ(v.at("e").size(), 0u);
    EXPECT_EQ(v.at("l").size(), 0u);
    EXPECT_EQ(v.at("u").as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW(json::parse("{"), json::ParseError);
    EXPECT_THROW(json::parse("[1, 2"), json::ParseError);
    EXPECT_THROW(json::parse("{\"a\" 1}"), json::ParseError);
    EXPECT_THROW(json::parse("tru"), json::ParseError);
    EXPECT_THROW(json::parse("{} extra"), json::ParseError);
    EXPECT_THROW(json::parse("\"open"), json::ParseError);
    EXPECT_THROW(json::parse(""), json::ParseError);
    EXPECT_THROW(json::parse("1ee5"), json::ParseError);
    // Nesting is capped: hostile depth is a typed error, not a stack overflow.
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_THROW(json::parse(std::string(100000, '[')), json::ParseError);
    EXPECT_NO_THROW(json::parse(nested(json::kMaxDepth)));
    EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)), json::ParseError);
}

TEST(Json, TypeMismatchThrows) {
    const json::Value v = json::parse("{\"n\": 1}");
    EXPECT_THROW(v.at("n").as_string(), json::ParseError);
    EXPECT_THROW(v.at("missing"), json::ParseError);
    EXPECT_THROW(v.items(), json::ParseError);
}

TEST(Metrics, EmptySnapshotEmitsParsableJson) {
    // No trace events at all: busy_ns_by_kind must emit as {} and every
    // section must still be present for trace_diff to walk.
    const json::Value v = json::parse(metrics_to_json(amr::TraceAnalysis{}, RunResult{}));
    EXPECT_EQ(v.at("schema").as_string(), "dfamr_metrics_v1");
    EXPECT_EQ(v.at("trace").at("busy_ns_by_kind").size(), 0u);
    EXPECT_EQ(v.at("trace").at("cores").as_int(), 0);
    EXPECT_EQ(v.at("scheduler").at("refine").at("steals").as_int(), 0);
    EXPECT_EQ(v.at("net").at("frames_sent").as_int(), 0);
    EXPECT_EQ(v.at("net").at("peers").size(), 0u);
    EXPECT_TRUE(v.at("run").at("validation_ok").as_bool());
    EXPECT_EQ(v.at("run").at("stop").as_string(), "none");
    EXPECT_EQ(v.at("run").at("checksums").size(), 0u);
}

TEST(Metrics, SnapshotOfRealRunRoundTrips) {
    amr::Tracer tracer;
    tracer.enable(true);
    RunOptions opts;
    opts.ignore_launch_env = true;
    const RunResult r = run_variant(tiny_config(), Variant::TampiOss, &tracer, nullptr, opts);
    ASSERT_TRUE(r.validation_ok);

    const amr::TraceAnalysis a = tracer.analyze();
    const json::Value v = json::parse(metrics_to_json(a, r));

    const json::Value& trace = v.at("trace");
    EXPECT_EQ(trace.at("cores").as_int(), a.cores);
    EXPECT_GT(trace.at("cores").as_int(), 0);
    EXPECT_EQ(trace.at("events").as_int(), static_cast<std::int64_t>(a.events));
    EXPECT_GT(trace.at("events").as_int(), 0);
    EXPECT_EQ(trace.at("span_ns").as_int(), a.span_ns);
    EXPECT_NEAR(trace.at("utilization").as_double(), a.utilization, 1e-6);
    EXPECT_GT(trace.at("busy_ns_by_kind").size(), 0u);
    // Derived fractions are consistent with their numerators.
    EXPECT_NEAR(trace.at("overlap_frac").as_double(),
                static_cast<double>(a.overlap_ns) / a.span_ns, 1e-6);

    const json::Value& sched = v.at("scheduler");
    EXPECT_EQ(sched.at("tasks_executed").as_int(),
              static_cast<std::int64_t>(r.sched.tasks_executed));
    EXPECT_GT(sched.at("tasks_executed").as_int(), 0);
    EXPECT_EQ(sched.at("tasks_submitted").as_int(),
              static_cast<std::int64_t>(r.sched.tasks_submitted));
    EXPECT_EQ(sched.at("edges_added").as_int(), static_cast<std::int64_t>(r.sched.edges_added));
    EXPECT_GT(sched.at("edges_added").as_int(), 0);
    EXPECT_EQ(sched.at("refine").at("tasks_executed").as_int(),
              static_cast<std::int64_t>(r.sched_refine.tasks_executed));

    const json::Value& run = v.at("run");
    EXPECT_TRUE(run.at("validation_ok").as_bool());
    EXPECT_EQ(run.at("final_blocks").as_int(), r.final_blocks);
    EXPECT_EQ(run.at("total_flops").as_int(), r.total_flops);
    EXPECT_GT(r.total_flops, 0);
    EXPECT_EQ(run.at("messages").as_int(), static_cast<std::int64_t>(r.messages));
    EXPECT_EQ(run.at("arena_high_water").as_int(), static_cast<std::int64_t>(r.arena_high_water));
    EXPECT_GT(r.arena_high_water, 0u);
    EXPECT_EQ(run.at("blocks_split").as_int(), r.counters.blocks_split);
    EXPECT_GT(r.counters.blocks_split, 0);
    EXPECT_EQ(run.at("refinement_phases").as_int(), r.counters.refinement_phases);
    EXPECT_EQ(run.at("checksum_stages").as_int(), r.counters.checksum_stages);
    // Checksums read back bit for bit.
    const json::Value& checksums = run.at("checksums");
    ASSERT_EQ(checksums.size(), r.checksums.size());
    ASSERT_GT(r.checksums.size(), 0u);
    for (std::size_t i = 0; i < r.checksums.size(); ++i) {
        EXPECT_EQ(checksums.at(i).as_double(), r.checksums[i]) << "stage " << i;
    }
}

TEST(Metrics, SchedulerCounterSamplesAppearInTrace) {
    // The driver samples scheduler counters at phase boundaries; the traced
    // run must carry them both as sorted samples and as Chrome "C" events.
    amr::Tracer tracer;
    tracer.enable(true);
    RunOptions opts;
    opts.ignore_launch_env = true;
    const RunResult r = run_variant(tiny_config(), Variant::TampiOss, &tracer, nullptr, opts);
    ASSERT_TRUE(r.validation_ok);

    const auto counters = tracer.sorted_counters();
    ASSERT_GT(counters.size(), 0u);
    for (std::size_t i = 1; i < counters.size(); ++i) {
        EXPECT_LE(counters[i - 1].t_ns, counters[i].t_ns);
    }

    const json::Value doc = json::parse(tracer.to_chrome_json());
    std::size_t counter_events = 0;
    for (const json::Value& e : doc.at("traceEvents").items()) {
        if (e.at("ph").as_string() == "C") ++counter_events;
    }
    EXPECT_EQ(counter_events, counters.size());
}

}  // namespace
}  // namespace dfamr::core
