// Tests for the telemetry subsystem: the JSON value, the metrics
// registry (counters/gauges/histograms, Prometheus + JSON dumps), the
// span tracer with Chrome trace-event export, and the golden check
// that the synthesized simulated-cycle track reproduces the
// simulator's per-kind cycle accounting exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/status.h"
#include "hw/profiler.h"
#include "hw/sim.h"
#include "hw/sim_telemetry.h"
#include "isa/compiler.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace poseidon::telemetry {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, RoundTripsScalarsAndContainers)
{
    Json obj = Json::object();
    obj.set("b", Json(true));
    obj.set("n", Json(2.5));
    obj.set("i", Json(42));
    obj.set("s", Json("hello"));
    obj.set("nul", Json());
    Json arr = Json::array();
    arr.push_back(Json(1));
    arr.push_back(Json("two"));
    obj.set("arr", arr);

    Json back = Json::parse(obj.dump());
    EXPECT_TRUE(back.at("b").as_bool());
    EXPECT_EQ(back.at("n").as_number(), 2.5);
    EXPECT_EQ(back.at("i").as_number(), 42.0);
    EXPECT_EQ(back.at("s").as_string(), "hello");
    EXPECT_TRUE(back.at("nul").is_null());
    EXPECT_EQ(back.at("arr").size(), 2u);
    EXPECT_EQ(back.at("arr").at(std::size_t(0)).as_number(), 1.0);
    EXPECT_EQ(back.at("arr").at(std::size_t(1)).as_string(), "two");

    // Pretty and compact dumps parse to the same value.
    Json pretty = Json::parse(obj.dump(2));
    EXPECT_EQ(pretty.dump(), back.dump());
}

TEST(Json, EscapesControlCharactersAndQuotes)
{
    std::string nasty = "a\"b\\c\nd\te\x01f";
    Json j(nasty);
    Json back = Json::parse(j.dump());
    EXPECT_EQ(back.as_string(), nasty);

    std::string esc = json_escape("\"\\\n");
    EXPECT_EQ(esc, "\\\"\\\\\\n");
}

TEST(Json, RoundTripsDoublesExactly)
{
    for (double v : {1.0 / 3.0, 355166576.13288373, 1e-300, 6.25e18}) {
        Json back = Json::parse(Json(v).dump());
        EXPECT_EQ(back.as_number(), v);
    }
}

TEST(Json, ParseRejectsMalformedDocuments)
{
    EXPECT_THROW(Json::parse(""), poseidon::ParseError);
    EXPECT_THROW(Json::parse("{"), poseidon::ParseError);
    EXPECT_THROW(Json::parse("[1,]"), poseidon::ParseError);
    EXPECT_THROW(Json::parse("{\"a\":1} trailing"),
                 poseidon::ParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), poseidon::ParseError);
    EXPECT_THROW(Json::parse("nul"), poseidon::ParseError);
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulates)
{
    Counter c;
    c.increment();
    c.add(2.5);
    EXPECT_EQ(c.value(), 3.5);
}

TEST(Metrics, CounterIsThreadSafe)
{
    Counter c;
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&c] {
            for (int i = 0; i < kIters; ++i) c.increment();
        });
    }
    for (auto &t : ts) t.join();
    EXPECT_EQ(c.value(), static_cast<double>(kThreads) * kIters);
}

TEST(Metrics, GaugeKeepsLastValue)
{
    Gauge g;
    g.set(1.0);
    g.set(-7.25);
    EXPECT_EQ(g.value(), -7.25);
}

TEST(Metrics, HistogramBucketEdgesAreInclusive)
{
    Histogram h({1.0, 2.0, 5.0});
    h.observe(0.5); // bucket 0 (v <= 1)
    h.observe(1.0); // bucket 0 (edge is inclusive)
    h.observe(1.5); // bucket 1
    h.observe(5.0); // bucket 2 (edge)
    h.observe(6.0); // overflow
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 1u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_EQ(h.bucket_count(3), 1u); // overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 6.0);
}

TEST(Metrics, HistogramQuantileInterpolatesWithinBuckets)
{
    Histogram h({10.0, 20.0, 40.0});
    for (int v = 1; v <= 10; ++v) h.observe(v);  // 10 in (0, 10]
    for (int v = 11; v <= 20; ++v) h.observe(v); // 10 in (10, 20]

    // Empty quantile range checks first: q must be a probability.
    EXPECT_THROW(h.quantile(-0.1), poseidon::InvalidArgument);
    EXPECT_THROW(h.quantile(1.5), poseidon::InvalidArgument);

    // Nearest-rank lands the median on the first bucket's edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
    // Inside the second bucket the estimate interpolates linearly.
    double q75 = h.quantile(0.75);
    EXPECT_GT(q75, 10.0);
    EXPECT_LE(q75, 20.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), h.quantile(1e-9));

    // Overflow observations clamp to the last finite bound.
    h.observe(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
    // An empty histogram has no estimate at all: NaN, not a
    // plausible-looking 0.
    EXPECT_TRUE(std::isnan(Histogram({1.0}).quantile(0.5)));
}

TEST(Metrics, HistogramMergeFoldsBucketsCountAndSum)
{
    Histogram a({10.0, 20.0});
    Histogram b({10.0, 20.0});
    a.observe(5.0);
    a.observe(15.0);
    b.observe(15.0);
    b.observe(25.0); // overflow
    a.merge(b);
    EXPECT_EQ(a.bucket_count(0), 1u);
    EXPECT_EQ(a.bucket_count(1), 2u);
    EXPECT_EQ(a.bucket_count(2), 1u);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.sum(), 5.0 + 15.0 + 15.0 + 25.0);
    // Quantiles of the merged histogram see both sources.
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 20.0);

    // Merging an empty histogram is a no-op.
    a.merge(Histogram({10.0, 20.0}));
    EXPECT_EQ(a.count(), 4u);

    // Mismatched bounds are a caller bug, not a silent mis-merge.
    Histogram c({1.0});
    EXPECT_THROW(a.merge(c), poseidon::InvalidArgument);
}

TEST(Metrics, HistogramFromBucketsRoundTrips)
{
    Histogram h({10.0, 20.0});
    h.observe(5.0);
    h.observe(15.0);
    h.observe(30.0);
    Histogram back = Histogram::from_buckets(
        h.bounds(), {h.bucket_count(0), h.bucket_count(1),
                     h.bucket_count(2)},
        h.sum());
    EXPECT_EQ(back.count(), h.count());
    EXPECT_DOUBLE_EQ(back.sum(), h.sum());
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(back.bucket_count(i), h.bucket_count(i));
    }
    EXPECT_THROW(Histogram::from_buckets({10.0}, {1, 2, 3}, 0.0),
                 poseidon::InvalidArgument);
}

TEST(Metrics, ExactQuantileUsesNearestRank)
{
    std::vector<double> sample = {5.0, 1.0, 3.0, 2.0, 4.0};
    // rank = ceil(q * 5) on the sorted sample {1,2,3,4,5}.
    EXPECT_DOUBLE_EQ(exact_quantile(sample, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(exact_quantile(sample, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(exact_quantile(sample, 0.99), 5.0);
    EXPECT_DOUBLE_EQ(exact_quantile(sample, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(exact_quantile({7.0}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(exact_quantile({}, 0.5), 0.0);
    EXPECT_THROW(exact_quantile(sample, 2.0),
                 poseidon::InvalidArgument);
}

TEST(Metrics, RegistryCreatesLazilyAndResets)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    EXPECT_EQ(reg.counter_value("t.never_touched"), 0.0);
    reg.counter("t.a").add(4.0);
    reg.counter("t.a").increment();
    EXPECT_EQ(reg.counter_value("t.a"), 5.0);
    reg.gauge("t.g").set(2.0);
    reg.histogram("t.h", {1.0}).observe(0.5);
    reg.reset();
    EXPECT_EQ(reg.counter_value("t.a"), 0.0);
}

TEST(Metrics, PrometheusTextExposition)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    reg.counter("t.ops.total").add(3.0);
    reg.gauge("t.level").set(1.5);
    reg.histogram("t.lat_us", {1.0, 10.0}).observe(4.0);
    std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("poseidon_t_ops_total 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE poseidon_t_ops_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("poseidon_t_level 1.5"), std::string::npos);
    EXPECT_NE(text.find("poseidon_t_lat_us_bucket{le=\"10\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("poseidon_t_lat_us_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("poseidon_t_lat_us_count 1"),
              std::string::npos);
    reg.reset();
}

TEST(Metrics, JsonDumpParsesBack)
{
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    reg.counter("t.c").add(2.0);
    reg.gauge("t.g").set(-1.0);
    reg.histogram("t.h", {1.0}).observe(3.0);
    Json j = Json::parse(reg.to_json().dump());
    EXPECT_EQ(j.at("counters").at("t.c").as_number(), 2.0);
    EXPECT_EQ(j.at("gauges").at("t.g").as_number(), -1.0);
    EXPECT_EQ(j.at("histograms").at("t.h").at("count").as_number(),
              1.0);
    reg.reset();
}

TEST(Metrics, DisabledTelemetryRecordsNothing)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    set_enabled(false);
    count("t.disabled");
    gauge_set("t.disabled_gauge", 9.0);
    { ScopedLatency lat("t.disabled_us"); }
    set_enabled(true);
    EXPECT_EQ(reg.counter_value("t.disabled"), 0.0);
    Json j = reg.to_json();
    EXPECT_FALSE(j.at("gauges").contains("t.disabled_gauge"));
    EXPECT_FALSE(j.at("histograms").contains("t.disabled_us"));
}

TEST(Metrics, ScopedLatencyObservesWallTime)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    { ScopedLatency lat("t.lat_us"); }
    Json j = reg.to_json();
    ASSERT_TRUE(j.at("histograms").contains("t.lat_us"));
    EXPECT_EQ(j.at("histograms").at("t.lat_us").at("count").as_number(),
              1.0);
    reg.reset();
}

// -------------------------------------------------------------- tracer

TEST(Tracer, SpansNestAndExportValidChromeTrace)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    Tracer &tr = Tracer::global();
    tr.start();
    {
        SpanScope outer("outer");
        outer.attr("who", Json("out\"er\\\n"));
        {
            SpanScope inner("inner");
            inner.attr("depth", Json(2));
        }
    }
    tr.stop();
    ASSERT_EQ(tr.event_count(), 2u);

    Json doc = Json::parse(tr.chrome_trace_json());
    ASSERT_TRUE(doc.is_object());
    const Json &evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.is_array());

    // Complete events only (no metadata was registered); the inner
    // span closes first, so it serializes first.
    std::map<std::string, const Json*> byName;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        EXPECT_EQ(e.at("ph").as_string(), "X");
        EXPECT_EQ(e.at("pid").as_number(),
                  static_cast<double>(Tracer::kHostPid));
        byName[e.at("name").as_string()] = &e;
    }
    ASSERT_TRUE(byName.count("outer"));
    ASSERT_TRUE(byName.count("inner"));
    const Json &outer = *byName["outer"];
    const Json &inner = *byName["inner"];
    // Nesting: the inner span starts no earlier and ends no later.
    EXPECT_GE(inner.at("ts").as_number(), outer.at("ts").as_number());
    EXPECT_LE(inner.at("ts").as_number() + inner.at("dur").as_number(),
              outer.at("ts").as_number() + outer.at("dur").as_number() +
                  1e-9);
    // Attributes survive the escaping round trip.
    EXPECT_EQ(outer.at("args").at("who").as_string(), "out\"er\\\n");
    EXPECT_EQ(inner.at("args").at("depth").as_number(), 2.0);
}

TEST(Tracer, InactiveTracerDropsSpans)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    Tracer &tr = Tracer::global();
    tr.start();
    tr.stop();
    std::size_t before = tr.event_count();
    { SpanScope s("dropped"); }
    EXPECT_EQ(tr.event_count(), before);
}

TEST(Tracer, MetadataEventsNameTracks)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    Tracer &tr = Tracer::global();
    tr.start();
    tr.set_process_name(Tracer::kSimPid, "sim");
    tr.set_thread_name(Tracer::kSimPid, 3, "HBM");
    { SpanScope s("work"); }
    tr.stop();
    Json doc = Json::parse(tr.chrome_trace_json());
    const Json &evs = doc.at("traceEvents");
    bool sawProcess = false, sawThread = false;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        if (e.at("ph").as_string() != "M") continue;
        if (e.at("name").as_string() == "process_name" &&
            e.at("args").at("name").as_string() == "sim") {
            sawProcess = true;
        }
        if (e.at("name").as_string() == "thread_name" &&
            e.at("args").at("name").as_string() == "HBM") {
            EXPECT_EQ(e.at("tid").as_number(), 3.0);
            sawThread = true;
        }
    }
    EXPECT_TRUE(sawProcess);
    EXPECT_TRUE(sawThread);
}

// -------------------------------------------- sim-track golden checks

isa::Trace
sample_trace()
{
    isa::OpShape shape;
    shape.n = 1u << 13;
    shape.limbs = 4;
    shape.K = 1;
    isa::Trace tr;
    isa::emit_cmult(tr, shape);
    isa::emit_rescale(tr, shape);
    isa::emit_rotation(tr, shape);
    return tr;
}

TEST(SimTelemetry, RegistryCountersEqualSimResultExactly)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    hw::PoseidonSim sim;
    hw::SimResult r = sim.run(sample_trace());

    for (int k = 0; k < 8; ++k) {
        auto kind = static_cast<isa::OpKind>(k);
        EXPECT_EQ(reg.counter_value(std::string("sim.kind_cycles.") +
                                    isa::to_string(kind)),
                  r.kindCycles[static_cast<std::size_t>(k)])
            << isa::to_string(kind);
    }
    EXPECT_EQ(reg.counter_value("sim.cycles"), r.cycles);
    EXPECT_EQ(reg.counter_value("sim.compute_cycles"), r.computeCycles);
    EXPECT_EQ(reg.counter_value("sim.mem_cycles"), r.memCycles);
    EXPECT_EQ(reg.counter_value("sim.hbm.bytes_read"),
              static_cast<double>(r.bytesRead));
    EXPECT_EQ(reg.counter_value("sim.hbm.bytes_written"),
              static_cast<double>(r.bytesWritten));
    EXPECT_EQ(reg.counter_value("sim.runs"), 1.0);
    reg.reset();
}

/// How many times `name` appears among the dump's entries of `kind`.
std::size_t
listed(const MetricsRegistry &reg, const char *kind,
       const std::string &name)
{
    std::size_t n = 0;
    const Json dump = reg.to_json();
    for (const auto &kv : dump.at(kind).items()) {
        if (kv.first == name) ++n;
    }
    return n;
}

TEST(Telemetry, HandlesSurviveReset)
{
    // record_sim_metrics and parallel_for's region metrics update
    // cached instrument handles; reset() frees the instruments, so the
    // handles must notice and resolve afresh, and a handle cache must
    // tell registries apart.
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    MetricsRegistry &reg = MetricsRegistry::global();
    hw::PoseidonSim sim;
    const isa::Trace tr = sample_trace();
    const std::size_t kRuns = 8;
    auto run_all = [&](std::vector<hw::SimResult> &out) {
        out.assign(kRuns, hw::SimResult{});
        parallel::parallel_for(
            0, kRuns, 1,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) out[i] = sim.run(tr);
            },
            "test.handles");
    };

    std::vector<hw::SimResult> rs;
    reg.reset();
    run_all(rs);
    run_all(rs);
    EXPECT_EQ(reg.counter_value("sim.runs"), 2.0 * kRuns);
    reg.reset();
    EXPECT_EQ(reg.counter_value("sim.runs"), 0.0);
    run_all(rs);

    // Only the runs after the reset count, each name once.
    EXPECT_EQ(reg.counter_value("sim.runs"), static_cast<double>(kRuns));
    double cycles = 0.0;
    for (const hw::SimResult &r : rs) cycles += r.cycles;
    EXPECT_DOUBLE_EQ(reg.counter_value("sim.cycles"), cycles);
    EXPECT_EQ(reg.counter_value("parallel.regions"), 1.0);
    for (const char *name : {"sim.runs", "sim.cycles", "sim.kind_cycles.NTT",
                             "sim.faults.retry_cycles", "parallel.regions"}) {
        EXPECT_EQ(listed(reg, "counters", name), 1u) << name;
    }
    EXPECT_EQ(listed(reg, "gauges", "sim.bandwidth_utilization"), 1u);
    EXPECT_EQ(listed(reg, "histograms", "parallel.region_us.test.handles"),
              1u);
    Json j = reg.to_json();
    EXPECT_EQ(j.at("histograms")
                  .at("parallel.region_us.test.handles")
                  .at("count")
                  .as_number(),
              1.0);

    // A second registry gets its own instruments; switching back
    // leaves the global ones where they were.
    MetricsRegistry local;
    hw::record_sim_metrics(local, rs[0], sim.config());
    hw::record_sim_metrics(local, rs[1], sim.config());
    EXPECT_EQ(local.counter_value("sim.runs"), 2.0);
    EXPECT_EQ(local.counter_value("sim.cycles"), rs[0].cycles + rs[1].cycles);
    EXPECT_EQ(reg.counter_value("sim.runs"), static_cast<double>(kRuns));
    hw::record_sim_metrics(reg, rs[0], sim.config());
    EXPECT_EQ(reg.counter_value("sim.runs"), kRuns + 1.0);
    EXPECT_EQ(local.counter_value("sim.runs"), 2.0);
    local.reset();
    hw::record_sim_metrics(local, rs[0], sim.config());
    EXPECT_EQ(local.counter_value("sim.runs"), 1.0);
    EXPECT_EQ(listed(local, "counters", "sim.runs"), 1u);
    reg.reset();
}

TEST(SimTelemetry, SimTrackReproducesKindCyclesExactly)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    hw::PoseidonSim sim;
    hw::SimTimeline tl;
    isa::Trace trace = sample_trace();
    hw::SimResult r = sim.run(trace, &tl);
    ASSERT_FALSE(tl.segments.empty());

    Tracer &tr = Tracer::global();
    tr.start();
    hw::append_sim_track(tr, tl, sim.config());
    tr.stop();

    Json doc = Json::parse(tr.chrome_trace_json());
    const Json &evs = doc.at("traceEvents");

    // Golden check: summing args.cycles of the compute-row events in
    // event order reproduces SimResult.kindCycles bit-exactly (same
    // doubles, same accumulation order as the simulator).
    std::map<std::string, double> kindCycles;
    double basicOpCycles = 0.0;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        if (e.at("ph").as_string() != "X") continue;
        ASSERT_EQ(e.at("pid").as_number(),
                  static_cast<double>(Tracer::kSimPid));
        double tid = e.at("tid").as_number();
        if (tid == 2.0) { // compute row
            kindCycles[e.at("name").as_string()] +=
                e.at("args").at("cycles").as_number();
        } else if (tid == 1.0) { // basic-op segments
            basicOpCycles += e.at("args").at("cycles").as_number();
        }
    }
    for (int k = 0; k < 8; ++k) {
        auto kind = static_cast<isa::OpKind>(k);
        double want = r.kindCycles[static_cast<std::size_t>(k)];
        auto it = kindCycles.find(isa::to_string(kind));
        double got = it == kindCycles.end() ? 0.0 : it->second;
        EXPECT_EQ(got, want) << isa::to_string(kind);
    }
    // Segment durations add up to the whole run.
    EXPECT_EQ(basicOpCycles, r.cycles);

    // Segment bookkeeping is self-consistent.
    double sumSeg = 0.0;
    for (const auto &seg : tl.segments) {
        EXPECT_EQ(seg.startCycle, sumSeg);
        sumSeg += seg.cycles;
    }
    EXPECT_EQ(sumSeg, r.cycles);
}

TEST(SimTelemetry, SimTrackSegmentCyclesMatchProfilerPerTag)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    hw::PoseidonSim sim;
    hw::SimTimeline tl;
    isa::Trace trace = sample_trace();
    hw::SimResult r = sim.run(trace, &tl);

    Tracer &tr = Tracer::global();
    tr.start();
    hw::append_sim_track(tr, tl, sim.config());
    tr.stop();

    // Summing the basic-op row's event cycles per tag name, in event
    // order, reproduces the profiler's per-tag attributed cycles
    // bit-exactly (both walk the same segments in the same order), and
    // the grand total is SimResult.cycles.
    Json doc = Json::parse(tr.chrome_trace_json());
    const Json &evs = doc.at("traceEvents");
    std::map<std::string, double> tagCycles;
    double total = 0.0;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        if (e.at("ph").as_string() != "X") continue;
        if (e.at("tid").as_number() != 1.0) continue;
        double cyc = e.at("args").at("cycles").as_number();
        tagCycles[e.at("name").as_string()] += cyc;
        total += cyc;
    }
    EXPECT_EQ(total, r.cycles);

    hw::ProfileReport rep = profile(tl, r, sim.config());
    ASSERT_EQ(tagCycles.size(), rep.tags.size());
    for (const hw::TagProfile &tp : rep.tags) {
        auto it = tagCycles.find(isa::to_string(tp.tag));
        ASSERT_NE(it, tagCycles.end()) << isa::to_string(tp.tag);
        EXPECT_EQ(it->second, tp.b.cycles) << isa::to_string(tp.tag);
    }
}

TEST(SimTelemetry, ProfilerGaugesAgreeWithRecordedKindCycles)
{
    if (!enabled()) GTEST_SKIP() << "telemetry compiled out";
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.reset();
    hw::PoseidonSim sim;
    hw::SimTimeline tl;
    // run() invokes record_sim_metrics itself: the registry now holds
    // the counters of exactly this run.
    hw::SimResult r = sim.run(sample_trace(), &tl);
    hw::ProfileReport rep = profile(tl, r, sim.config());
    rep.export_metrics(reg); // the profiler's gauges

    // Both ends must agree with SimResult.kindCycles bit-exactly —
    // counters from the simulator's path, gauges from the profiler's.
    for (int k = 0; k < 8; ++k) {
        auto kind = static_cast<isa::OpKind>(k);
        double want = r.kindCycles[static_cast<std::size_t>(k)];
        EXPECT_EQ(reg.counter_value(std::string("sim.kind_cycles.") +
                                    isa::to_string(kind)),
                  want)
            << isa::to_string(kind);
        Json g = reg.to_json().at("gauges");
        EXPECT_EQ(g.at(std::string("sim.util.kind_cycles.") +
                       isa::to_string(kind))
                      .as_number(),
                  want)
            << isa::to_string(kind);
    }
    reg.reset();
}

// ------------------------------------------------------------- logging

TEST(Logging, ParseLevelReportsRecognition)
{
    using poseidon::log::Level;
    using poseidon::log::parse_level;
    bool ok = false;
    EXPECT_EQ(parse_level("DEBUG", Level::WARN, &ok), Level::DEBUG);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parse_level("warning", Level::ERROR, &ok), Level::WARN);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parse_level("off", Level::WARN, &ok), Level::OFF);
    EXPECT_TRUE(ok);

    // Junk keeps the fallback and says so — the env hook uses this to
    // warn instead of silently changing the threshold.
    EXPECT_EQ(parse_level("bogus", Level::WARN, &ok), Level::WARN);
    EXPECT_FALSE(ok);
    EXPECT_EQ(parse_level("", Level::INFO, &ok), Level::INFO);
    EXPECT_FALSE(ok);
    // The 2-arg overload stays junk-tolerant.
    EXPECT_EQ(parse_level("verbose", Level::WARN), Level::WARN);
}

TEST(SimTelemetry, TimelineDoesNotChangePricing)
{
    hw::PoseidonSim sim;
    isa::Trace trace = sample_trace();
    hw::SimResult base = sim.run(trace);
    hw::SimTimeline tl;
    hw::SimResult timed = sim.run(trace, &tl);
    EXPECT_EQ(timed.cycles, base.cycles);
    EXPECT_EQ(timed.computeCycles, base.computeCycles);
    EXPECT_EQ(timed.memCycles, base.memCycles);
    EXPECT_EQ(timed.seconds, base.seconds);
}

} // namespace
} // namespace poseidon::telemetry
