// Tests for the deterministic time-series plane: the ring-buffer TSDB
// (eviction, windowed aggregators, histogram-interval quantiles, JSONL
// round trips), byte-identical dumps across host thread counts on
// every chaos scenario, the alert-rule DSL parse/str round trip
// (quantile-of-histogram rules included), and the pending -> firing
// -> resolved state machine with flap suppression — including latency
// SLOs written as quantile rules (parse round trip, a page on a
// hopeless target, its registry gauges and TSDB edges) and the
// end-to-end check that the card-death chaos scenario fires and
// resolves a page whose cycles bracket the fault-injection window.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "serve/chaos.h"
#include "serve/engine.h"
#include "telemetry/alerts.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"

namespace poseidon {
namespace {

using serve::CampaignReport;
using serve::Scenario;
using serve::ServeConfig;
using serve::ServingEngine;
using telemetry::AlertEngine;
using telemetry::AlertRule;
using telemetry::AlertRules;
using telemetry::AlertSeverity;
using telemetry::AlertState;
using telemetry::AlertTransition;
using telemetry::Annotation;
using telemetry::Histogram;
using telemetry::HistogramSeries;
using telemetry::Series;
using telemetry::Tsdb;
using telemetry::WindowStats;

// ---------------------------------------------------------- ring buffer

TEST(Timeseries, SeriesRingEvictsOldestAndCounts)
{
    Series s("t.series", 4);
    for (int i = 0; i < 10; ++i) {
        s.push(100.0 * i, static_cast<double>(i));
    }
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.evicted(), 6u);
    // Chronological access: oldest retained is sample 6.
    EXPECT_DOUBLE_EQ(s.at(0).value, 6.0);
    EXPECT_DOUBLE_EQ(s.at(3).value, 9.0);
    EXPECT_DOUBLE_EQ(s.latest().cycle, 900.0);
    EXPECT_THROW(s.at(4), InvalidArgument);
    // Appends must stay chronological (equal cycles are fine).
    s.push(900.0, 10.0);
    EXPECT_THROW(s.push(100.0, 0.0), InvalidArgument);
}

TEST(Timeseries, WindowedAggregators)
{
    Series s("t.counter", 16);
    EXPECT_TRUE(std::isnan(s.ewma(0.5)));
    EXPECT_TRUE(std::isnan(s.delta(100.0)));
    s.push(0.0, 0.0);
    EXPECT_TRUE(std::isnan(s.rate(100.0))); // one sample: no rate
    s.push(100.0, 10.0);
    s.push(200.0, 30.0);
    s.push(300.0, 60.0);
    // Window (100, 300]: start boundary sample is (100, 10).
    EXPECT_DOUBLE_EQ(s.delta(200.0), 50.0);
    EXPECT_DOUBLE_EQ(s.rate(200.0), 0.25);
    // A window wider than history falls back to the oldest sample.
    EXPECT_DOUBLE_EQ(s.delta(1e9), 60.0);
    WindowStats w = s.window_stats(200.0);
    EXPECT_EQ(w.count, 2u);
    EXPECT_DOUBLE_EQ(w.min, 30.0);
    EXPECT_DOUBLE_EQ(w.max, 60.0);
    EXPECT_DOUBLE_EQ(w.mean, 45.0);
    // EWMA walks oldest -> newest.
    Series e("t.ewma", 4);
    e.push(0.0, 0.0);
    e.push(1.0, 100.0);
    EXPECT_DOUBLE_EQ(e.ewma(0.5), 50.0);
    EXPECT_THROW(e.ewma(0.0), InvalidArgument);
}

TEST(Timeseries, HistogramSeriesWindowQuantileFoldsIntervals)
{
    Histogram cum({10.0, 20.0, 40.0});
    HistogramSeries hs("t.lat", cum.bounds(), 16);
    // Interval 1: ten observations <= 10.
    for (int i = 0; i < 10; ++i) cum.observe(5.0);
    hs.push(100.0, cum);
    // Interval 2: ten observations in (10, 20].
    for (int i = 0; i < 10; ++i) cum.observe(15.0);
    hs.push(200.0, cum);
    EXPECT_EQ(hs.size(), 2u);
    // The delta intervals hold 10 observations each.
    EXPECT_DOUBLE_EQ(hs.at(0).sum, 50.0);
    EXPECT_DOUBLE_EQ(hs.at(1).sum, 150.0);
    // Window covering both intervals sees all 20 observations.
    EXPECT_DOUBLE_EQ(hs.window_quantile(200.0, 0.5), 10.0);
    // Window covering only interval 2 sees just the (10, 20] batch.
    double q = hs.window_quantile(100.0, 0.5);
    EXPECT_GT(q, 10.0);
    EXPECT_LE(q, 20.0);
    // An empty window has no estimate.
    EXPECT_TRUE(std::isnan(hs.window_quantile(50.0, 0.5, 1e6)));
}

// ------------------------------------------------------- JSONL round trip

Tsdb
make_sample_db()
{
    Tsdb db(500.0, 8);
    for (int i = 0; i < 12; ++i) { // 12 > capacity: forces eviction
        db.record("serve.queue_depth", 500.0 * i,
                  static_cast<double>(i % 5));
        db.record("serve.jobs.completed", 500.0 * i,
                  static_cast<double>(i));
    }
    Histogram h({1e4, 1e5, 1e6});
    h.observe(5e4);
    db.record_histogram("serve.latency_cycles", 500.0, h);
    h.observe(5e5);
    h.observe(2e6); // overflow bucket
    db.record_histogram("serve.latency_cycles", 1000.0, h);
    Annotation a;
    a.cycle = 750.0;
    a.kind = "alert";
    a.name = "serve.queue_depth > 3 => warn";
    a.text = "inactive -> firing";
    a.value = 2.0;
    db.annotate(a);
    return db;
}

TEST(Timeseries, DumpParsesBackByteIdentical)
{
    Tsdb db = make_sample_db();
    std::string dump = db.to_jsonl();
    Tsdb back = Tsdb::parse_jsonl(dump);
    EXPECT_EQ(back.to_jsonl(), dump);
    EXPECT_DOUBLE_EQ(back.cadence_cycles(), 500.0);
    EXPECT_EQ(back.capacity(), 8u);
    ASSERT_NE(back.find("serve.queue_depth"), nullptr);
    EXPECT_EQ(back.find("serve.queue_depth")->evicted(), 4u);
    ASSERT_NE(back.find_histogram("serve.latency_cycles"), nullptr);
    EXPECT_EQ(back.find_histogram("serve.latency_cycles")->size(), 2u);
    ASSERT_EQ(back.annotations().size(), 1u);
    EXPECT_EQ(back.annotations()[0].text, "inactive -> firing");
}

TEST(Timeseries, ParseRejectsMalformedDumps)
{
    std::string good = make_sample_db().to_jsonl();
    // Missing header.
    EXPECT_THROW(Tsdb::parse_jsonl(""), ParseError);
    // Wrong schema name.
    EXPECT_THROW(Tsdb::parse_jsonl("{\"schema\":\"bogus\"}\n"),
                 ParseError);
    // Header series count disagrees with the body.
    std::string truncated =
        good.substr(0, good.find('\n') + 1); // header only
    EXPECT_THROW(Tsdb::parse_jsonl(truncated), ParseError);
    // A series line that is not an object.
    std::string corrupt = good;
    corrupt += "[1,2,3]\n";
    EXPECT_THROW(Tsdb::parse_jsonl(corrupt), ParseError);
    // Unknown series kind.
    EXPECT_THROW(
        Tsdb::parse_jsonl(
            "{\"schema\":\"poseidon-tsdb\",\"schema_version\":1,"
            "\"cadence_cycles\":1,\"capacity\":8,\"series\":1,"
            "\"annotations\":0}\n"
            "{\"series\":\"x\",\"kind\":\"blob\",\"evicted\":0,"
            "\"samples\":[]}\n"),
        ParseError);
    // Header fields of the wrong type or out of range: the capacity
    // is bounded before any series ring is allocated.
    auto header = [](const std::string &capacity) {
        return "{\"schema\":\"poseidon-tsdb\",\"schema_version\":1,"
               "\"cadence_cycles\":1,\"capacity\":" +
               capacity + ",\"series\":1,\"annotations\":0}\n"
               "{\"series\":\"x\",\"kind\":\"value\",\"evicted\":0,"
               "\"samples\":[]}\n";
    };
    EXPECT_NO_THROW(Tsdb::parse_jsonl(header("8")));
    for (const char *bad : {"1e15", "-3", "2.5", "\"8\"", "1"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(Tsdb::parse_jsonl(header(bad)), ParseError);
    }
    EXPECT_THROW(Tsdb::parse_jsonl("{\"schema\":5}\n"), ParseError);
    EXPECT_THROW(
        Tsdb::parse_jsonl(
            "{\"schema\":\"poseidon-tsdb\",\"schema_version\":\"1\","
            "\"cadence_cycles\":1,\"capacity\":8,\"series\":0,"
            "\"annotations\":0}\n"),
        ParseError);
    EXPECT_THROW(Tsdb(0.0, Tsdb::kMaxCapacity + 1), InvalidArgument);
}

// ------------------------------------- determinism across thread counts

TEST(Timeseries, ChaosScenarioDumpsAreThreadCountInvariant)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        SCOPED_TRACE(sc.name);
        ASSERT_GT(sc.tsdbCadenceCycles, 0.0);

        parallel::set_num_threads(1);
        CampaignReport serial = serve::run_scenario(sc);
        parallel::set_num_threads(4);
        CampaignReport threaded = serve::run_scenario(sc);
        parallel::set_num_threads(0); // restore the default

        EXPECT_FALSE(serial.tsdbJsonl.empty());
        EXPECT_EQ(serial.tsdbJsonl, threaded.tsdbJsonl);
        EXPECT_EQ(serial.alertsFired, threaded.alertsFired);
        EXPECT_EQ(serial.alertsResolved, threaded.alertsResolved);

        // And the dump is a valid, lossless document.
        Tsdb back = Tsdb::parse_jsonl(serial.tsdbJsonl);
        EXPECT_EQ(back.to_jsonl(), serial.tsdbJsonl);
    }
}

TEST(Timeseries, EngineSamplesAtConfiguredCadence)
{
    ServeConfig cfg;
    cfg.cards = 2;
    cfg.exportTelemetry = false;
    cfg.tsdbCadenceCycles = 5e3;
    ServingEngine engine(cfg);
    for (int i = 0; i < 8; ++i) {
        serve::JobSpec spec;
        spec.tenant = "t" + std::to_string(i % 2);
        spec.name = "job" + std::to_string(i);
        // Staggered arrivals: scheduling rounds at 0, 1e4, ... cross
        // multiple sample-grid points.
        spec.arrivalCycle = 1e4 * i;
        isa::Trace t;
        t.emit(isa::OpKind::HBM_RD, u64(1) << 16, 0,
               isa::BasicOp::Other);
        t.emit(isa::OpKind::NTT, u64(1) << 16, 4096,
               isa::BasicOp::Other);
        t.emit(isa::OpKind::HBM_WR, u64(1) << 16, 0,
               isa::BasicOp::Other);
        spec.trace = std::move(t);
        engine.submit(std::move(spec));
    }
    engine.drain();
    const Tsdb &db = engine.tsdb();
    const Series *depth = db.find("serve.queue_depth");
    ASSERT_NE(depth, nullptr);
    ASSERT_GE(depth->size(), 3u);
    // Grid samples sit on cadence multiples; only the final flush
    // (the last sample, at the drain horizon) may fall off-grid.
    EXPECT_DOUBLE_EQ(depth->at(0).cycle, 0.0);
    for (std::size_t i = 0; i + 1 < depth->size(); ++i) {
        EXPECT_DOUBLE_EQ(depth->at(i).cycle,
                         5e3 * static_cast<double>(i));
    }
    // Completion counters reach the total at the final sample.
    const Series *done = db.find("serve.jobs.completed");
    ASSERT_NE(done, nullptr);
    EXPECT_DOUBLE_EQ(done->latest().value, 8.0);
    // The engine-owned latency histogram sampled too.
    ASSERT_NE(db.find_histogram("serve.latency_cycles"), nullptr);
    // Per-card series exist for both cards.
    EXPECT_NE(db.find("serve.card.0.busy_cycles"), nullptr);
    EXPECT_NE(db.find("serve.card.1.breaker"), nullptr);
}

// ----------------------------------------------------------- alert DSL

TEST(Alerts, DslParseStrRoundTrip)
{
    const std::string spec =
        "serve.queue_depth > 256 for 5e6 cycles => page; "
        "serve.health.live_cards < 4 hold 2e6 cycles => warn";
    AlertRules rules = AlertRules::parse(spec);
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules.rules[0].metric, "serve.queue_depth");
    EXPECT_EQ(rules.rules[0].cmp, telemetry::AlertCmp::GT);
    EXPECT_DOUBLE_EQ(rules.rules[0].threshold, 256.0);
    EXPECT_DOUBLE_EQ(rules.rules[0].forCycles, 5e6);
    EXPECT_EQ(rules.rules[0].severity, AlertSeverity::Page);
    EXPECT_EQ(rules.rules[1].cmp, telemetry::AlertCmp::LT);
    EXPECT_DOUBLE_EQ(rules.rules[1].holdCycles, 2e6);
    EXPECT_EQ(rules.rules[1].severity, AlertSeverity::Warn);

    // str() -> parse() is the identity on the parsed form.
    AlertRules again = AlertRules::parse(rules.str());
    EXPECT_EQ(again.str(), rules.str());
    ASSERT_EQ(again.size(), 2u);
    EXPECT_DOUBLE_EQ(again.rules[0].forCycles, 5e6);

    // Defaults: no for/hold, warn severity; empty spec = no rules.
    AlertRules bare = AlertRules::parse("x >= 1");
    ASSERT_EQ(bare.size(), 1u);
    EXPECT_DOUBLE_EQ(bare.rules[0].forCycles, 0.0);
    EXPECT_EQ(bare.rules[0].severity, AlertSeverity::Warn);
    EXPECT_TRUE(AlertRules::parse("").empty());
    EXPECT_TRUE(AlertRules::parse(" ; \n ").empty());

    // A `:p<q>` suffix reads a percentile of a histogram series and
    // prints back unchanged.
    AlertRules q = AlertRules::parse(
        "serve.latency_cycles:p99 > 2.5e6 for 1e6 cycles => page; "
        "serve.latency_cycles:p99.9 >= 1e7 => warn");
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.rules[0].metric, "serve.latency_cycles");
    EXPECT_DOUBLE_EQ(q.rules[0].quantile, 99.0);
    EXPECT_DOUBLE_EQ(q.rules[0].threshold, 2.5e6);
    EXPECT_DOUBLE_EQ(q.rules[0].forCycles, 1e6);
    EXPECT_EQ(q.rules[0].str(), "serve.latency_cycles:p99 > 2500000 "
                                "for 1000000 cycles => page");
    AlertRules qBack = AlertRules::parse(q.str());
    EXPECT_EQ(qBack.str(), q.str());
    EXPECT_EQ(qBack.rules[1].quantile, 99.9); // exact
    EXPECT_DOUBLE_EQ(rules.rules[0].quantile, 0.0); // plain series
}

TEST(Alerts, DslRejectsMalformedClauses)
{
    EXPECT_THROW(AlertRules::parse("serve.q >"), InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q == 5"), InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q > banana"),
                 InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q > 5 for"),
                 InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q > 5 => sev1"),
                 InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q > 5 => warn extra"),
                 InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.q > 5 bogus"),
                 InvalidArgument);
    // Percentiles are open-interval (0, 100) numbers.
    for (const char *bad : {"h:p0 > 1", "h:p100 > 1", "h:pnan > 1",
                            "h:p > 1", "h:pabc > 1", "h:q99 > 1",
                            ":p99 > 1", "h:p-5 > 1", "h:pinf > 1"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(AlertRules::parse(bad), InvalidArgument);
    }
}

// ----------------------------------------------------- state machine

TEST(Alerts, StateMachinePendingFiringResolved)
{
    AlertEngine eng(AlertRules::parse("m > 10 for 200 => page"));
    Tsdb db(100.0, 64);

    // Below threshold: stays inactive.
    db.record("m", 0.0, 5.0);
    EXPECT_TRUE(eng.evaluate(0.0, db).empty());
    EXPECT_EQ(eng.state(0), AlertState::Inactive);

    // Crosses: pending (the `for` guard holds it back).
    db.record("m", 100.0, 20.0);
    std::vector<AlertTransition> t = eng.evaluate(100.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].to, AlertState::Pending);
    EXPECT_DOUBLE_EQ(t[0].value, 20.0);

    // Still high 200 cycles later: fires.
    db.record("m", 300.0, 25.0);
    t = eng.evaluate(300.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].from, AlertState::Pending);
    EXPECT_EQ(t[0].to, AlertState::Firing);
    EXPECT_EQ(eng.firing(), 1u);
    EXPECT_EQ(eng.fired_total(), 1u);

    // Clears (no hold clause): resolves immediately.
    db.record("m", 400.0, 5.0);
    t = eng.evaluate(400.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].from, AlertState::Firing);
    EXPECT_EQ(t[0].to, AlertState::Inactive);
    EXPECT_EQ(eng.resolved_total(), 1u);

    // The engine recorded a state series and annotations in the db.
    const Series *state = db.find(AlertEngine::state_series_name(0));
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->size(), 4u);
    EXPECT_EQ(db.annotations().size(), 3u);
}

TEST(Alerts, PendingResetsWhenConditionClearsEarly)
{
    AlertEngine eng(AlertRules::parse("m > 10 for 500"));
    Tsdb db(100.0, 64);
    db.record("m", 0.0, 20.0);
    eng.evaluate(0.0, db);
    EXPECT_EQ(eng.state(0), AlertState::Pending);
    // Dips below before the `for` duration elapses: back to inactive,
    // and a fresh crossing must re-earn the full duration.
    db.record("m", 100.0, 5.0);
    eng.evaluate(100.0, db);
    EXPECT_EQ(eng.state(0), AlertState::Inactive);
    db.record("m", 200.0, 20.0);
    eng.evaluate(200.0, db);
    db.record("m", 600.0, 20.0);
    eng.evaluate(600.0, db); // only 400 of 500 cycles: still pending
    EXPECT_EQ(eng.state(0), AlertState::Pending);
    db.record("m", 700.0, 20.0);
    eng.evaluate(700.0, db);
    EXPECT_EQ(eng.state(0), AlertState::Firing);
    EXPECT_EQ(eng.fired_total(), 1u);
}

TEST(Alerts, HoldSuppressesFlappingResolution)
{
    AlertEngine eng(AlertRules::parse("m > 10 hold 300 => page"));
    Tsdb db(100.0, 64);
    db.record("m", 0.0, 20.0);
    eng.evaluate(0.0, db); // fires immediately (for = 0)
    EXPECT_EQ(eng.state(0), AlertState::Firing);

    // Clears briefly, re-asserts before `hold` elapses: no resolve.
    db.record("m", 100.0, 5.0);
    EXPECT_TRUE(eng.evaluate(100.0, db).empty());
    db.record("m", 200.0, 20.0);
    EXPECT_TRUE(eng.evaluate(200.0, db).empty());
    EXPECT_EQ(eng.state(0), AlertState::Firing);
    EXPECT_EQ(eng.resolved_total(), 0u);

    // Clears and STAYS clear for the hold duration: resolves, and the
    // clear timer starts at the first clear observation.
    db.record("m", 300.0, 5.0);
    EXPECT_TRUE(eng.evaluate(300.0, db).empty());
    db.record("m", 500.0, 5.0);
    EXPECT_TRUE(eng.evaluate(500.0, db).empty()); // 200 < 300 held
    db.record("m", 600.0, 5.0);
    std::vector<AlertTransition> t = eng.evaluate(600.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].to, AlertState::Inactive);
    EXPECT_EQ(eng.resolved_total(), 1u);
}

TEST(Alerts, MissingSeriesIsFalseCondition)
{
    AlertEngine eng(AlertRules::parse("absent.metric > 0"));
    Tsdb db(100.0, 64);
    EXPECT_TRUE(eng.evaluate(0.0, db).empty());
    EXPECT_EQ(eng.state(0), AlertState::Inactive);
}

TEST(Alerts, QuantileRuleReadsLatestHistogramInterval)
{
    // Bucket bounds 10/20/30: the p50 of {15, 25} interpolates to the
    // top of the (10, 20] bucket.
    AlertEngine eng(AlertRules::parse(
        "lat:p50 > 18 => page; absent:p99 > 0; lat > 0"));
    Tsdb db(100.0, 64);
    Histogram cum({10.0, 20.0, 30.0});
    cum.observe(15.0);
    cum.observe(25.0);
    db.record_histogram("lat", 0.0, cum);
    std::vector<AlertTransition> t = eng.evaluate(0.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].rule, 0u);
    EXPECT_EQ(t[0].to, AlertState::Firing);
    EXPECT_DOUBLE_EQ(t[0].value, 20.0);
    // A missing histogram and a value-form read of a histogram name
    // are both missing series.
    EXPECT_EQ(eng.state(1), AlertState::Inactive);
    EXPECT_EQ(eng.state(2), AlertState::Inactive);

    // Only the latest interval counts: an empty one reads NaN (false)
    // and resolves the page.
    db.record_histogram("lat", 100.0, cum);
    t = eng.evaluate(100.0, db);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].from, AlertState::Firing);
    EXPECT_TRUE(std::isnan(t[0].value));
    EXPECT_EQ(db.annotations().back().name, "lat:p50 > 18 => page");
}

// ------------------------------------------- latency SLOs as rules

TEST(Slo, ConfigParsesAndRoundTrips)
{
    // The SLO recipe: a p99-style latency target T with error budget B
    // is `serve.latency_cycles:p<100(1-B)> > T`; the for/hold clauses
    // are the burn window. Budgets 2% and 0.1% per priority class.
    AlertRules slo = AlertRules::parse(
        "serve.latency_cycles:p98 > 2.5e6 for 1.5e6 cycles => page; "
        "serve.latency_cycles:p99.9 > 5e5 hold 1e6 cycles => warn");
    ASSERT_EQ(slo.size(), 2u);
    EXPECT_EQ(slo.rules[0].metric, "serve.latency_cycles");
    EXPECT_DOUBLE_EQ(slo.rules[0].quantile, 98.0);
    EXPECT_DOUBLE_EQ(slo.rules[0].threshold, 2.5e6);
    EXPECT_DOUBLE_EQ(slo.rules[0].forCycles, 1.5e6);
    EXPECT_EQ(slo.rules[0].severity, AlertSeverity::Page);
    EXPECT_DOUBLE_EQ(slo.rules[1].quantile, 99.9);
    EXPECT_DOUBLE_EQ(slo.rules[1].threshold, 5e5);
    EXPECT_DOUBLE_EQ(slo.rules[1].holdCycles, 1e6);

    AlertRules back = AlertRules::parse(slo.str());
    ASSERT_EQ(back.size(), slo.size());
    EXPECT_EQ(back.str(), slo.str());
    for (std::size_t i = 0; i < slo.size(); ++i) {
        EXPECT_EQ(back.rules[i].quantile, slo.rules[i].quantile);
        EXPECT_EQ(back.rules[i].threshold, slo.rules[i].threshold);
    }

    // A zero budget (p100) or a full one (p0) is not an SLO.
    EXPECT_THROW(AlertRules::parse("serve.latency_cycles:p100 > 1e6"),
                 InvalidArgument);
    EXPECT_THROW(AlertRules::parse("serve.latency_cycles:p0 > 1e6"),
                 InvalidArgument);
    // The target must be a number.
    EXPECT_THROW(AlertRules::parse("serve.latency_cycles:p99 > nan"),
                 InvalidArgument);
}

TEST(Slo, BurnRateAlertsOnDeadlineHeavyLoad)
{
    // The SLO recipe: a 1-cycle p99 target no job can meet pages on
    // the sample that sees a completion and resolves on the next
    // (empty) interval; a generous target on the same load stays
    // quiet. A second job, arriving well after the first completes,
    // opens those empty intervals. Identical at every thread count.
    auto run = [] {
        ServeConfig cfg;
        cfg.exportTelemetry = false;
        cfg.tsdbCadenceCycles = 1e4;
        cfg.alertRules = "serve.latency_cycles:p99 > 1 => page; "
                         "serve.latency_cycles:p99 > 1e12 => page";
        ServingEngine eng(cfg);
        for (double arrival : {0.0, 1e5}) {
            serve::JobSpec spec;
            spec.tenant = "a";
            spec.name = "hopeless";
            spec.arrivalCycle = arrival;
            spec.trace.emit(isa::OpKind::HBM_RD, u64(1) << 16, 0,
                            isa::BasicOp::Other);
            spec.trace.emit(isa::OpKind::NTT, u64(1) << 16, 4096,
                            isa::BasicOp::Other);
            eng.submit(std::move(spec));
        }
        eng.drain();
        return std::make_pair(eng.tsdb().to_jsonl(), eng.alert_log());
    };
    parallel::set_num_threads(1);
    auto [serialDump, log] = run();
    parallel::set_num_threads(4);
    auto [threadedDump, threadedLog] = run();
    parallel::set_num_threads(0); // restore the default
    EXPECT_EQ(serialDump, threadedDump);
    ASSERT_EQ(threadedLog.size(), log.size());

    // fire (job 1) -> resolve (empty interval) -> fire (job 2).
    ASSERT_EQ(log.size(), 3u);
    for (const AlertTransition &t : log) {
        EXPECT_EQ(t.rule, 0u) << "the 1e12 target must stay quiet";
    }
    EXPECT_EQ(log[0].to, AlertState::Firing);
    EXPECT_GT(log[0].value, 1.0);
    EXPECT_EQ(log[1].from, AlertState::Firing);
    EXPECT_TRUE(std::isnan(log[1].value));
    EXPECT_GT(log[1].cycle, log[0].cycle);
    EXPECT_EQ(log[2].to, AlertState::Firing);
    EXPECT_GT(log[2].cycle, 1e5);
}

TEST(Slo, EngineExportsBurnRateGauges)
{
    // One job against a hopeless 1-cycle target: the drain's last
    // sample sees its completion and pages. The edge reaches the
    // metrics registry and, serialized, the TSDB's state series and
    // "alert" annotation; the generous target stays inactive.
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
    telemetry::MetricsRegistry &reg =
        telemetry::MetricsRegistry::global();
    reg.reset();

    ServeConfig cfg;
    cfg.exportTelemetry = true;
    cfg.tsdbCadenceCycles = 1e4;
    cfg.alertRules = "serve.latency_cycles:p99 > 1 => page; "
                     "serve.latency_cycles:p99 > 1e12 => page";
    ServingEngine eng(cfg);
    serve::JobSpec spec;
    spec.tenant = "a";
    spec.name = "hopeless";
    spec.trace.emit(isa::OpKind::NTT, u64(1) << 16, 4096,
                    isa::BasicOp::Other);
    eng.submit(std::move(spec));
    eng.drain();

    EXPECT_DOUBLE_EQ(reg.gauge("serve.alerts.firing").value(), 1.0);
    EXPECT_EQ(reg.counter_value("serve.alerts.fired"), 1.0);
    EXPECT_EQ(reg.counter_value("serve.alerts.resolved"), 0.0);

    const Series *paged =
        eng.tsdb().find(AlertEngine::state_series_name(0));
    const Series *quiet =
        eng.tsdb().find(AlertEngine::state_series_name(1));
    ASSERT_NE(paged, nullptr);
    ASSERT_NE(quiet, nullptr);
    EXPECT_EQ(paged->latest().value,
              static_cast<double>(
                  static_cast<unsigned>(AlertState::Firing)));
    EXPECT_EQ(quiet->latest().value,
              static_cast<double>(
                  static_cast<unsigned>(AlertState::Inactive)));
    std::size_t edges = 0;
    for (const Annotation &a : eng.tsdb().annotations()) {
        if (a.kind != "alert") continue;
        ++edges;
        EXPECT_EQ(a.name, "serve.latency_cycles:p99 > 1 => page");
    }
    EXPECT_EQ(edges, 1u);
}

// --------------------------------------------- end-to-end (chaos gate)

TEST(Alerts, CardDeathScenarioFiresAndResolvesWithinFaultWindow)
{
    std::vector<Scenario> all = serve::standard_scenarios();
    const Scenario *death = nullptr;
    for (const Scenario &sc : all) {
        if (sc.name == "card-death-mid-drain") death = &sc;
    }
    ASSERT_NE(death, nullptr);
    ASSERT_FALSE(death->alertRules.empty());

    CampaignReport rep = serve::run_scenario(*death);
    ASSERT_TRUE(rep.ok());
    EXPECT_GE(rep.alertsFired, 1u);
    EXPECT_GE(rep.alertsResolved, 1u);

    // The page must bracket the scripted CardDeath window: the
    // breaker can only open after the card starts corrupting, and can
    // only re-close after the window ends (probes must come back
    // clean first).
    ASSERT_EQ(death->schedule.events.size(), 1u);
    double deathStart = death->schedule.events[0].startCycle;
    double deathEnd = death->schedule.events[0].endCycle;
    double firedAt = -1.0, resolvedAt = -1.0;
    for (const AlertTransition &t : rep.alertLog) {
        if (t.to == AlertState::Firing && firedAt < 0.0) {
            firedAt = t.cycle;
        }
        if (t.from == AlertState::Firing && resolvedAt < 0.0) {
            resolvedAt = t.cycle;
        }
    }
    ASSERT_GE(firedAt, 0.0);
    ASSERT_GE(resolvedAt, 0.0);
    EXPECT_GE(firedAt, deathStart);
    EXPECT_GE(resolvedAt, deathEnd);
    EXPECT_LT(firedAt, resolvedAt);

    // The same transitions are serialized once, as the TSDB dump's
    // "alert" annotations (value = the rule's new state).
    Tsdb db = Tsdb::parse_jsonl(rep.tsdbJsonl);
    u64 fired = 0, resolved = 0;
    for (const Annotation &a : db.annotations()) {
        if (a.kind != "alert") continue;
        if (a.value == static_cast<double>(AlertState::Firing)) {
            ++fired;
        } else if (a.text.rfind("firing", 0) == 0) {
            ++resolved;
        }
    }
    EXPECT_EQ(fired, rep.alertsFired);
    EXPECT_EQ(resolved, rep.alertsResolved);
}

} // namespace
} // namespace poseidon
