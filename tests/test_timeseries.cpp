// Tests for the deterministic time-series plane: the ring-buffer TSDB
// (eviction, windowed aggregators, histogram-interval quantiles, JSONL
// round trips), byte-identical dumps across host thread counts on
// every chaos scenario, the alert-rule DSL parse/str round trip, and
// the pending -> firing -> resolved state machine with flap
// suppression — including the end-to-end check that the card-death
// chaos scenario fires and resolves a page whose cycles bracket the
// fault-injection window.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "serve/chaos.h"
#include "serve/engine.h"
#include "telemetry/alerts.h"
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

    // The same transitions landed in the journal as job-0 events.
    serve::Journal j = serve::Journal::parse_jsonl(rep.journalJsonl);
    u64 fired = 0, resolved = 0;
    for (const serve::JournalEvent &ev : j.events()) {
        if (ev.kind != serve::JournalEventKind::AlertTransition) {
            continue;
        }
        EXPECT_EQ(ev.job, 0u);
        if (ev.failed) {
            ++fired;
        } else if (ev.detail.rfind("firing", 0) == 0) {
            ++resolved;
        }
    }
    EXPECT_EQ(fired, rep.alertsFired);
    EXPECT_EQ(resolved, rep.alertsResolved);
}

} // namespace
} // namespace poseidon
