// Tests for the per-job lifecycle journal and the latency-waterfall
// decomposition built on it: event/JSONL round trips, byte-identical
// journals across host thread counts on every chaos scenario, the
// bit-exact phase conservation invariant, reconstruction of the
// engine's reported percentiles from the journal alone, SLO burn-rate
// alerting, and the queue->dispatch->attempt flow events in the
// Chrome trace export.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "hw/sim.h"
#include "serve/chaos.h"
#include "serve/engine.h"
#include "serve/latency_breakdown.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace poseidon {
namespace {

using serve::BreakdownReport;
using serve::CampaignReport;
using serve::JobBreakdown;
using serve::JobResult;
using serve::JobSpec;
using serve::JobState;
using serve::JobTicket;
using serve::Journal;
using serve::JournalEvent;
using serve::JournalEventKind;
using serve::Phase;
using serve::Scenario;
using serve::ServeConfig;
using serve::ServeStats;
using serve::ServingEngine;
using serve::SloConfig;
using serve::SloReport;

/// Same small-but-real program the serving tests use.
isa::Trace
small_trace(u64 elems = u64(1) << 16)
{
    isa::Trace t;
    t.emit(isa::OpKind::HBM_RD, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::MM, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::NTT, elems, 4096, isa::BasicOp::Other);
    t.emit(isa::OpKind::HBM_WR, elems, 0, isa::BasicOp::Other);
    return t;
}

JobSpec
job(const std::string &tenant, const std::string &name,
    u64 elems = u64(1) << 16)
{
    JobSpec s;
    s.tenant = tenant;
    s.name = name;
    s.trace = small_trace(elems);
    return s;
}

/// Config for a quiet 2-card fleet used by the mix tests.
ServeConfig
mix_config()
{
    ServeConfig cfg;
    cfg.cards = 2;
    cfg.exportTelemetry = false;
    return cfg;
}

/// Submit a mixed-size, multi-tenant, two-priority load and drain.
void
run_mix(ServingEngine &eng)
{
    for (int i = 0; i < 12; ++i) {
        JobSpec s = job("t" + std::to_string(i % 3),
                        "j" + std::to_string(i),
                        u64(1) << (15 + i % 3));
        s.arrivalCycle = 1000.0 * i;
        s.priority = i % 2;
        eng.submit(std::move(s));
    }
    eng.drain();
}

TEST(Journal, EventJsonRoundTripsEveryField)
{
    JournalEvent ev;
    ev.kind = JournalEventKind::AttemptEnd;
    ev.job = 42;
    ev.cycle = 12345.678;
    ev.tenant = "alice";
    ev.name = "bootstrap";
    ev.priority = 2;
    ev.card = 3;
    ev.attempt = 2;
    ev.batch = 7;
    ev.batchSize = 4;
    ev.value = 0.1 + 0.2; // not exactly representable: exact dump
    ev.failed = true;
    ev.detail = "ECC retry budget exceeded";

    JournalEvent back = JournalEvent::from_json(ev.to_json());
    EXPECT_EQ(back.kind, ev.kind);
    EXPECT_EQ(back.job, ev.job);
    EXPECT_EQ(back.cycle, ev.cycle);
    EXPECT_EQ(back.tenant, ev.tenant);
    EXPECT_EQ(back.name, ev.name);
    EXPECT_EQ(back.priority, ev.priority);
    EXPECT_EQ(back.card, ev.card);
    EXPECT_EQ(back.attempt, ev.attempt);
    EXPECT_EQ(back.batch, ev.batch);
    EXPECT_EQ(back.batchSize, ev.batchSize);
    EXPECT_EQ(back.value, ev.value);
    EXPECT_EQ(back.failed, ev.failed);
    EXPECT_EQ(back.detail, ev.detail);

    // Queue-side default: kNoCard stays implicit and round-trips.
    JournalEvent q;
    q.kind = JournalEventKind::Enqueued;
    q.job = 1;
    EXPECT_EQ(JournalEvent::from_json(q.to_json()).card,
              JournalEvent::kNoCard);
}

TEST(Journal, JsonlRoundTripsByteForByte)
{
    ServingEngine eng(mix_config());
    run_mix(eng);
    const Journal &j = eng.journal();
    ASSERT_FALSE(j.empty());

    std::string text = j.to_jsonl();
    EXPECT_NE(text.find("\"schema\":\"poseidon-journal\""),
              std::string::npos);

    Journal back = Journal::parse_jsonl(text);
    EXPECT_EQ(back.size(), j.size());
    EXPECT_EQ(back.clock_ghz(), j.clock_ghz());
    EXPECT_EQ(back.cards(), j.cards());
    EXPECT_EQ(back.to_jsonl(), text); // byte-for-byte
}

TEST(Journal, ParseRejectsMalformedDocuments)
{
    EXPECT_THROW(Journal::parse_jsonl(""), poseidon::ParseError);
    EXPECT_THROW(Journal::parse_jsonl("not json\n"),
                 poseidon::ParseError);
    EXPECT_THROW(
        Journal::parse_jsonl(
            "{\"schema\":\"wrong\",\"schema_version\":1,"
            "\"clock_ghz\":0.3,\"cards\":1,\"events\":0}\n"),
        poseidon::ParseError);
    EXPECT_THROW(
        Journal::parse_jsonl(
            "{\"schema\":\"poseidon-journal\",\"schema_version\":99,"
            "\"clock_ghz\":0.3,\"cards\":1,\"events\":0}\n"),
        poseidon::ParseError);
    EXPECT_THROW(
        Journal::parse_jsonl(
            "{\"schema\":\"poseidon-journal\",\"schema_version\":1,"
            "\"clock_ghz\":0.3,\"cards\":1,\"events\":1}\n"
            "{\"ev\":\"NoSuchKind\",\"job\":1,\"cycle\":0}\n"),
        poseidon::ParseError);
    EXPECT_THROW(Journal::load_jsonl("/no/such/journal.jsonl"),
                 poseidon::ParseError);
    // Wrong-typed header fields and out-of-range integers are parse
    // errors too, never a stray InvalidArgument or a wrapped cast.
    for (const char *bad : {
             "{\"schema\":5}\n",
             "{\"schema\":\"poseidon-journal\",\"schema_version\":\"1\","
             "\"clock_ghz\":0.3,\"cards\":1,\"events\":0}\n",
             "{\"schema\":\"poseidon-journal\",\"schema_version\":1,"
             "\"clock_ghz\":0.3,\"cards\":-1,\"events\":0}\n",
             "{\"schema\":\"poseidon-journal\",\"schema_version\":1,"
             "\"clock_ghz\":0.3,\"cards\":1,\"events\":1}\n"
             "{\"ev\":\"Completed\",\"job\":1,\"cycle\":0,"
             "\"card\":-1}\n",
             "{\"schema\":\"poseidon-journal\",\"schema_version\":1,"
             "\"clock_ghz\":0.3,\"cards\":1,\"events\":1}\n"
             "{\"ev\":\"Completed\",\"job\":1e300,\"cycle\":0}\n",
         }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(Journal::parse_jsonl(bad), poseidon::ParseError);
    }
}

TEST(Journal, EngineEmitsFullLifecycleForOneJob)
{
    ServeConfig cfg;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    JobTicket t = eng.submit(job("alice", "one"));
    eng.drain();
    JobResult r = t.result.get();
    ASSERT_EQ(r.state, JobState::Completed);

    // Per-job record: BatchFormed is a batch-level event (job = 0)
    // and is checked separately below.
    std::vector<JournalEventKind> kinds;
    for (const JournalEvent &ev : eng.journal().events()) {
        if (ev.job != 1) continue;
        kinds.push_back(ev.kind);
    }
    ASSERT_EQ(kinds.size(), 7u);
    EXPECT_EQ(kinds[0], JournalEventKind::Submitted);
    EXPECT_EQ(kinds[1], JournalEventKind::Admitted);
    EXPECT_EQ(kinds[2], JournalEventKind::Enqueued);
    EXPECT_EQ(kinds[3], JournalEventKind::Dispatched);
    EXPECT_EQ(kinds[4], JournalEventKind::AttemptStart);
    EXPECT_EQ(kinds[5], JournalEventKind::AttemptEnd);
    EXPECT_EQ(kinds[6], JournalEventKind::Completed);

    u64 batches = 0;
    for (const JournalEvent &ev : eng.journal().events()) {
        if (ev.kind != JournalEventKind::BatchFormed) continue;
        ++batches;
        EXPECT_EQ(ev.batch, 1u);
        EXPECT_EQ(ev.batchSize, 1u);
        EXPECT_EQ(ev.card, 0u);
    }
    EXPECT_EQ(batches, 1u);

    const JournalEvent &done = eng.journal().events().back();
    EXPECT_EQ(done.kind, JournalEventKind::Completed);
    EXPECT_EQ(done.tenant, "alice");
    EXPECT_EQ(done.card, 0u);
    EXPECT_EQ(done.attempt, 1u);
    EXPECT_EQ(done.cycle, r.finishCycle);
    EXPECT_EQ(done.value, r.latency_cycles()); // bit-exact payload
}

TEST(Journal, DisabledJournalRecordsNothing)
{
    ServeConfig cfg;
    cfg.journal = false;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    eng.submit(job("a", "quiet"));
    eng.drain();
    EXPECT_TRUE(eng.journal().empty());
}

TEST(Journal, ByteIdenticalAcrossHostThreadCountsOnEveryScenario)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        parallel::set_num_threads(1);
        CampaignReport serial = serve::run_scenario(sc);
        parallel::set_num_threads(4);
        CampaignReport threaded = serve::run_scenario(sc);
        parallel::set_num_threads(0); // restore the default
        ASSERT_FALSE(serial.journalJsonl.empty()) << sc.name;
        EXPECT_EQ(serial.journalJsonl, threaded.journalJsonl)
            << sc.name;
        EXPECT_TRUE(serial.journalConsistent) << sc.name;
        EXPECT_TRUE(serial.ok()) << sc.name;
    }
}

TEST(Breakdown, ConservationHoldsBitExactlyOnEveryScenario)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        CampaignReport r = serve::run_scenario(sc);
        Journal j = Journal::parse_jsonl(r.journalJsonl);
        BreakdownReport br = serve::decompose(j);
        EXPECT_EQ(br.jobs.size(), r.submitted) << sc.name;
        for (const JobBreakdown &jb : br.jobs) {
            // Bit-for-bit: the distilled phase expansions equal the
            // end-to-end latency as doubles, not just approximately.
            EXPECT_EQ(jb.phase_sum(), jb.endToEndCycles)
                << sc.name << " job " << jb.id;
        }
    }
}

TEST(Breakdown, ReproducesEngineReportedPercentiles)
{
    ServingEngine eng(mix_config());
    run_mix(eng);
    ServeStats s = eng.stats();
    BreakdownReport br = serve::decompose(eng.journal());

    ASSERT_EQ(br.tenants.size(), s.tenants.size());
    for (const auto &[tenant, t] : s.tenants) {
        ASSERT_TRUE(br.tenants.count(tenant)) << tenant;
        const serve::PhaseAccum &acc = br.tenants.at(tenant);
        EXPECT_EQ(acc.completed, t.completed) << tenant;
        // The journal is a sufficient statistic: the rebuilt
        // percentiles equal the engine's bit-for-bit.
        EXPECT_EQ(acc.p50LatencyCycles, t.p50LatencyCycles) << tenant;
        EXPECT_EQ(acc.p99LatencyCycles, t.p99LatencyCycles) << tenant;
    }
}

TEST(Breakdown, AttributesBackoffAndRetryOverhead)
{
    // Card 0 corrupts a trace this large; card 1 is clean. One fault,
    // a pushed-out retry, then success — the waterfall must show the
    // failed attempt as retry overhead and the push-out as backoff.
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec s = job("a", "retrier", u64(1) << 20);
    s.retry.backoffBaseCycles = 5000.0;
    JobTicket t = eng.submit(std::move(s));
    eng.drain();
    ASSERT_EQ(t.result.get().state, JobState::Completed);

    BreakdownReport br = serve::decompose(eng.journal());
    const JobBreakdown *jb = br.find(1);
    ASSERT_NE(jb, nullptr);
    EXPECT_EQ(jb->attempts, 2u);
    ASSERT_EQ(jb->attemptSpans.size(), 2u);
    EXPECT_TRUE(jb->attemptSpans[0].failed);
    EXPECT_FALSE(jb->attemptSpans[1].failed);
    using P = Phase;
    EXPECT_GT(jb->phaseCycles[unsigned(P::RetryOverhead)], 0.0);
    EXPECT_GE(jb->phaseCycles[unsigned(P::Backoff)], 5000.0);
    EXPECT_GT(jb->phaseCycles[unsigned(P::Execution)], 0.0);
    EXPECT_EQ(jb->phase_sum(), jb->endToEndCycles);
    // End-to-end spans both attempts; the engine-reported latency
    // only the post-backoff wait + rerun.
    EXPECT_GT(jb->endToEndCycles, jb->reportedLatencyCycles);
}

TEST(Breakdown, WorstOrdersJobsAndWaterfallPrints)
{
    ServingEngine eng(mix_config());
    run_mix(eng);
    BreakdownReport br = serve::decompose(eng.journal());
    ASSERT_EQ(br.jobs.size(), 12u);

    std::vector<const JobBreakdown *> w = br.worst(3);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_GE(w[0]->endToEndCycles, w[1]->endToEndCycles);
    EXPECT_GE(w[1]->endToEndCycles, w[2]->endToEndCycles);

    std::string text = br.waterfall_text(*w[0]);
    EXPECT_NE(text.find("end-to-end"), std::string::npos);
    EXPECT_NE(text.find("queue_wait"), std::string::npos);
    EXPECT_NE(text.find("execution"), std::string::npos);

    telemetry::Json doc = br.to_json();
    EXPECT_EQ(doc.at("jobs").size(), 12u);
    EXPECT_TRUE(doc.at("tenants").contains("t0"));
}

TEST(Slo, ConfigParsesAndRoundTrips)
{
    SloConfig cfg = SloConfig::parse(
        "prio0=2.5e6;prio1=5e5;budget=0.02;burn=1.5");
    ASSERT_EQ(cfg.p99TargetCycles.size(), 2u);
    EXPECT_DOUBLE_EQ(cfg.p99TargetCycles.at(0), 2.5e6);
    EXPECT_DOUBLE_EQ(cfg.p99TargetCycles.at(1), 5e5);
    EXPECT_DOUBLE_EQ(cfg.budgetFraction, 0.02);
    EXPECT_DOUBLE_EQ(cfg.alertBurnRate, 1.5);

    SloConfig back = SloConfig::parse(cfg.str());
    EXPECT_EQ(back.p99TargetCycles, cfg.p99TargetCycles);
    EXPECT_DOUBLE_EQ(back.budgetFraction, cfg.budgetFraction);

    EXPECT_THROW(SloConfig::parse("bogus=1"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(SloConfig::parse("prio0=-5"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(SloConfig::parse("prio0=1e6;budget=0"),
                 poseidon::InvalidArgument);
    // Priorities are exact ints: no silent wrap, no exponent.
    EXPECT_THROW(SloConfig::parse("prio99999999999=1e6"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(SloConfig::parse("prio1e0=1e6"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(SloConfig::parse("prio0=inf"),
                 poseidon::InvalidArgument);
    EXPECT_TRUE(SloConfig{}.empty());
}

TEST(Slo, BurnRateAlertsOnDeadlineHeavyLoad)
{
    // A 1-cycle p99 target no real job can meet: every completion
    // violates, the burn rate saturates at 1/budget, and the alert
    // gauge latches.
    ServingEngine eng(mix_config());
    run_mix(eng);
    BreakdownReport br = serve::decompose(eng.journal());
    SloConfig slo = SloConfig::parse("prio0=1;prio1=1;budget=0.01");
    SloReport rep = serve::evaluate_slo(br, slo);

    ASSERT_EQ(rep.statuses.size(), 2u);
    EXPECT_EQ(rep.alerts, 2u);
    for (const serve::SloStatus &st : rep.statuses) {
        EXPECT_EQ(st.violations, st.jobs);
        EXPECT_DOUBLE_EQ(st.violationShare, 1.0);
        EXPECT_DOUBLE_EQ(st.burnRate, 100.0); // 1.0 / 0.01
        EXPECT_TRUE(st.alerting);
    }

    // A generous target on the same load stays quiet.
    SloReport calm = serve::evaluate_slo(
        br, SloConfig::parse("prio0=1e12;prio1=1e12"));
    EXPECT_EQ(calm.alerts, 0u);
}

TEST(Slo, EngineExportsBurnRateGauges)
{
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
    telemetry::MetricsRegistry &reg =
        telemetry::MetricsRegistry::global();
    reg.reset();

    ServeConfig cfg;
    cfg.exportTelemetry = true;
    cfg.slo = SloConfig::parse("prio0=1;budget=0.01;burn=1");
    ServingEngine eng(cfg);
    eng.submit(job("a", "hopeless"));
    eng.drain();

    EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.burn_rate.p0").value(),
                     100.0);
    EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.violations.p0").value(),
                     1.0);
    EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.alerting.p0").value(), 1.0);
    EXPECT_DOUBLE_EQ(reg.gauge("serve.slo.alerts").value(), 1.0);
    EXPECT_EQ(reg.counter_value("serve.slo.alert_events"), 1.0);
    // The per-phase histograms landed too.
    EXPECT_GT(
        reg.histogram("serve.phase_us.execution.tenant.a").count(),
        0u);
}

TEST(Tracer, JournalFlowEventsLinkQueueToAttempts)
{
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
    telemetry::Tracer &tr = telemetry::Tracer::global();
    tr.start();
    ServeConfig cfg;
    cfg.exportTelemetry = true;
    ServingEngine eng(cfg);
    eng.submit(job("alice", "traced"));
    eng.drain();
    tr.stop();

    telemetry::Json doc =
        telemetry::Json::parse(tr.chrome_trace_json());
    const telemetry::Json &evs = doc.at("traceEvents");
    std::set<std::string> flowPhases;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const telemetry::Json &e = evs.at(i);
        if (!e.contains("cat") || e.at("cat").as_string() != "flow") {
            continue;
        }
        flowPhases.insert(e.at("ph").as_string());
        EXPECT_EQ(e.at("id").as_number(), 1.0); // flow id = job id
    }
    // The queue span starts the flow and the final attempt ends it.
    EXPECT_TRUE(flowPhases.count("s"));
    EXPECT_TRUE(flowPhases.count("f"));
}

} // namespace
} // namespace poseidon
