// Tests for the per-job lifecycle journal and the latency-waterfall
// decomposition built on it: event/JSONL round trips, byte-identical
// journals across host thread counts on every chaos scenario, the
// bit-exact phase conservation invariant, reconstruction of the
// engine's reported percentiles from the journal alone, and the
// queue->dispatch->attempt flow events in the Chrome trace export.

#include <gtest/gtest.h>

#include <functional>
#include <map>
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
    // Alert edges live in the TSDB only: a retired AlertTransition
    // event is an unknown kind, reported with its line number.
    try {
        Journal::parse_jsonl(
            "{\"schema\":\"poseidon-journal\",\"schema_version\":1,"
            "\"clock_ghz\":0.3,\"cards\":1,\"events\":1}\n"
            "{\"ev\":\"AlertTransition\",\"job\":0,\"cycle\":0,"
            "\"name\":\"m > 1 => warn\",\"attempt\":1,"
            "\"detail\":\"inactive -> firing\",\"failed\":true}\n");
        ADD_FAILURE() << "AlertTransition line parsed";
    } catch (const poseidon::ParseError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
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
    telemetry::MetricsRegistry &reg =
        telemetry::MetricsRegistry::global();
    reg.reset();
    ServeConfig cfg;
    ServingEngine eng(cfg);
    JobTicket t = eng.submit(job("alice", "one"));
    eng.drain();
    JobResult r = t.result.get();
    ASSERT_EQ(r.state, JobState::Completed);
    // The drain decomposed the journal and published its per-phase
    // histograms.
    if (telemetry::enabled()) {
        EXPECT_EQ(
            reg.histogram("serve.phase_us.execution.tenant.alice")
                .count(),
            1u);
    }

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

TEST(Journal, IncrementalDecompositionEqualsWhole)
{
    // Four drains on a {flaky, clean} fleet: closed-loop follow-ups,
    // a faulted attempt that retries, and a burst past the admission
    // limit. Each drain's own event range decomposes on its own, and
    // the pieces reassemble the whole-journal decomposition.
    telemetry::MetricsRegistry &reg =
        telemetry::MetricsRegistry::global();
    reg.reset();
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.maxQueueDepth = 6;
    cfg.exportTelemetry = true;
    ServingEngine eng(cfg);

    int followUps = 0;
    std::function<void(const JobResult &)> closedLoop =
        [&](const JobResult &r) {
            if (++followUps > 6) return;
            JobSpec s = job("loop", "follow-up");
            s.arrivalCycle = r.finishCycle;
            s.callback = closedLoop;
            eng.submit(std::move(s));
        };
    std::vector<std::size_t> drainEnds = {0};
    std::vector<BreakdownReport> perDrain;
    auto drain = [&] {
        eng.drain();
        perDrain.push_back(
            serve::decompose(eng.journal(), drainEnds.back()));
        drainEnds.push_back(eng.journal().size());
    };

    for (int i = 0; i < 2; ++i) {
        JobSpec s = job("loop", "seed" + std::to_string(i));
        s.callback = closedLoop;
        eng.submit(std::move(s));
    }
    drain();
    for (int i = 0; i < 2; ++i) { // one of the pair lands on card 0
        JobSpec s = job("big", "retrier", u64(1) << 20);
        s.retry.backoffBaseCycles = 5000.0;
        s.arrivalCycle = eng.stats().horizonCycles;
        eng.submit(std::move(s));
    }
    drain();
    for (int i = 0; i < 10; ++i) {
        JobSpec s = job("burst", "b" + std::to_string(i));
        s.arrivalCycle = eng.stats().horizonCycles;
        eng.submit(std::move(s));
    }
    drain();
    followUps = 0;
    JobSpec last = job("loop", "tail");
    last.arrivalCycle = eng.stats().horizonCycles;
    last.callback = closedLoop;
    eng.submit(std::move(last));
    drain();

    ServeStats st = eng.stats();
    ASSERT_GE(st.retries, 1u);
    ASSERT_GE(st.shed, 1u);
    ASSERT_EQ(perDrain.size(), 4u);

    BreakdownReport whole = serve::decompose(eng.journal());
    ASSERT_EQ(whole.jobs.size(), st.submitted);
    telemetry::Json pieces = telemetry::Json::array();
    for (const BreakdownReport &br : perDrain) {
        EXPECT_FALSE(br.jobs.empty());
        const telemetry::Json jobs = br.to_json().at("jobs");
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            pieces.push_back(jobs.at(i));
        }
    }
    EXPECT_EQ(pieces.dump(), whole.to_json().at("jobs").dump());

    if (telemetry::enabled()) {
        // The old whole-journal gauge formula, in job-id order.
        double total = 0.0;
        double perPhase[serve::kPhaseCount] = {};
        for (const JobBreakdown &jb : whole.jobs) {
            total += jb.endToEndCycles;
            for (std::size_t p = 0; p < serve::kPhaseCount; ++p) {
                perPhase[p] += jb.phaseCycles[p];
            }
        }
        const double toUs = 1e6 / (whole.clockGHz * 1e9);
        for (std::size_t p = 0; p < serve::kPhaseCount; ++p) {
            const std::string phase =
                serve::to_string(static_cast<Phase>(p));
            EXPECT_EQ(reg.gauge("serve.phase_share." + phase).value(),
                      perPhase[p] / total)
                << phase;
            // One observation per job, summed in job-id order.
            std::map<std::string, std::pair<u64, double>> tenants;
            for (const JobBreakdown &jb : whole.jobs) {
                auto &[n, sum] = tenants[jb.tenant];
                ++n;
                sum += jb.phaseCycles[p] * toUs;
            }
            for (const auto &[tenant, want] : tenants) {
                const telemetry::Histogram &h = reg.histogram(
                    "serve.phase_us." + phase + ".tenant." + tenant);
                EXPECT_EQ(h.count(), want.first) << phase << tenant;
                EXPECT_EQ(h.sum(), want.second) << phase << tenant;
            }
        }
    }

    // A range that starts inside a job's walk is refused.
    std::size_t mid = drainEnds[1];
    while (eng.journal().events()[mid].kind !=
           JournalEventKind::Dispatched) {
        ++mid;
    }
    ASSERT_LT(mid, drainEnds[2]);
    EXPECT_THROW(serve::decompose(eng.journal(), mid),
                 poseidon::InternalError);
    // So is one that ends before the job does: the last drain's
    // range minus its final terminal event.
    Journal cut;
    cut.set_meta(eng.journal().clock_ghz(), eng.journal().cards());
    for (std::size_t i = drainEnds[3]; i + 1 < drainEnds[4]; ++i) {
        cut.append(eng.journal().events()[i]);
    }
    EXPECT_THROW(serve::decompose(cut), poseidon::InternalError);
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

TEST(Tracer, MultiDrainTraceEmitsEachSliceOnce)
{
    // Three drains under one capture: every job's queue slice and
    // flow start appear once, and a quarantine / firing window that
    // stays open across drains is emitted once, at teardown.
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
    telemetry::Tracer &tr = telemetry::Tracer::global();
    tr.start();
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.health.minAttempts = 1;
    cfg.health.cooldownCycles = 1e15; // quarantined for good
    cfg.tsdbCadenceCycles = 1e5;
    cfg.alertRules = "serve.jobs.completed > 0 => page";
    auto count = [&](auto &&pred) {
        telemetry::Json doc =
            telemetry::Json::parse(tr.chrome_trace_json());
        const telemetry::Json &evs = doc.at("traceEvents");
        std::size_t n = 0;
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (pred(evs.at(i))) ++n;
        }
        return n;
    };
    auto slices_on = [&](double tid) {
        return count([tid](const telemetry::Json &e) {
            return e.at("ph").as_string() == "X" &&
                   e.at("tid").as_number() == tid;
        });
    };
    u64 jobs = 0;
    {
        ServingEngine eng(cfg);
        for (int d = 0; d < 3; ++d) {
            for (int i = 0; i < 2; ++i) {
                JobSpec s = job("t", "j", u64(1) << 20);
                s.arrivalCycle = eng.stats().horizonCycles;
                s.retry.maxAttempts = 4;
                eng.submit(std::move(s));
            }
            eng.drain();
        }
        ServeStats st = eng.stats();
        jobs = st.submitted;
        ASSERT_GE(st.quarantines, 1u);
        ASSERT_NE(st.health[0].state, serve::BreakerState::Closed);
        ASSERT_FALSE(eng.alert_log().empty());
        for (u64 id = 1; id <= jobs; ++id) {
            const std::string queued =
                "job" + std::to_string(id) + " j queued";
            EXPECT_EQ(count([&](const telemetry::Json &e) {
                          return e.at("name").as_string() == queued;
                      }),
                      1u)
                << queued;
            EXPECT_EQ(count([&](const telemetry::Json &e) {
                          return e.at("ph").as_string() == "s" &&
                                 e.at("id").as_number() ==
                                     static_cast<double>(id);
                      }),
                      1u)
                << id;
        }
        EXPECT_EQ(slices_on(400.0), 0u); // card 0's window is open
        EXPECT_EQ(slices_on(450.0), 0u); // the page never resolves
    }
    EXPECT_EQ(slices_on(400.0), 1u);
    EXPECT_EQ(slices_on(450.0), 1u);
    tr.stop();
    EXPECT_EQ(jobs, 6u);
}

} // namespace
} // namespace poseidon
