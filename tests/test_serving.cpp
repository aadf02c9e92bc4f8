// Tests for the multi-tenant serving engine: scheduling policy,
// deadlines, fault failover across shards, batching, and bit-exact
// determinism of the simulated schedule across host thread counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "hw/sim.h"
#include "serve/engine.h"

namespace poseidon {
namespace {

using serve::JobResult;
using serve::JobSpec;
using serve::JobState;
using serve::JobTicket;
using serve::ServeConfig;
using serve::ServeStats;
using serve::ServingEngine;

/// A small but non-trivial program: one round trip through HBM with
/// element-wise work and an NTT in between.
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

TEST(Serving, SingleJobCompletes)
{
    ServingEngine eng;
    JobTicket t = eng.submit(job("alice", "one"));
    EXPECT_EQ(t.id, 1u);
    EXPECT_EQ(eng.queue_depth(), 1u);
    eng.drain();
    EXPECT_EQ(eng.queue_depth(), 0u);

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Completed);
    EXPECT_EQ(r.tenant, "alice");
    EXPECT_EQ(r.name, "one");
    EXPECT_EQ(r.card, 0u);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_GT(r.sim.cycles, 0.0);
    // Latency = dispatch overhead + service time, on the modeled clock.
    EXPECT_DOUBLE_EQ(r.finishCycle,
                     eng.config().dispatchCycles + r.sim.cycles);
    EXPECT_DOUBLE_EQ(r.latency_cycles(), r.finishCycle);

    ServeStats s = eng.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.batches, 1u);
    EXPECT_DOUBLE_EQ(s.horizonCycles, r.finishCycle);
    EXPECT_GT(s.throughput_jobs_per_sec(), 0.0);
}

TEST(Serving, NamedWorkloadResolvesAtSubmit)
{
    ServeConfig cfg;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    JobSpec s;
    s.workload = "lr";
    JobTicket t = eng.submit(std::move(s));
    eng.drain();
    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Completed);
    EXPECT_EQ(r.name, "LR"); // defaulted from the resolved workload
}

TEST(Serving, SubmitRejectsUnknownWorkloadAndEmptyTrace)
{
    ServingEngine eng;
    JobSpec bad;
    bad.workload = "no-such-workload";
    EXPECT_THROW(eng.submit(std::move(bad)), poseidon::InvalidArgument);
    JobSpec empty;
    EXPECT_THROW(eng.submit(std::move(empty)),
                 poseidon::InvalidArgument);
}

TEST(Serving, FifoWithinTenant)
{
    ServeConfig cfg;
    cfg.maxBatch = 1; // one job per dispatch: pure ordering test
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    std::vector<std::string> order;
    for (const char *name : {"first", "second", "third"}) {
        JobSpec s = job("t", name);
        s.callback = [&order](const JobResult &r) {
            order.push_back(r.name);
        };
        eng.submit(std::move(s));
    }
    eng.drain();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "first");
    EXPECT_EQ(order[1], "second");
    EXPECT_EQ(order[2], "third");
}

TEST(Serving, PriorityPreemptsSubmissionOrder)
{
    ServeConfig cfg;
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    std::vector<std::string> order;
    auto record = [&order](const JobResult &r) {
        order.push_back(r.name);
    };

    JobSpec low = job("a", "low");
    low.priority = 0;
    low.callback = record;
    JobSpec high = job("b", "high");
    high.priority = 3;
    high.callback = record;

    eng.submit(std::move(low)); // submitted first...
    eng.submit(std::move(high));
    eng.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "high"); // ...but the priority class wins
    EXPECT_EQ(order[1], "low");
}

TEST(Serving, LeastAttainedServiceInterleavesTenants)
{
    ServeConfig cfg;
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    std::vector<std::string> order;
    auto record = [&order](const JobResult &r) {
        order.push_back(r.tenant);
    };
    // All of A's jobs enter the queue before any of B's; strict FIFO
    // would run A A A B B B. Least-attained-service interleaves.
    for (int i = 0; i < 3; ++i) {
        JobSpec s = job("A", "a" + std::to_string(i));
        s.callback = record;
        eng.submit(std::move(s));
    }
    for (int i = 0; i < 3; ++i) {
        JobSpec s = job("B", "b" + std::to_string(i));
        s.callback = record;
        eng.submit(std::move(s));
    }
    eng.drain();
    ASSERT_EQ(order.size(), 6u);
    std::vector<std::string> want = {"A", "B", "A", "B", "A", "B"};
    EXPECT_EQ(order, want);

    ServeStats s = eng.stats();
    // Equal jobs, equal service: attained cycles match exactly.
    EXPECT_DOUBLE_EQ(s.tenants.at("A").attainedCycles,
                     s.tenants.at("B").attainedCycles);
}

TEST(Serving, DeadlineExpiresWhileQueued)
{
    ServeConfig cfg;
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobTicket longJob = eng.submit(job("a", "long", u64(1) << 20));
    JobSpec tight = job("b", "tight");
    tight.deadlineCycle = 10.0; // passes long before the card frees up
    JobTicket t = eng.submit(std::move(tight));
    eng.drain();

    EXPECT_EQ(longJob.result.get().state, JobState::Completed);
    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Expired);
    EXPECT_EQ(r.card, static_cast<std::size_t>(-1)); // never dispatched
    EXPECT_NE(r.error.find("deadline"), std::string::npos);
    // Expiry is observed at dispatch time, when the card next frees.
    EXPECT_GT(r.finishCycle, 10.0);
}

TEST(Serving, BatchingAmortizesDispatchOverhead)
{
    const int kJobs = 4;
    auto run = [&](std::size_t maxBatch) {
        ServeConfig cfg;
        cfg.maxBatch = maxBatch;
        cfg.exportTelemetry = false;
        ServingEngine eng(cfg);
        for (int i = 0; i < kJobs; ++i) {
            eng.submit(job("t", "j" + std::to_string(i)));
        }
        eng.drain();
        return eng.stats();
    };
    ServeStats batched = run(4);
    ServeStats serial = run(1);
    EXPECT_EQ(batched.batches, 1u);
    EXPECT_EQ(serial.batches, 4u);
    // The only difference is three saved per-dispatch overheads.
    EXPECT_NEAR(serial.horizonCycles - batched.horizonCycles,
                3.0 * ServeConfig{}.dispatchCycles, 1.0);
}

TEST(Serving, FaultFailoverReexecutesOnAnotherShard)
{
    // Card 0: unprotected memory at a BER that guarantees corruption
    // on a trace this large. Card 1: reliable memory.
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobTicket t = eng.submit(job("a", "failover", u64(1) << 20));
    eng.drain();

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Completed);
    EXPECT_EQ(r.attempts, 2u); // one faulty run + one clean rerun
    EXPECT_EQ(r.card, 1u);     // failed over away from card 0

    // The rerun on the reliable card matches a direct single-card run
    // of the same trace bit-for-bit.
    hw::SimResult direct =
        hw::PoseidonSim(hw::HwConfig::poseidon_u280())
            .run(small_trace(u64(1) << 20));
    EXPECT_DOUBLE_EQ(r.sim.cycles, direct.cycles);
    EXPECT_EQ(r.sim.faults.silent, 0u);

    ServeStats s = eng.stats();
    EXPECT_EQ(s.retries, 1u);
    ASSERT_EQ(s.cards.size(), 2u);
    EXPECT_EQ(s.cards[0].failedAttempts, 1u);
    EXPECT_EQ(s.cards[0].jobs, 1u); // the faulty attempt occupied it
    EXPECT_EQ(s.cards[1].jobs, 1u);
    // The tenant was charged for both attempts.
    EXPECT_GT(s.tenants.at("a").attainedCycles, direct.cycles);
}

TEST(Serving, BoundedRetriesExhaustToFailure)
{
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.cards = 2;
    cfg.card = flaky; // every card corrupts this trace
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec s = job("a", "doomed", u64(1) << 20);
    s.retry.maxAttempts = 3;
    JobTicket t = eng.submit(std::move(s));
    eng.drain();

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Failed);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(eng.stats().retries, 2u);
}

TEST(Serving, CallbackMayResubmit)
{
    ServeConfig cfg;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    int chain = 0;
    std::function<void(const JobResult &)> next =
        [&](const JobResult &) {
            if (++chain < 3) {
                JobSpec s = job("loop", "j" + std::to_string(chain));
                s.callback = next;
                eng.submit(std::move(s));
            }
        };
    JobSpec first = job("loop", "j0");
    first.callback = next;
    eng.submit(std::move(first));
    eng.drain(); // must keep going until the chain stops feeding it
    EXPECT_EQ(chain, 3);
    EXPECT_EQ(eng.stats().completed, 3u);
}

/// A mixed multi-tenant load over a 4-card fleet with faults enabled.
ServeStats
run_reference_mix()
{
    hw::HwConfig card = hw::HwConfig::poseidon_u280();
    card.faults.ber = 5e-7; // light ECC activity on every card
    ServeConfig cfg;
    cfg.cards = 4;
    cfg.card = card;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);
    for (int i = 0; i < 24; ++i) {
        JobSpec s = job("tenant" + std::to_string(i % 3),
                        "j" + std::to_string(i),
                        u64(1) << (14 + i % 4));
        s.priority = i % 2;
        s.arrivalCycle = 1e4 * static_cast<double>(i % 5);
        eng.submit(std::move(s));
    }
    eng.drain();
    return eng.stats();
}

void
expect_identical(const ServeStats &a, const ServeStats &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_DOUBLE_EQ(a.horizonCycles, b.horizonCycles);
    EXPECT_DOUBLE_EQ(a.busyCycles, b.busyCycles);
    ASSERT_EQ(a.cards.size(), b.cards.size());
    for (std::size_t i = 0; i < a.cards.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cards[i].busyCycles, b.cards[i].busyCycles);
        EXPECT_EQ(a.cards[i].jobs, b.cards[i].jobs);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (const auto &[name, ta] : a.tenants) {
        const auto &tb = b.tenants.at(name);
        EXPECT_EQ(ta.completed, tb.completed) << name;
        EXPECT_DOUBLE_EQ(ta.attainedCycles, tb.attainedCycles) << name;
        EXPECT_DOUBLE_EQ(ta.p50LatencyCycles, tb.p50LatencyCycles)
            << name;
        EXPECT_DOUBLE_EQ(ta.p99LatencyCycles, tb.p99LatencyCycles)
            << name;
    }
}

TEST(Serving, ScheduleIsBitIdenticalAcrossHostThreadCounts)
{
    parallel::set_num_threads(1);
    ServeStats serial = run_reference_mix();
    parallel::set_num_threads(4);
    ServeStats threaded = run_reference_mix();
    parallel::set_num_threads(0); // restore the environment default
    EXPECT_GT(serial.completed, 0u);
    expect_identical(serial, threaded);
}

TEST(Serving, StatsExportAndJson)
{
    telemetry::MetricsRegistry::global().reset(); // isolate counters
    ServingEngine eng;                            // telemetry on
    eng.submit(job("alice", "one"));
    eng.submit(job("bob", "two"));
    eng.drain();
    ServeStats s = eng.stats();

    telemetry::Json j = s.to_json();
    EXPECT_EQ(j.at("completed").as_number(), 2.0);
    EXPECT_TRUE(j.at("tenants").contains("alice"));
    EXPECT_EQ(j.at("cards").size(), 1u);
    const telemetry::Json &alice = j.at("tenants").at("alice");
    EXPECT_EQ(alice.at("submitted").as_number(), 1.0);
    EXPECT_EQ(alice.at("shed").as_number(), 0.0);
    // Round-trips through the serializer.
    telemetry::Json back = telemetry::Json::parse(j.dump());
    EXPECT_EQ(back.at("completed").as_number(), 2.0);

    auto &reg = telemetry::MetricsRegistry::global();
    EXPECT_EQ(reg.counter_value("serve.jobs.submitted"), 2.0);
    EXPECT_EQ(reg.counter_value("serve.jobs.completed"), 2.0);
    EXPECT_GT(reg.gauge("serve.fleet_occupancy").value(), 0.0);
    EXPECT_GT(reg.gauge("serve.card_occupancy.0").value(), 0.0);
    // Per-tenant outcome gauges (one family per tenant).
    EXPECT_EQ(reg.gauge("serve.tenant_submitted.alice").value(), 1.0);
    EXPECT_EQ(reg.gauge("serve.tenant_completed.bob").value(), 1.0);
    EXPECT_EQ(reg.gauge("serve.tenant_shed.alice").value(), 0.0);
    EXPECT_EQ(reg.gauge("serve.tenant_expired.alice").value(), 0.0);
    EXPECT_GT(reg.gauge("serve.tenant_p99_cycles.alice").value(),
              0.0);
}

TEST(Serving, JobStateNames)
{
    EXPECT_STREQ(serve::to_string(JobState::Queued), "Queued");
    EXPECT_STREQ(serve::to_string(JobState::Completed), "Completed");
    EXPECT_STREQ(serve::to_string(JobState::Failed), "Failed");
    EXPECT_STREQ(serve::to_string(JobState::Expired), "Expired");
    EXPECT_STREQ(serve::to_string(JobState::Shed), "Shed");
}

TEST(Serving, SubmitRejectsInvalidSpecs)
{
    ServeConfig cfg;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec zeroAttempts = job("a", "zero");
    zeroAttempts.retry.maxAttempts = 0; // could never run
    EXPECT_THROW(eng.submit(std::move(zeroAttempts)),
                 poseidon::InvalidArgument);

    JobSpec doomed = job("a", "doomed");
    doomed.arrivalCycle = 1000.0;
    doomed.deadlineCycle = 10.0; // deadline before arrival
    EXPECT_THROW(eng.submit(std::move(doomed)),
                 poseidon::InvalidArgument);

    JobSpec negBackoff = job("a", "neg");
    negBackoff.retry.backoffBaseCycles = -1.0;
    EXPECT_THROW(eng.submit(std::move(negBackoff)),
                 poseidon::InvalidArgument);

    JobSpec shrinkingBackoff = job("a", "shrink");
    shrinkingBackoff.retry.backoffMultiplier = 0.5;
    EXPECT_THROW(eng.submit(std::move(shrinkingBackoff)),
                 poseidon::InvalidArgument);

    // A rejected submit leaves no residue: the engine still drains
    // and serves valid work.
    JobTicket t = eng.submit(job("a", "fine"));
    eng.drain();
    EXPECT_EQ(t.result.get().state, JobState::Completed);
}

TEST(Serving, FailoverExcludesEveryPreviouslyFaultedCard)
{
    // Cards 0 and 1 corrupt everything; card 2 is clean. A job that
    // faults on 0 then 1 must land on 2 — excluding the *set* of
    // faulted cards, not just the most recent one (the regression:
    // attempt 3 used to be allowed back onto card 0).
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec s = job("a", "wandering", u64(1) << 20);
    s.retry.maxAttempts = 3;
    JobTicket t = eng.submit(std::move(s));
    eng.drain();

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Completed);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(r.card, 2u); // both faulted cards were excluded

    ServeStats st = eng.stats();
    EXPECT_EQ(st.cards[0].jobs + st.cards[1].jobs, 2u);
    EXPECT_EQ(st.cards[2].jobs, 1u);
}

TEST(Serving, SingleCardFleetWaivesExclusionInsteadOfStalling)
{
    // One card, and it faults: with nowhere else to go, the rerun
    // must happen on the same card (the exclusion is waived), and the
    // engine must terminate rather than wait for another card.
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec s = job("a", "stuck", u64(1) << 20);
    s.retry.maxAttempts = 2;
    JobTicket t = eng.submit(std::move(s));
    eng.drain();

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Failed);
    EXPECT_EQ(r.attempts, 2u); // both attempts ran, same card
    EXPECT_EQ(eng.stats().cards[0].jobs, 2u);
}

TEST(Serving, EveryVerdictReportsItsFields)
{
    // One card drives all four verdicts. At cycle 0 four jobs queue
    // against a depth limit of 3, so the newest ("dropped") is shed.
    // "done" runs first (tenant name order); "late" expires when the
    // card frees; "doomed" arrives at 1e7, inside a CardDeath window,
    // and has no retry left. The expected values were recorded from
    // the engine before its four verdicts were merged into one
    // function.
    ServeConfig cfg;
    cfg.maxBatch = 1;
    cfg.maxQueueDepth = 3;
    cfg.chaos = "CardDeath{card=0, cycle=1e7, duration=1e6}";
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    std::vector<JobResult> called;
    auto submit = [&](JobSpec s) {
        s.callback = [&](const JobResult &r) { called.push_back(r); };
        return eng.submit(std::move(s));
    };
    JobTicket done = submit(job("a", "done"));
    JobSpec late = job("c", "late");
    late.deadlineCycle = 10.0;
    JobTicket lateT = submit(std::move(late));
    JobSpec doomed = job("b", "doomed");
    doomed.arrivalCycle = 1e7;
    doomed.retry.maxAttempts = 1;
    JobTicket doomedT = submit(std::move(doomed));
    JobSpec dropped = job("d", "dropped");
    dropped.arrivalCycle = 5.0;
    JobTicket droppedT = submit(std::move(dropped));
    eng.drain();

    struct Want
    {
        serve::JobId id;
        JobState state;
        ErrorCode code;
        const char *tenant, *name;
        std::size_t card;
        u64 attempts;
        double arrival, start, finish;
        const char *error;
    };
    const std::size_t kNoCard = static_cast<std::size_t>(-1);
    const Want want[] = {
        {4, JobState::Shed, ErrorCode::kOverloaded, "d", "dropped",
         kNoCard, 0, 5.0, 0.0, 5.0,
         "Overloaded: queue depth exceeded the admission limit (shed "
         "at cycle 5)"},
        {1, JobState::Completed, ErrorCode::kOk, "a", "done", 0, 1, 0.0,
         20000.0, 21715.91240461402, ""},
        {2, JobState::Expired, ErrorCode::kOverloaded, "c", "late",
         kNoCard, 0, 0.0, 0.0, 21715.91240461402,
         "deadline 10 passed before dispatch at cycle 21715.9"},
        {3, JobState::Failed, ErrorCode::kFaultDetected, "b", "doomed",
         0, 1, 1e7, 10020000.0, 10021715.912404614,
         "silent corruption past ECC on card 0 (attempt 1/1)"},
    };
    const JobTicket *tickets[] = {&droppedT, &done, &lateT, &doomedT};
    ASSERT_EQ(called.size(), 4u); // callbacks fire in verdict order
    for (std::size_t i = 0; i < 4; ++i) {
        const Want &w = want[i];
        SCOPED_TRACE(w.name);
        for (const JobResult &got : {tickets[i]->result.get(), called[i]}) {
            EXPECT_EQ(got.id, w.id);
            EXPECT_EQ(got.state, w.state);
            EXPECT_EQ(got.errorCode, w.code);
            EXPECT_EQ(got.tenant, w.tenant);
            EXPECT_EQ(got.name, w.name);
            EXPECT_EQ(got.card, w.card);
            EXPECT_EQ(got.attempts, w.attempts);
            EXPECT_DOUBLE_EQ(got.arrivalCycle, w.arrival);
            EXPECT_DOUBLE_EQ(got.startCycle, w.start);
            EXPECT_DOUBLE_EQ(got.finishCycle, w.finish);
            EXPECT_EQ(got.error, w.error);
            // Only a completion carries its run.
            EXPECT_DOUBLE_EQ(got.sim.cycles,
                             w.state == JobState::Completed
                                 ? w.finish - w.start
                                 : 0.0);
        }
    }
}

} // namespace
} // namespace poseidon
