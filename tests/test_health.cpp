// Tests for the fleet-health layer: the per-card circuit breaker
// (serve/health.h) as a unit, and its behavior wired through the
// serving engine — quarantine, probe-based re-admission, permanent
// death, admission-control shedding, and degenerate fleets.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "hw/faults.h"
#include "serve/engine.h"
#include "telemetry/metrics.h"

namespace poseidon {
namespace {

using serve::BreakerState;
using serve::CardHealth;
using serve::HealthConfig;
using serve::HealthEvent;
using serve::HealthMonitor;
using serve::JobResult;
using serve::JobSpec;
using serve::JobState;
using serve::JobTicket;
using serve::ServeConfig;
using serve::ServeStats;
using serve::ServingEngine;

HealthConfig
fast_breaker()
{
    HealthConfig cfg;
    cfg.ewmaAlpha = 0.5;
    cfg.failureThreshold = 0.6;
    cfg.minAttempts = 2;
    cfg.cooldownCycles = 1000.0;
    cfg.probeSuccessesToClose = 2;
    cfg.maxProbeRoundFailures = 2;
    return cfg;
}

hw::FaultStats
clean_stats()
{
    return hw::FaultStats{};
}

TEST(Health, ConfigValidation)
{
    HealthConfig bad = fast_breaker();
    bad.ewmaAlpha = 0.0;
    EXPECT_THROW(HealthMonitor(1, bad), poseidon::InvalidArgument);
    bad = fast_breaker();
    bad.ewmaAlpha = 1.5;
    EXPECT_THROW(HealthMonitor(1, bad), poseidon::InvalidArgument);
    bad = fast_breaker();
    bad.cooldownCycles = -1.0;
    EXPECT_THROW(HealthMonitor(1, bad), poseidon::InvalidArgument);
    bad = fast_breaker();
    bad.probeSuccessesToClose = 0;
    EXPECT_THROW(HealthMonitor(1, bad), poseidon::InvalidArgument);
    EXPECT_THROW(HealthMonitor(0, fast_breaker()),
                 poseidon::InvalidArgument);
}

TEST(Health, BreakerTripsOnFailureEwma)
{
    HealthMonitor mon(2, fast_breaker());
    EXPECT_TRUE(mon.admissible(0, 0.0));

    // alpha 0.5: one failure -> 0.5 (under 0.6), two -> 0.75 (trip).
    EXPECT_FALSE(
        mon.record_attempt(0, 100.0, clean_stats(), 50.0, true));
    EXPECT_TRUE(mon.admissible(0, 100.0));
    EXPECT_TRUE(
        mon.record_attempt(0, 200.0, clean_stats(), 50.0, true));

    EXPECT_FALSE(mon.admissible(0, 200.0));
    EXPECT_EQ(mon.card(0).state, BreakerState::Open);
    EXPECT_EQ(mon.quarantines(), 1u);
    // Card 1 is untouched.
    EXPECT_TRUE(mon.admissible(1, 200.0));
    ASSERT_EQ(mon.events().size(), 1u);
    EXPECT_EQ(mon.events()[0].kind, HealthEvent::Kind::Quarantined);
    EXPECT_EQ(mon.events()[0].card, 0u);
}

TEST(Health, MinAttemptsShieldsColdCard)
{
    HealthConfig cfg = fast_breaker();
    cfg.minAttempts = 4;
    HealthMonitor mon(1, cfg);
    // Three straight failures push the EWMA well past the threshold,
    // but the attempt floor keeps the cold card admissible.
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(mon.record_attempt(0, 100.0 * (i + 1),
                                        clean_stats(), 50.0, true));
    }
    EXPECT_TRUE(mon.admissible(0, 300.0));
    EXPECT_TRUE(
        mon.record_attempt(0, 400.0, clean_stats(), 50.0, true));
}

TEST(Health, RetryShareTripsWithoutCorruption)
{
    HealthMonitor mon(1, fast_breaker());
    hw::FaultStats degraded;
    degraded.retryCycles = 90.0; // 90% of a 100-cycle attempt
    // Attempts *succeed* (failed=false) but drown in ECC replays.
    EXPECT_FALSE(
        mon.record_attempt(0, 100.0, degraded, 100.0, false));
    EXPECT_TRUE(mon.record_attempt(0, 200.0, degraded, 100.0, false));
    EXPECT_EQ(mon.card(0).state, BreakerState::Open);
    EXPECT_EQ(mon.card(0).failedAttempts, 0u);
    EXPECT_NE(mon.events()[0].reason.find("replay share"),
              std::string::npos);
}

TEST(Health, CooldownProbesAndReadmission)
{
    HealthMonitor mon(1, fast_breaker());
    mon.record_attempt(0, 100.0, clean_stats(), 50.0, true);
    mon.record_attempt(0, 200.0, clean_stats(), 50.0, true);
    ASSERT_EQ(mon.card(0).state, BreakerState::Open);

    // Inside the cooldown: no probes, availability is the expiry.
    EXPECT_FALSE(mon.wants_probe(0, 500.0));
    EXPECT_DOUBLE_EQ(mon.available_at(0, 500.0), 1200.0);

    // Cooldown elapsed: the card asks for probes and transitions to
    // HALF_OPEN on the first one.
    EXPECT_TRUE(mon.wants_probe(0, 1200.0));
    mon.record_probe(0, 1250.0, true);
    EXPECT_EQ(mon.card(0).state, BreakerState::HalfOpen);
    EXPECT_FALSE(mon.admissible(0, 1250.0)); // probes only, no work
    EXPECT_TRUE(mon.wants_probe(0, 1250.0));

    // Second clean probe closes the breaker and resets the record.
    mon.record_probe(0, 1300.0, true);
    EXPECT_EQ(mon.card(0).state, BreakerState::Closed);
    EXPECT_TRUE(mon.admissible(0, 1300.0));
    EXPECT_EQ(mon.readmissions(), 1u);
    EXPECT_DOUBLE_EQ(mon.card(0).ewmaFailure, 0.0);
    EXPECT_EQ(mon.card(0).attempts, 0u);
    EXPECT_EQ(mon.probes(), 2u);
}

TEST(Health, FailedProbeRoundsKillTheCard)
{
    HealthMonitor mon(1, fast_breaker()); // maxProbeRoundFailures = 2
    mon.record_attempt(0, 100.0, clean_stats(), 50.0, true);
    mon.record_attempt(0, 200.0, clean_stats(), 50.0, true);

    mon.record_probe(0, 1200.0, false); // round 1 fails -> back OPEN
    EXPECT_EQ(mon.card(0).state, BreakerState::Open);
    EXPECT_FALSE(mon.card(0).dead);
    // The cooldown restarted from the failed probe.
    EXPECT_DOUBLE_EQ(mon.available_at(0, 1200.0), 2200.0);

    mon.record_probe(0, 2200.0, false); // round 2 fails -> dead
    EXPECT_TRUE(mon.card(0).dead);
    EXPECT_FALSE(mon.wants_probe(0, 1e12));
    EXPECT_TRUE(mon.all_dead());
    EXPECT_EQ(mon.live_cards(), 0u);
    EXPECT_EQ(mon.available_at(0, 0.0),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(mon.events().back().kind, HealthEvent::Kind::Died);
}

TEST(Health, BreakerStateNames)
{
    EXPECT_STREQ(serve::to_string(BreakerState::Closed), "Closed");
    EXPECT_STREQ(serve::to_string(BreakerState::Open), "Open");
    EXPECT_STREQ(serve::to_string(BreakerState::HalfOpen), "HalfOpen");
    EXPECT_STREQ(serve::to_string(HealthEvent::Kind::Quarantined),
                 "Quarantined");
    EXPECT_STREQ(serve::to_string(HealthEvent::Kind::Died), "Died");
}

// ---- Engine integration -------------------------------------------

isa::Trace
big_trace()
{
    const u64 elems = u64(1) << 20;
    isa::Trace t;
    t.emit(isa::OpKind::HBM_RD, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::MM, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::HBM_WR, elems, 0, isa::BasicOp::Other);
    return t;
}

JobSpec
big_job(const std::string &tenant, const std::string &name)
{
    JobSpec s;
    s.tenant = tenant;
    s.name = name;
    s.trace = big_trace();
    return s;
}

/// One corrupting card + one clean card under a trip-happy breaker.
ServeConfig
flaky_pair_config()
{
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky, hw::HwConfig::poseidon_u280()};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    cfg.health = fast_breaker();
    return cfg;
}

TEST(Health, EngineQuarantinesCorruptingCard)
{
    ServingEngine eng(flaky_pair_config());
    std::vector<JobTicket> tickets;
    for (int i = 0; i < 8; ++i) {
        JobSpec s = big_job("t", "j" + std::to_string(i));
        s.retry.maxAttempts = 4;
        tickets.push_back(eng.submit(std::move(s)));
    }
    eng.drain();

    for (JobTicket &t : tickets) {
        EXPECT_EQ(t.result.get().state, JobState::Completed);
    }
    ServeStats s = eng.stats();
    EXPECT_GE(s.quarantines, 1u);
    ASSERT_EQ(s.health.size(), 2u);
    // Card 0 ends quarantined (OPEN, or dead if probes ran and
    // failed); card 1 stays clean and CLOSED.
    EXPECT_TRUE(s.health[0].state != BreakerState::Closed ||
                s.health[0].dead);
    EXPECT_EQ(s.health[1].state, BreakerState::Closed);
    EXPECT_GE(s.health[0].quarantines, 1u);
    // After the trip, every remaining job ran on card 1.
    EXPECT_GT(s.cards[1].jobs, s.cards[0].jobs);
}

TEST(Health, EngineReadmitsAfterCleanProbes)
{
    // A *transient* failure: card 0 corrupts everything for a window
    // at the start of the drain, then recovers. Calibrate the window
    // against a measured clean horizon so it reliably covers the
    // early dispatches, then check the full breaker lifecycle:
    // quarantine -> failed probes inside the window -> clean probes
    // after it -> re-admission.
    auto submit_load = [](ServingEngine &eng) {
        std::vector<JobTicket> tickets;
        for (int i = 0; i < 16; ++i) {
            JobSpec s = big_job("t", "j" + std::to_string(i));
            s.retry.maxAttempts = 6;
            tickets.push_back(eng.submit(std::move(s)));
        }
        return tickets;
    };

    ServeConfig clean;
    clean.cards = 2;
    clean.maxBatch = 1;
    clean.exportTelemetry = false;
    double horizon;
    {
        ServingEngine eng(clean);
        submit_load(eng);
        eng.drain();
        horizon = eng.stats().horizonCycles;
    }

    ServeConfig cfg = clean;
    cfg.health = fast_breaker();
    cfg.health.cooldownCycles = 0.15 * horizon;
    cfg.health.maxProbeRoundFailures = 8; // survive in-window probes
    std::ostringstream dsl;
    dsl << "CardDeath{card=0, cycle=0, duration=" << 0.4 * horizon
        << "}";
    cfg.chaos = dsl.str();
    ServingEngine eng(cfg);
    std::vector<JobTicket> tickets = submit_load(eng);
    eng.drain();

    for (JobTicket &t : tickets) {
        EXPECT_EQ(t.result.get().state, JobState::Completed);
    }
    ServeStats s = eng.stats();
    EXPECT_GE(s.quarantines, 1u);
    EXPECT_GE(s.readmissions, 1u);
    EXPECT_GE(s.probes, 2u);
    EXPECT_GT(s.cards[0].probes, 0u);
    // The lifecycle is on the event log: Quarantined ... Readmitted.
    bool sawReadmit = false;
    for (const HealthEvent &e : eng.health().events()) {
        if (e.kind == HealthEvent::Kind::Readmitted && e.card == 0) {
            sawReadmit = true;
        }
    }
    EXPECT_TRUE(sawReadmit);
}

TEST(Health, AllCardsDeadShedsQueueInsteadOfDeadlocking)
{
    // A single-card fleet whose card corrupts *everything* — probes
    // included (CardDeath chaos makes even the tiny probe trace
    // fault). The breaker trips, probes fail until the card is dead,
    // and the engine must shed the queue as Overloaded and return.
    ServeConfig cfg;
    cfg.cards = 1;
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    cfg.health = fast_breaker();
    cfg.chaos = "CardDeath{card=0, cycle=0, duration=1e15}";
    ServingEngine eng(cfg);

    std::vector<JobTicket> tickets;
    for (int i = 0; i < 6; ++i) {
        JobSpec s = big_job("t", "j" + std::to_string(i));
        s.retry.maxAttempts = 2;
        tickets.push_back(eng.submit(std::move(s)));
    }
    eng.drain(); // must terminate

    u64 failed = 0, shed = 0;
    for (JobTicket &t : tickets) {
        JobResult r = t.result.get(); // every future resolved
        if (r.state == JobState::Failed) ++failed;
        if (r.state == JobState::Shed) {
            ++shed;
            EXPECT_EQ(r.errorCode, ErrorCode::kOverloaded);
            EXPECT_NE(r.error.find("quarantined"), std::string::npos);
        }
    }
    ServeStats s = eng.stats();
    EXPECT_TRUE(eng.health().all_dead());
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(failed + shed, 6u);
    EXPECT_EQ(s.submitted, s.completed + s.failed + s.expired + s.shed);
}

TEST(Health, AdmissionControlShedsLowestPriorityFirst)
{
    ServeConfig cfg;
    cfg.cards = 1;
    cfg.maxBatch = 1;
    cfg.maxQueueDepth = 2;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec hi = big_job("a", "hi");
    hi.priority = 5;
    JobSpec mid = big_job("b", "mid");
    mid.priority = 1;
    JobSpec lo1 = big_job("c", "lo1");
    JobSpec lo2 = big_job("c", "lo2");

    JobTicket thi = eng.submit(std::move(hi));
    JobTicket tmid = eng.submit(std::move(mid));
    JobTicket tlo1 = eng.submit(std::move(lo1));
    JobTicket tlo2 = eng.submit(std::move(lo2));
    eng.drain();

    EXPECT_EQ(thi.result.get().state, JobState::Completed);
    EXPECT_EQ(tmid.result.get().state, JobState::Completed);
    // Both priority-0 jobs shed, newest-first would keep lo1 if only
    // one had to go; with depth 2 both are over the limit.
    JobResult r1 = tlo1.result.get();
    JobResult r2 = tlo2.result.get();
    EXPECT_EQ(r1.state, JobState::Shed);
    EXPECT_EQ(r2.state, JobState::Shed);
    EXPECT_EQ(r1.errorCode, ErrorCode::kOverloaded);
    EXPECT_NE(r1.error.find("Overloaded"), std::string::npos);

    ServeStats s = eng.stats();
    EXPECT_EQ(s.shed, 2u);
    EXPECT_EQ(s.tenants.at("c").shed, 2u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(Health, DeadlineAwareBackoffSkipsDoomedRetry)
{
    hw::HwConfig flaky = hw::HwConfig::poseidon_u280();
    flaky.faults.ber = 1e-4;
    flaky.faults.secded = false;
    ServeConfig cfg;
    cfg.fleet = {flaky};
    cfg.maxBatch = 1;
    cfg.exportTelemetry = false;
    ServingEngine eng(cfg);

    JobSpec s = big_job("a", "tight");
    s.retry.maxAttempts = 5;
    s.retry.backoffBaseCycles = 1.0e9; // pushes any retry past the
    s.deadlineCycle = 1.0e8;           // deadline -> skip, fail now
    JobTicket t = eng.submit(std::move(s));
    eng.drain();

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Failed);
    EXPECT_EQ(r.attempts, 1u); // retries skipped, not attempted
    EXPECT_EQ(r.errorCode, ErrorCode::kFaultDetected);
    EXPECT_NE(r.error.find("retry skipped"), std::string::npos);
    EXPECT_EQ(eng.stats().retries, 0u);
}

TEST(Health, EmptyFleetConstructionRejected)
{
    ServeConfig cfg;
    cfg.cards = 0;
    EXPECT_THROW(ServingEngine{cfg}, poseidon::InvalidArgument);
}

TEST(Health, StatsExposeBreakerStateAndGauges)
{
    telemetry::MetricsRegistry::global().reset();
    ServeConfig cfg = flaky_pair_config();
    cfg.exportTelemetry = true;
    ServingEngine eng(cfg);
    for (int i = 0; i < 8; ++i) {
        JobSpec s = big_job("t", "j" + std::to_string(i));
        s.retry.maxAttempts = 4;
        eng.submit(std::move(s));
    }
    eng.drain();

    ServeStats s = eng.stats();
    ASSERT_GE(s.quarantines, 1u);
    telemetry::Json j = s.to_json();
    EXPECT_EQ(j.at("quarantines").as_number(),
              static_cast<double>(s.quarantines));
    // Per-card breaker state rides in the cards array.
    EXPECT_TRUE(j.at("cards").at(std::size_t{0}).contains("breaker"));

    auto &reg = telemetry::MetricsRegistry::global();
    EXPECT_GE(reg.counter_value("serve.health.quarantines"), 1.0);
    // Card 0 is not Closed (0.0) by drain end.
    EXPECT_GT(reg.gauge("serve.health.state.0").value(), 0.0);
    EXPECT_EQ(reg.gauge("serve.health.state.1").value(), 0.0);
}

} // namespace
} // namespace poseidon
