// Tests for the chaos layer: the fault-schedule DSL, the
// deterministic injector, and the scripted campaign scenarios with
// their conservation invariants — including the acceptance scenario
// (card death inside a fault storm) and bit-identical campaign
// reports across host thread counts.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "serve/chaos.h"

namespace poseidon {
namespace {

using serve::CampaignReport;
using serve::ChaosEvent;
using serve::ChaosInjector;
using serve::ChaosSchedule;
using serve::Scenario;

TEST(Chaos, DslParsesEveryEventKind)
{
    ChaosSchedule s = ChaosSchedule::parse(
        "CardDeath{card=0, cycle=2e6, duration=5e6}; "
        "HbmDegrade{card=1, cycle=1e6, stack=2, retryShare=0.4}; "
        "FaultStorm{start=0, end=3e6, rate=0.2}; "
        "GrayCard{card=2, slowdown=3}; "
        "seed=42");
    ASSERT_EQ(s.events.size(), 4u);
    EXPECT_EQ(s.seed, 42u);

    EXPECT_EQ(s.events[0].kind, ChaosEvent::Kind::CardDeath);
    EXPECT_EQ(s.events[0].card, 0u);
    EXPECT_DOUBLE_EQ(s.events[0].startCycle, 2e6);
    EXPECT_DOUBLE_EQ(s.events[0].endCycle, 7e6); // start + duration

    EXPECT_EQ(s.events[1].kind, ChaosEvent::Kind::HbmDegrade);
    EXPECT_EQ(s.events[1].stack, 2u);
    EXPECT_DOUBLE_EQ(s.events[1].retryShare, 0.4);

    EXPECT_EQ(s.events[2].kind, ChaosEvent::Kind::FaultStorm);
    EXPECT_EQ(s.events[2].card, ChaosEvent::kAllCards);
    EXPECT_DOUBLE_EQ(s.events[2].rate, 0.2);
    EXPECT_TRUE(s.events[2].active_at(0.0));
    EXPECT_FALSE(s.events[2].active_at(3e6)); // end is exclusive

    EXPECT_EQ(s.events[3].kind, ChaosEvent::Kind::GrayCard);
    EXPECT_DOUBLE_EQ(s.events[3].slowdown, 3.0);
    EXPECT_DOUBLE_EQ(s.events[3].endCycle,
                     std::numeric_limits<double>::infinity());
}

TEST(Chaos, DslRoundTripsThroughStr)
{
    const char *dsl =
        "CardDeath{card=0, cycle=2e6, duration=5e6}; "
        "FaultStorm{start=1e5, end=3e6, rate=0.25}; seed=7";
    ChaosSchedule a = ChaosSchedule::parse(dsl);
    ChaosSchedule b = ChaosSchedule::parse(a.str());
    EXPECT_EQ(a.str(), b.str());
    ASSERT_EQ(b.events.size(), 2u);
    EXPECT_DOUBLE_EQ(b.events[0].endCycle, 7e6);
    EXPECT_DOUBLE_EQ(b.events[1].rate, 0.25);
    EXPECT_EQ(b.seed, 7u);
    EXPECT_EQ(b, a);
    // Canonical number text: 7+ significant digits and 64-bit seeds
    // come back exactly, event for event.
    for (const char *exact :
         {"CardDeath{card=3, start=1234567, end=1234567.125}; "
          "seed=12345678901234567891",
          "FaultStorm{start=0.1, end=inf, rate=0.2}",
          "HbmDegrade{card=0, cycle=1e300, stack=7, retryShare=0.3}; "
          "GrayCard{slowdown=1.0000001}"}) {
        SCOPED_TRACE(exact);
        ChaosSchedule x = ChaosSchedule::parse(exact);
        EXPECT_EQ(ChaosSchedule::parse(x.str()), x);
    }
    EXPECT_EQ(ChaosSchedule::parse("seed=12345678901234567891").seed,
              12345678901234567891ULL);
    EXPECT_EQ(ChaosSchedule::parse("CardDeath{start=1234567}").str(),
              "CardDeath{start=1234567}");
    // Newlines are accepted as clause separators too.
    ChaosSchedule c = ChaosSchedule::parse(
        "GrayCard{card=1, slowdown=2}\nseed=9");
    EXPECT_EQ(c.events.size(), 1u);
    EXPECT_EQ(c.seed, 9u);
    // Empty schedule: inactive injector.
    EXPECT_TRUE(ChaosSchedule::parse("").empty());
    EXPECT_FALSE(ChaosInjector(ChaosSchedule::parse("")).active());
}

TEST(Chaos, DslRejectsMalformedInput)
{
    EXPECT_THROW(ChaosSchedule::parse("Meteor{card=0}"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(ChaosSchedule::parse("CardDeath{wat=1}"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(ChaosSchedule::parse("CardDeath{card=zero}"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(ChaosSchedule::parse("CardDeath{card=0"),
                 poseidon::InvalidArgument);
    EXPECT_THROW(
        ChaosSchedule::parse("FaultStorm{start=0, end=1, rate=2}"),
        poseidon::InvalidArgument);
    EXPECT_THROW(
        ChaosSchedule::parse("CardDeath{cycle=5, end=1}"),
        poseidon::InvalidArgument);
    EXPECT_THROW(
        ChaosSchedule::parse("CardDeath{cycle=0, end=1, duration=2}"),
        poseidon::InvalidArgument);
    EXPECT_THROW(ChaosSchedule::parse("GrayCard{slowdown=0.5}"),
                 poseidon::InvalidArgument);
    // Integer fields are exact: no wrap to kAllCards, no NaN cast.
    for (const char *bad :
         {"CardDeath{card=-1}", "CardDeath{card=nan}",
          "CardDeath{card=1e30}", "CardDeath{card=0.5}",
          "CardDeath{card=18446744073709551615}",
          "HbmDegrade{card=0, stack=-1}", "HbmDegrade{stack=4294967296}",
          "seed=-1", "seed=nan", "seed=1e3",
          "seed=18446744073709551616", "CardDeath{cycle=nan}",
          "FaultStorm{rate=nan}"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(ChaosSchedule::parse(bad), poseidon::InvalidArgument);
    }
}

TEST(Chaos, CardDeathCorruptsOnlyInWindowAndOnTarget)
{
    ChaosInjector inj(ChaosSchedule::parse(
        "CardDeath{card=0, cycle=100, duration=100}"));
    hw::SimResult r;
    r.cycles = 50.0;

    inj.perturb(0, 1, 0, 150.0, r); // in window, on target
    EXPECT_EQ(r.faults.silent, 1u);
    EXPECT_EQ(inj.deaths_injected(), 1u);

    hw::SimResult clean;
    clean.cycles = 50.0;
    inj.perturb(1, 1, 0, 150.0, clean); // wrong card
    EXPECT_EQ(clean.faults.silent, 0u);
    inj.perturb(0, 1, 0, 250.0, clean); // past the window
    inj.perturb(0, 1, 0, 50.0, clean);  // before the window
    EXPECT_EQ(clean.faults.silent, 0u);
    EXPECT_EQ(inj.deaths_injected(), 1u);
}

TEST(Chaos, StormCoinsAreDeterministicPerAttempt)
{
    ChaosSchedule sched = ChaosSchedule::parse(
        "FaultStorm{start=0, end=1e9, rate=0.5}");
    ChaosInjector a(sched), b(sched);
    int corrupted = 0;
    for (u64 job = 1; job <= 64; ++job) {
        hw::SimResult ra, rb;
        ra.cycles = rb.cycles = 100.0;
        a.perturb(0, job, 0, 10.0, ra);
        b.perturb(0, job, 0, 10.0, rb);
        // Same (card, job, attempt) -> same coin, either way.
        EXPECT_EQ(ra.faults.silent, rb.faults.silent) << job;
        corrupted += ra.faults.silent > 0 ? 1 : 0;
        // A different attempt draws an independent coin; with 64
        // jobs x rate 0.5 both outcomes occur (checked below).
    }
    // rate=0.5 over 64 attempts: statistically impossible to get all
    // or none unless the coin is broken.
    EXPECT_GT(corrupted, 8);
    EXPECT_LT(corrupted, 56);
    EXPECT_EQ(a.storm_corruptions(), b.storm_corruptions());
}

TEST(Chaos, DegradeAndGrayPerturbTimingNotIntegrity)
{
    ChaosInjector inj(ChaosSchedule::parse(
        "HbmDegrade{card=0, cycle=0, retryShare=0.5, stack=1}; "
        "GrayCard{card=1, cycle=0, slowdown=2}"));
    hw::SimResult degraded;
    degraded.cycles = 100.0;
    inj.perturb(0, 1, 0, 10.0, degraded);
    EXPECT_DOUBLE_EQ(degraded.faults.retryCycles, 50.0);
    EXPECT_DOUBLE_EQ(degraded.cycles, 150.0); // replays take time
    EXPECT_EQ(degraded.faults.silent, 0u);

    hw::SimResult gray;
    gray.cycles = 100.0;
    inj.perturb(1, 1, 0, 10.0, gray);
    EXPECT_DOUBLE_EQ(gray.cycles, 200.0);
    EXPECT_EQ(gray.faults.silent, 0u); // slow but *correct*
    EXPECT_DOUBLE_EQ(gray.faults.retryCycles, 0.0);
    EXPECT_EQ(inj.slowdowns_injected(), 1u);
}

TEST(Chaos, StandardCampaignConservesEveryJob)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        CampaignReport r = serve::run_scenario(sc);
        EXPECT_TRUE(r.ok()) << sc.name;
        EXPECT_TRUE(r.allTicketsResolved) << sc.name;
        EXPECT_EQ(r.submitted,
                  r.completed + r.failed + r.expired + r.shed)
            << sc.name;
    }
}

TEST(Chaos, AcceptanceStormPlusDeathQuarantinesAndRecovers)
{
    Scenario acceptance;
    bool found = false;
    for (const Scenario &sc : serve::standard_scenarios()) {
        if (sc.name == "storm-plus-death") {
            acceptance = sc;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    CampaignReport r = serve::run_scenario(acceptance);
    // Zero lost jobs: the storm + dead card cost retries, not work.
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.completed, r.submitted);
    EXPECT_GT(r.retries, 0u);
    // The dying card was quarantined and re-admitted via probes.
    EXPECT_GE(r.quarantines, 1u);
    EXPECT_GE(r.readmissions, 1u);
    EXPECT_GE(r.probes, 1u);
}

TEST(Chaos, GrayCardMustNotTripTheBreaker)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        if (sc.name != "gray-card") continue;
        CampaignReport r = serve::run_scenario(sc);
        EXPECT_EQ(r.completed, r.submitted);
        EXPECT_EQ(r.quarantines, 0u); // slow-but-correct is not faulty
        EXPECT_EQ(r.retries, 0u);
    }
}

TEST(Chaos, OverloadScenarioShedsTyped)
{
    for (const Scenario &sc : serve::standard_scenarios()) {
        if (sc.name != "overload-shed") continue;
        CampaignReport r = serve::run_scenario(sc);
        EXPECT_TRUE(r.ok());
        EXPECT_GT(r.shed, 0u);
        EXPECT_GT(r.completed, 0u);
        EXPECT_EQ(r.stats.shed, r.shed);
    }
}

TEST(Chaos, CampaignReportBitIdenticalAcrossHostThreadCounts)
{
    Scenario acceptance;
    for (const Scenario &sc : serve::standard_scenarios()) {
        if (sc.name == "storm-plus-death") acceptance = sc;
    }
    parallel::set_num_threads(1);
    CampaignReport serial = serve::run_scenario(acceptance);
    parallel::set_num_threads(4);
    CampaignReport threaded = serve::run_scenario(acceptance);
    parallel::set_num_threads(0); // restore the environment default

    EXPECT_EQ(serial.completed, threaded.completed);
    EXPECT_EQ(serial.failed, threaded.failed);
    EXPECT_EQ(serial.shed, threaded.shed);
    EXPECT_EQ(serial.retries, threaded.retries);
    EXPECT_EQ(serial.quarantines, threaded.quarantines);
    EXPECT_EQ(serial.readmissions, threaded.readmissions);
    EXPECT_EQ(serial.probes, threaded.probes);
    EXPECT_DOUBLE_EQ(serial.horizonCycles, threaded.horizonCycles);
    EXPECT_DOUBLE_EQ(serial.stats.busyCycles,
                     threaded.stats.busyCycles);
    ASSERT_EQ(serial.stats.cards.size(), threaded.stats.cards.size());
    for (std::size_t i = 0; i < serial.stats.cards.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.stats.cards[i].busyCycles,
                         threaded.stats.cards[i].busyCycles)
            << i;
        EXPECT_EQ(serial.stats.cards[i].jobs,
                  threaded.stats.cards[i].jobs)
            << i;
    }
}

TEST(Chaos, ReportJsonSurfacesInvariants)
{
    Scenario sc; // default: no chaos
    sc.name = "clean";
    CampaignReport r = serve::run_scenario(sc);
    telemetry::Json j = r.to_json();
    EXPECT_EQ(j.at("scenario").as_string(), "clean");
    EXPECT_TRUE(j.at("conserved").as_bool());
    EXPECT_EQ(j.at("completed").as_number(),
              static_cast<double>(r.completed));
    EXPECT_GT(j.at("goodput_jobs_per_sec").as_number(), 0.0);
}

} // namespace
} // namespace poseidon
