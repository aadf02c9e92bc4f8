// Tests for the cluster-scale two-level router: key-cache locality
// placement, the modeled key-transfer cost, per-host admission
// control, refusal of jobs that could never run at submit, host death
// mid-drain re-routing with journal conservation, autoscaling, and
// bit-exact determinism of cluster dumps across host thread counts.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/parallel.h"
#include "common/status.h"
#include "hw/faults.h"
#include "hw/sim.h"

namespace poseidon {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEvent;
using cluster::ClusterEventKind;
using cluster::ClusterJournal;
using cluster::ClusterRouter;
using cluster::ClusterStats;
using cluster::ClusterTicket;
using cluster::Placement;
using serve::JobResult;
using serve::JobSpec;
using serve::JobState;

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
    double arrival = 0.0)
{
    JobSpec s;
    s.tenant = tenant;
    s.name = name;
    s.trace = small_trace();
    s.arrivalCycle = arrival;
    return s;
}

ClusterConfig
small_cluster(std::size_t hosts = 4)
{
    ClusterConfig cfg;
    cfg.hosts = hosts;
    cfg.host.cards = 2;
    cfg.host.tsdbCadenceCycles = 5e5;
    return cfg;
}

u64
count_events(const ClusterJournal &jr, ClusterEventKind k)
{
    u64 n = 0;
    for (const ClusterEvent &ev : jr.events()) {
        if (ev.kind == k) ++n;
    }
    return n;
}

// ------------------------------------------------------- basic routing

TEST(Cluster, SingleJobCompletesWithClusterVerdict)
{
    ClusterRouter router(small_cluster());
    ClusterTicket t = router.submit(job("alice", "one"));
    EXPECT_EQ(t.id, 1u);
    EXPECT_EQ(router.in_flight(), 1u);
    router.drain();
    EXPECT_EQ(router.in_flight(), 0u);

    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Completed);
    EXPECT_EQ(r.id, 1u); // cluster id, not the per-host engine id
    EXPECT_GT(r.finishCycle, 0.0);

    ClusterStats s = router.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.placements, 1u);
    EXPECT_TRUE(s.conserved());
    // First placement of a tenant always uploads its keys.
    EXPECT_EQ(s.keyTransfers, 1u);
    EXPECT_EQ(s.localityHits, 0u);
}

TEST(Cluster, NamedWorkloadResolvesAndTyposThrow)
{
    ClusterRouter router(small_cluster(2));
    JobSpec s;
    s.tenant = "alice";
    s.workload = "lr";
    EXPECT_NO_THROW(router.submit(s));
    JobSpec bad;
    bad.tenant = "alice";
    bad.workload = "lstn";
    EXPECT_THROW(router.submit(bad), InvalidArgument);
    JobSpec empty;
    empty.tenant = "alice";
    EXPECT_THROW(router.submit(empty), InvalidArgument);
}

// -------------------------------------------- locality + key transfers

TEST(Cluster, LocalityKeepsTenantOnItsKeyHost)
{
    ClusterConfig cfg = small_cluster(4);
    cfg.placement = Placement::Locality;
    ClusterRouter router(cfg);
    // Arrivals spaced past each job's service time: the resident host
    // is always free, so spilling to a keyless host could only lose.
    for (int i = 0; i < 8; ++i) {
        router.submit(job("alice", "a" + std::to_string(i),
                          static_cast<double>(i) * 5e6));
    }
    router.drain();
    ClusterStats s = router.stats();
    EXPECT_EQ(s.completed, 8u);
    // One upload, then every later placement hits the resident host.
    EXPECT_EQ(s.keyTransfers, 1u);
    EXPECT_EQ(s.localityHits, 7u);
    EXPECT_DOUBLE_EQ(s.locality_hit_rate(), 7.0 / 8.0);
}

TEST(Cluster, KeyTransferChargesPcieCyclesToFirstPlacement)
{
    ClusterConfig cfg = small_cluster(2);
    cfg.tenantKeyBytes["alice"] = 1e9; // 1 GB of keys
    ClusterRouter router(cfg);
    ClusterTicket t = router.submit(job("alice", "first"));
    router.drain();
    JobResult r = t.result.get();
    ASSERT_EQ(r.state, JobState::Completed);
    // The upload (bytes / PCIe bytes-per-cycle) delays the effective
    // arrival, so end-to-end latency must exceed it.
    double transfer = cfg.host.card.transfer_cycles(1e9);
    EXPECT_GT(transfer, 0.0);
    EXPECT_GE(r.latency_cycles(), transfer);
    ClusterStats s = router.stats();
    EXPECT_DOUBLE_EQ(s.keyTransferBytes, 1e9);
    EXPECT_GE(s.keyTransferCycles, transfer * 0.999);
}

TEST(Cluster, LruEvictionMakesRoomInTheKeyCache)
{
    ClusterConfig cfg = small_cluster(1);
    cfg.host.cards = 1;
    cfg.keyCacheShare = 0.5; // 4 GB cache on an 8 GB card
    cfg.defaultKeyBytes = 1.5e9;
    ClusterRouter router(cfg);
    router.submit(job("a", "1", 0.0));
    router.submit(job("b", "2", 1e5));
    router.submit(job("c", "3", 2e5)); // needs an eviction
    router.drain();
    ClusterStats s = router.stats();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.keyTransfers, 3u);
    EXPECT_GE(s.keyEvictions, 1u);
    EXPECT_GE(count_events(router.journal(),
                           ClusterEventKind::KeyEvicted),
              1u);
}

// ------------------------------------- admission control / refusals

TEST(Cluster, SaturatedClusterShedsBeyondInFlightCap)
{
    // Admission control is the host engines': each sheds queued work
    // beyond its maxQueueDepth, and the router resolves those verdicts.
    ClusterConfig cfg = small_cluster(2);
    cfg.host.maxQueueDepth = 2;
    ClusterRouter router(cfg);
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 10; ++i) {
        tickets.push_back(
            router.submit(job("alice", "j" + std::to_string(i))));
    }
    router.drain();
    ClusterStats s = router.stats();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_GT(s.shed, 0u);
    EXPECT_GT(s.completed, 0u);
    EXPECT_EQ(s.completed + s.shed, 10u);
    EXPECT_TRUE(s.conserved());
    u64 shedResults = 0;
    for (ClusterTicket &t : tickets) {
        JobResult r = t.result.get();
        if (r.state == JobState::Shed) {
            ++shedResults;
            EXPECT_EQ(r.errorCode, ErrorCode::kOverloaded);
        }
    }
    EXPECT_EQ(shedResults, s.shed);
    EXPECT_EQ(count_events(router.journal(), ClusterEventKind::Submitted),
              count_events(router.journal(), ClusterEventKind::Resolved));
}

TEST(Cluster, TenantKeysExceedingHostHbmAreRejected)
{
    ClusterConfig cfg = small_cluster(4);
    cfg.host.cards = 1;
    cfg.keyCacheShare = 0.5; // 4 GB usable per host
    cfg.tenantKeyBytes["whale"] = 6e9;
    ClusterRouter router(cfg);
    // A job that could never run is refused at submit, before it gets
    // an id, a journal line or a place in the tally.
    EXPECT_THROW(router.submit(job("whale", "too-big")), InvalidArgument);
    ClusterTicket ok = router.submit(job("minnow", "fits"));
    router.drain();

    EXPECT_EQ(ok.id, 1u);
    EXPECT_EQ(ok.result.get().state, JobState::Completed);
    ClusterStats s = router.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_TRUE(s.conserved());
    EXPECT_EQ(s.tenants.count("whale"), 0u);
}

TEST(Cluster, InvalidSpecThrowsAtSubmit)
{
    ClusterRouter router(small_cluster(2));
    ClusterTicket first = router.submit(job("alice", "valid-1"));

    JobSpec noTenant = job("", "no-tenant");
    JobSpec noAttempts = job("alice", "no-attempts");
    noAttempts.retry.maxAttempts = 0;
    JobSpec lateDeadline = job("alice", "deadline-before-arrival", 1e6);
    lateDeadline.deadlineCycle = 5e5;
    JobSpec negativeArrival = job("alice", "negative-arrival", -1.0);
    JobSpec badNtt = job("alice", "ntt-degree-3");
    badNtt.trace.emit(isa::OpKind::NTT, 1024, 3, isa::BasicOp::Other);
    for (const JobSpec &bad :
         {noTenant, noAttempts, lateDeadline, negativeArrival, badNtt}) {
        SCOPED_TRACE(bad.name);
        EXPECT_THROW(router.submit(bad), InvalidArgument);
    }

    ClusterTicket second = router.submit(job("bob", "valid-2", 1e5));
    EXPECT_EQ(router.in_flight(), 2u);
    router.drain();
    EXPECT_EQ(router.in_flight(), 0u);
    EXPECT_EQ(first.result.get().state, JobState::Completed);
    EXPECT_EQ(second.result.get().state, JobState::Completed);
    ClusterStats s = router.stats();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_TRUE(s.conserved());
}

TEST(Cluster, ZeroCardHostTemplateIsRefused)
{
    ClusterConfig cfg = small_cluster(2);
    cfg.host.cards = 0;
    EXPECT_THROW(ClusterRouter{cfg}, InvalidArgument);
    // A heterogeneous fleet list sizes the host instead of `cards`.
    cfg.host.fleet = {cfg.host.card};
    ClusterRouter router(cfg);
    ClusterTicket t = router.submit(job("alice", "one"));
    router.drain();
    EXPECT_EQ(t.result.get().state, JobState::Completed);
}

// --------------------------------------------- host death + rerouting

TEST(Cluster, HostDeathMidDrainReroutesWithConservation)
{
    ClusterConfig cfg = small_cluster(3);
    cfg.placement = Placement::RoundRobin; // spread over every host
    cfg.hostChaos = "HostDeath{host=1, cycle=1}";
    ClusterRouter router(cfg);
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 9; ++i) {
        tickets.push_back(
            router.submit(job("alice", "j" + std::to_string(i))));
    }
    router.drain();

    ClusterStats s = router.stats();
    EXPECT_EQ(s.submitted, 9u);
    EXPECT_EQ(s.completed, 9u);
    EXPECT_EQ(s.hostDeaths, 1u);
    EXPECT_GE(s.rerouted, 1u); // host 1's jobs finished past cycle 1
    EXPECT_TRUE(s.conserved());
    for (ClusterTicket &t : tickets) {
        EXPECT_EQ(t.result.get().state, JobState::Completed);
    }

    const ClusterJournal &jr = router.journal();
    EXPECT_EQ(count_events(jr, ClusterEventKind::HostDeath), 1u);
    EXPECT_GE(count_events(jr, ClusterEventKind::Rerouted), 1u);
    // Conservation in journal terms: exactly one Resolved per
    // Submitted, no matter how many reroutes happened in between.
    EXPECT_EQ(count_events(jr, ClusterEventKind::Submitted),
              count_events(jr, ClusterEventKind::Resolved));
    // Rerouted jobs pay the detection + re-dispatch overhead, and the
    // cluster verdict reports latency from the *original* arrival.
    bool sawRerouteLatency = false;
    for (const ClusterEvent &ev : jr.events()) {
        if (ev.kind == ClusterEventKind::Resolved &&
            ev.value >= ClusterRouter::kRerouteDelayCycles) {
            sawRerouteLatency = true;
        }
    }
    EXPECT_TRUE(sawRerouteLatency);
}

TEST(Cluster, AllHostsDeadFailsJobsWithTypedError)
{
    ClusterConfig cfg = small_cluster(2);
    cfg.hostChaos =
        "HostDeath{host=0, cycle=0}; HostDeath{host=1, cycle=0}";
    ClusterRouter router(cfg);
    ClusterTicket t = router.submit(job("alice", "doomed", 10.0));
    router.drain();
    JobResult r = t.result.get();
    EXPECT_EQ(r.state, JobState::Failed);
    EXPECT_EQ(r.errorCode, ErrorCode::kFaultDetected);
    EXPECT_TRUE(router.stats().conserved());
}

TEST(Cluster, HostChaosParserRejectsGarbage)
{
    EXPECT_THROW(cluster::parse_host_chaos("HostDeath{host=0}"),
                 InvalidArgument);
    EXPECT_THROW(cluster::parse_host_chaos("CardDeath{card=0, cycle=1}"),
                 InvalidArgument);
    EXPECT_THROW(cluster::parse_host_chaos("HostDeath{host=x, cycle=1}"),
                 InvalidArgument);
    for (const char *bad :
         {"HostDeath{host=0, cycle=nan}", "HostDeath{host=1e30, cycle=1}",
          "HostDeath{host=-1, cycle=1}", "HostDeath{host=0, cycle=1, x=2}",
          "HostDeath{host=0, cycle=1}junk"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(cluster::parse_host_chaos(bad), InvalidArgument);
    }
    std::vector<cluster::HostDeath> d = cluster::parse_host_chaos(
        " HostDeath{host=2, cycle=5e6} ; HostDeath{host=0, cycle=1e6}");
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].host, 2u);
    EXPECT_DOUBLE_EQ(d[0].cycle, 5e6);
}

// ------------------------------------------------------- autoscaling

TEST(Cluster, AutoscaleSpinsUpUnderPressureAndDrainsWhenIdle)
{
    ClusterConfig cfg = small_cluster(4);
    cfg.autoscale.enabled = true;
    cfg.autoscale.minHosts = 1;
    cfg.autoscale.scaleUpPressure = 0.5;
    cfg.autoscale.scaleDownPressure = 0.05;
    cfg.autoscale.windowCycles = 1e5; // small window: pressure spikes
    cfg.autoscale.cooldownCycles = 0.0;
    cfg.autoscale.spinUpCycles = 1e5;
    ClusterRouter router(cfg);
    EXPECT_EQ(router.active_hosts(), 1u);
    for (int i = 0; i < 32; ++i) {
        router.submit(job("alice", "j" + std::to_string(i)));
    }
    router.drain();
    ClusterStats s = router.stats();
    EXPECT_EQ(s.completed, 32u);
    EXPECT_GT(s.scaleUps, 0u);
    EXPECT_GT(s.peakActiveHosts, 1u);

    // A trickle long after the burst relaxes pressure to ~0 and
    // triggers a drain back toward minHosts.
    router.submit(job("alice", "late", 1e12));
    router.drain();
    EXPECT_GT(router.stats().scaleDowns, 0u);
}

// ------------------------------------------------- telemetry surfaces

TEST(Cluster, MergedTsdbCarriesClusterAndPerHostSeries)
{
    ClusterConfig cfg = small_cluster(2);
    cfg.placement = Placement::RoundRobin;
    ClusterRouter router(cfg);
    for (int i = 0; i < 6; ++i) {
        router.submit(job("alice", "j" + std::to_string(i)));
    }
    router.drain();
    // Card time is the host engines' books: the cluster reports each
    // tenant's attained cycles as the sum over its hosts.
    ClusterStats s = router.stats();
    double hostSum = 0.0;
    for (const cluster::HostSummary &h : s.hosts) {
        ASSERT_TRUE(h.spawned);
        double attained = h.engine.tenants.at("alice").attainedCycles;
        EXPECT_GT(attained, 0.0);
        hostSum += attained;
    }
    EXPECT_DOUBLE_EQ(s.tenants.at("alice").attainedCycles, hostSum);

    telemetry::Tsdb merged = router.cluster_tsdb();
    EXPECT_NE(merged.find("cluster.in_flight"), nullptr);
    EXPECT_NE(merged.find("cluster.placements"), nullptr);
    EXPECT_NE(merged.find("host0.serve.queue_depth"), nullptr);
    EXPECT_NE(merged.find("host1.serve.queue_depth"), nullptr);
    // The dump round-trips losslessly like every other TSDB.
    std::string dump = merged.to_jsonl();
    telemetry::Tsdb back = telemetry::Tsdb::parse_jsonl(dump);
    EXPECT_EQ(back.to_jsonl(), dump);
}

TEST(Cluster, JournalRoundTripsThroughJsonl)
{
    ClusterConfig cfg = small_cluster(2);
    ClusterRouter router(cfg);
    router.submit(job("alice", "a"));
    router.submit(job("bob", "b", 5e4));
    router.drain();
    const ClusterJournal &jr = router.journal();
    ASSERT_FALSE(jr.empty());
    std::string text = jr.to_jsonl();
    ClusterJournal back = ClusterJournal::parse_jsonl(text);
    EXPECT_EQ(back.to_jsonl(), text);
    EXPECT_EQ(back.size(), jr.size());
}

TEST(Cluster, JournalParseRejectsMalformedDocuments)
{
    const std::string header =
        "{\"schema\":\"poseidon-cluster-journal\",\"schema_version\":1,"
        "\"clock_ghz\":0.3,\"hosts\":2,\"events\":1}\n";
    EXPECT_NO_THROW(ClusterJournal::parse_jsonl(
        header + "{\"ev\":\"Submitted\",\"job\":1,\"cycle\":0}\n"));
    // Kinds the router no longer emits are unknown kinds, reported
    // with their line number.
    for (const char *retired : {"ShedCluster", "Rejected"}) {
        SCOPED_TRACE(retired);
        try {
            ClusterJournal::parse_jsonl(header + "{\"ev\":\"" + retired +
                                        "\",\"job\":1,\"cycle\":0}\n");
            ADD_FAILURE() << retired << " line parsed";
        } catch (const ParseError &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
        }
    }
    for (const std::string &bad : {
             std::string(""),
             std::string("{\"schema\":5}\n"),
             std::string("{\"schema\":\"poseidon-journal\","
                         "\"schema_version\":1}\n"),
             std::string("{\"schema\":\"poseidon-cluster-journal\","
                         "\"schema_version\":\"1\",\"clock_ghz\":0.3,"
                         "\"hosts\":2,\"events\":0}\n"),
             header,
             header + "{\"ev\":\"Meteor\",\"job\":1,\"cycle\":0}\n",
             header + "{\"ev\":\"Placed\",\"job\":1,\"cycle\":0,"
                      "\"host\":-1}\n",
             header + "{\"ev\":\"Placed\",\"job\":1.5,\"cycle\":0}\n",
         }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(ClusterJournal::parse_jsonl(bad), ParseError);
    }
}

// ------------------------------------- determinism across thread counts

TEST(Cluster, DumpsAreThreadCountInvariant)
{
    ClusterConfig cfg = small_cluster(3);
    cfg.hostChaos = "HostDeath{host=2, cycle=2e6}";
    cfg.host.card.faults.ber = 1e-9; // exercise the fault plane too
    auto run = [&cfg]() {
        ClusterRouter router(cfg);
        for (int i = 0; i < 24; ++i) {
            router.submit(
                job(i % 3 == 0 ? "alice" : "bob",
                    "j" + std::to_string(i),
                    static_cast<double>(i) * 2e4));
        }
        router.drain();
        return std::make_pair(router.journal().to_jsonl(),
                              router.cluster_tsdb().to_jsonl());
    };
    parallel::set_num_threads(1);
    auto serial = run();
    parallel::set_num_threads(4);
    auto threaded = run();
    parallel::set_num_threads(0); // restore the default
    EXPECT_FALSE(serial.first.empty());
    EXPECT_EQ(serial.first, threaded.first);
    EXPECT_EQ(serial.second, threaded.second);
}

/// One-instruction MM program; an MM's degree does not change its
/// price, so it is free to steer the fingerprint.
isa::Trace
mm_trace(u64 elems, u64 degree)
{
    isa::Trace t;
    t.emit(isa::OpKind::MM, elems, degree, isa::BasicOp::Other);
    return t;
}

/// The degree that makes mm_trace(eB, ·) collide with mm_trace(eA, 0)
/// under isa::Trace::fingerprint: after (kind, elems) the two
/// states differ by exactly this value, which the degree cancels.
u64
colliding_degree(u64 eA, u64 eB)
{
    u64 h = isa::fingerprint_step(isa::kFingerprintBasis,
                                  static_cast<u64>(isa::OpKind::MM));
    return isa::fingerprint_step(h, eA) ^ isa::fingerprint_step(h, eB);
}

TEST(Cluster, PriceMemoConfirmsEveryHit)
{
    // A hit needs the fingerprint *and* the exact instructions; a
    // forced collision misses, then holds both programs.
    cluster::PriceMemo memo;
    isa::Trace a = small_trace(u64(1) << 16);
    isa::Trace b = small_trace(u64(1) << 17);
    EXPECT_EQ(memo.find(a, 7), nullptr);
    memo.insert(a, 7, 1.0);
    ASSERT_NE(memo.find(small_trace(u64(1) << 16), 7), nullptr);
    EXPECT_EQ(*memo.find(small_trace(u64(1) << 16), 7), 1.0);
    EXPECT_EQ(memo.find(a, 8), nullptr);
    EXPECT_EQ(memo.find(b, 7), nullptr); // same key, other program
    memo.insert(b, 7, 2.0);
    memo.insert(a, 7, 3.0); // already memoized: ignored
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(*memo.find(a, 7), 1.0);
    EXPECT_EQ(*memo.find(b, 7), 2.0);

    // Full: new programs are not kept (they are just re-run).
    for (u64 i = 0; memo.size() < cluster::PriceMemo::kMaxEntries; ++i) {
        memo.insert(mm_trace(i + 1, 0), i, 0.0);
    }
    isa::Trace late = mm_trace(u64(1) << 40, 0);
    memo.insert(late, 99, 4.0);
    EXPECT_EQ(memo.find(late, 99), nullptr);
    EXPECT_EQ(memo.size(), cluster::PriceMemo::kMaxEntries);
}

TEST(Cluster, PlacementEstimatesMatchFaultFreeSimulator)
{
    // Five programs (three sizes plus a fingerprint-colliding MM
    // pair) from six tenants on four hosts under locality placement.
    // Every placement's estimated cost (ClusterEvent::value) is a
    // fresh fault-free run of the job's own program (the colliding
    // pair included), and the hosts chosen are the schedule the
    // estimator produced before it confirmed memo hits exactly.
    const u64 eA = u64(1) << 18;
    const u64 eB = u64(1) << 19;
    std::vector<isa::Trace> programs = {
        small_trace(u64(1) << 15), small_trace(u64(1) << 16),
        small_trace(u64(1) << 17), mm_trace(eA, 0),
        mm_trace(eB, colliding_degree(eA, eB))};
    JobSpec pa = job("t", "a"), pb = job("t", "b");
    pa.trace = programs[3];
    pb.trace = programs[4];
    serve::prepare_job(pa);
    serve::prepare_job(pb);
    ASSERT_EQ(pa.trace.fingerprint(), pb.trace.fingerprint());
    ClusterConfig cfg = small_cluster(4);
    cfg.placement = Placement::Locality;
    cfg.host.card.faults.ber = 1e-9; // the estimator stays fault-free
    ClusterRouter router(cfg);
    std::vector<std::size_t> programOf;
    for (int i = 0; i < 40; ++i) {
        JobSpec s = job("t" + std::to_string(i % 6), "j", 1e3 * i);
        s.trace = programs[(i * 7) % programs.size()];
        programOf.push_back((i * 7) % programs.size());
        router.submit(std::move(s));
    }
    router.drain();
    ASSERT_EQ(router.stats().completed, 40u);

    hw::HwConfig est = cfg.host.card;
    est.faults = hw::FaultConfig{};
    std::vector<std::size_t> hosts;
    for (const ClusterEvent &ev : router.journal().events()) {
        if (ev.kind != ClusterEventKind::Placed) continue;
        const isa::Trace &t = programs[programOf[ev.job - 1]];
        EXPECT_EQ(ev.value, hw::PoseidonSim(est).run(t).cycles +
                                cfg.host.dispatchCycles)
            << "job " << ev.job;
        hosts.push_back(ev.host);
    }
    std::string got;
    for (std::size_t h : hosts) got += std::to_string(h);
    EXPECT_EQ(got, "0123021302310231023102310231023102310231");
}

} // namespace
} // namespace poseidon
