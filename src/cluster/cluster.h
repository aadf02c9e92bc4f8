#ifndef POSEIDON_CLUSTER_CLUSTER_H_
#define POSEIDON_CLUSTER_CLUSTER_H_

/**
 * @file
 * Cluster-scale serving: a two-level scheduler over simulated hosts.
 *
 * The serving engine (serve/engine.h) schedules one fleet of cards in
 * one process. ClusterRouter is the level above: a global router that
 * admits jobs, places them on per-host serve::ServingEngine instances
 * (each host a fleet of cards with its own health / chaos / journal /
 * TSDB planes), and aggregates the results — all on one shared
 * simulated clock.
 *
 * **Placement.** The router is key-cache aware: each tenant owns a
 * modeled set of evaluation keys (ClusterConfig::tenantKeyBytes,
 * sized by hw::eval_key_bytes); a host that already holds a tenant's
 * keys serves its jobs without setup, while first placement elsewhere
 * charges a key upload of key_bytes / PCIe bandwidth cycles
 * (HwConfig::transfer_cycles) to the job's effective arrival. The
 * Locality policy scores hosts by estimated finish = max(host-free,
 * arrival + transfer) + estimated cost / cards, so it trades transfer
 * cost against queueing; RoundRobin / Random / LeastLoaded exist as
 * baselines the benchmark gates against. Host key caches are bounded
 * by cards * HwConfig::hbm_capacity_bytes() * keyCacheShare with LRU
 * eviction; a tenant whose keys fit no host is Rejected with a typed
 * InvalidArgument, never silently queued.
 *
 * **Admission & overload.** ClusterConfig::maxInFlight bounds jobs
 * admitted but not yet resolved; excess submissions are shed at the
 * router (JobState::Shed, ErrorCode::kOverloaded) before they reach
 * any host — cluster-level load shedding on top of each engine's own
 * queue-depth admission control.
 *
 * **Autoscaling.** A gauge-driven policy watches the same backlog
 * quantity the serve.queue_depth gauge samples: placement-time
 * pressure = mean normalized backlog across active hosts. Crossing
 * scaleUpPressure activates a parked host (ready after spinUpCycles);
 * falling below scaleDownPressure drains the least-backlogged host
 * (it finishes what it holds, then takes no new placements).
 *
 * **Host chaos.** ClusterConfig::hostChaos scripts whole-host deaths
 * ("HostDeath{host=2, cycle=5e6}"): jobs that would finish after the
 * death cycle on that host are rerouted (resubmitted with arrival
 * pushed past the death plus rerouteOverheadCycles), its key residency
 * is dropped, and the cluster journal records the death, every
 * reroute, and still exactly one Resolved event per cluster job —
 * journal conservation survives host loss.
 *
 * **Execution model.** drain() runs rounds: ingest pending
 * submissions in (arrival, id) order -> admit / place -> drain every
 * spawned host engine in ascending host order -> process host results
 * in completion order, firing client futures/callbacks for terminal
 * verdicts and re-queueing reroutes. Closed-loop callbacks may
 * submit() follow-ups; rounds continue until no work remains. Every
 * router decision is a pure function of the submitted job set on the
 * simulated clock, and per-host engines are themselves deterministic,
 * so cluster results, the cluster journal, and the merged TSDB dump
 * are byte-identical at every POSEIDON_THREADS (DESIGN.md §16).
 *
 * One modeling approximation is inherited from draining hosts
 * sequentially rather than interleaving a global event loop: a
 * follow-up job submitted by a callback in round k is placed in round
 * k+1 using host-backlog estimates from round k. The estimates the
 * placement model sees are cycle-stamped and deterministic either
 * way; docs/CLUSTER.md discusses the trade-off.
 */

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/journal.h"
#include "hw/sim.h"
#include "serve/engine.h"
#include "telemetry/timeseries.h"

namespace poseidon::cluster {

/// Placement policy of the global router.
enum class Placement : unsigned {
    Locality,   ///< min estimated finish incl. key-transfer penalty
    RoundRobin, ///< rotate over eligible hosts
    Random,     ///< deterministic hash of (seed, job id)
    LeastLoaded ///< min backlog, key locality ignored
};

/// Short stable name ("locality", "round-robin", ...).
const char* to_string(Placement p);

/// Inverse of to_string (also accepts "rr" / "least-loaded" forms);
/// returns false on an unknown name.
bool placement_from_string(const std::string &s, Placement &out);

/// Gauge-driven autoscaling policy (off by default).
struct AutoscaleConfig
{
    bool enabled = false;

    /// Never drain below this many active hosts.
    std::size_t minHosts = 1;

    /// Activate a parked host when placement-time pressure (mean
    /// normalized backlog over active hosts) exceeds this.
    double scaleUpPressure = 0.75;

    /// Drain the least-backlogged host when pressure falls below
    /// this (and more than minHosts are active).
    double scaleDownPressure = 0.15;

    /// Backlog normalization window: pressure of one host is
    /// clamp(backlog_cycles / windowCycles, 0, 1).
    double windowCycles = 2e6;

    /// Minimum simulated cycles between autoscale actions.
    double cooldownCycles = 1e6;

    /// A scaled-up host accepts placements only spinUpCycles after
    /// the decision (modeled boot + bitstream load).
    double spinUpCycles = 2e6;
};

/// One scripted whole-host death (see parse_host_chaos).
struct HostDeath
{
    std::size_t host = 0;
    double cycle = 0.0;
};

/// Parse the host-chaos DSL: "HostDeath{host=N, cycle=C}" clauses of
/// the shared grammar (DESIGN.md §17), host an exact integer. Throws
/// poseidon::InvalidArgument on a malformed clause.
std::vector<HostDeath> parse_host_chaos(const std::string &dsl);

/// Knobs of the two-level router.
struct ClusterConfig
{
    /// Simulated hosts behind the router. With autoscaling enabled
    /// this is the fleet ceiling; autoscale.minHosts start active.
    std::size_t hosts = 8;

    /// Per-host engine template. Every host gets a copy with its own
    /// fault-seed lineage (hw::mix_seed over the host index), so
    /// equal configs still run independent ECC campaigns.
    serve::ServeConfig host;

    /// Placement policy (see Placement).
    Placement placement = Placement::Locality;

    /// Router seed: Random placement hashing + per-host fault-seed
    /// derivation.
    u64 seed = 0xC1A57E5ULL;

    /// Modeled evaluation-key footprint per tenant, in bytes
    /// (hw::eval_key_bytes gives the paper-parameter sizing).
    /// Tenants absent from the map use defaultKeyBytes.
    std::map<std::string, double> tenantKeyBytes;

    /// Key bytes assumed for tenants not in tenantKeyBytes.
    double defaultKeyBytes = 64.0 * 1024.0 * 1024.0;

    /// Fraction of a host's total HBM (cards *
    /// HwConfig::hbm_capacity_bytes()) usable as evaluation-key
    /// cache; the rest is working-set headroom.
    double keyCacheShare = 0.5;

    /// Cluster admission control: jobs in flight (admitted, not yet
    /// resolved) above this are shed as Overloaded. 0 = unbounded.
    std::size_t maxInFlight = 0;

    /// Cycles added to a rerouted job's arrival past the host death
    /// (failure detection + re-dispatch).
    double rerouteOverheadCycles = 5e4;

    /// Reroute attempts per job before it fails (host-death budget,
    /// independent of the per-engine RetryPolicy).
    u64 maxReroutes = 3;

    AutoscaleConfig autoscale;

    /// Whole-host chaos schedule ("" = none), e.g.
    /// "HostDeath{host=2, cycle=5e6}".
    std::string hostChaos;

    /// Record the cluster journal (cluster/journal.h).
    bool journal = true;

    /// Publish cluster.* metrics into the global MetricsRegistry.
    bool exportTelemetry = true;
};

/// Aggregate per-tenant outcome at the cluster level.
struct ClusterTenantStats
{
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0;
    u64 rejected = 0;
    double p50LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;
};

/// Per-host roll-up inside ClusterStats.
struct HostSummary
{
    bool spawned = false;  ///< engine ever instantiated
    bool active = false;   ///< accepting placements at end of run
    bool alive = true;     ///< false after a scripted HostDeath
    bool draining = false; ///< scale-down in progress
    double readyAtCycle = 0.0; ///< spin-up gate (autoscaled hosts)
    u64 placed = 0;
    u64 rerouted = 0; ///< jobs this host lost to its death
    u64 keyTransfers = 0;
    double keyTransferBytes = 0.0;
    double residentKeyBytes = 0.0; ///< key cache occupancy at end
    serve::ServeStats engine;      ///< zeroed when never spawned
};

/// Cluster-wide statistics, all on the simulated clock.
struct ClusterStats
{
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0;     ///< cluster admission + per-host shedding
    u64 rejected = 0; ///< keys fit no host
    u64 rerouted = 0; ///< host-death resubmissions
    u64 placements = 0;
    u64 localityHits = 0; ///< placements onto key-resident hosts
    u64 keyTransfers = 0;
    u64 keyEvictions = 0;
    double keyTransferBytes = 0.0;
    double keyTransferCycles = 0.0;
    u64 scaleUps = 0;
    u64 scaleDowns = 0;
    u64 hostDeaths = 0;
    std::size_t activeHosts = 0;
    std::size_t peakActiveHosts = 0;

    /// Latest cluster-job finish across all hosts.
    double horizonCycles = 0.0;
    double clockGHz = 0.0;

    /// Exact cluster-level completed-job latency quantiles (arrival
    /// at the router to final resolution, reroutes included).
    double p50LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;

    std::map<std::string, ClusterTenantStats> tenants;
    std::vector<HostSummary> hosts;

    /// Fraction of placements that landed on a key-resident host.
    double locality_hit_rate() const
    {
        return placements == 0
                   ? 0.0
                   : static_cast<double>(localityHits) /
                         static_cast<double>(placements);
    }

    /// Every admitted job reached exactly one terminal verdict.
    bool conserved() const
    {
        return submitted ==
               completed + failed + expired + shed + rejected;
    }

    telemetry::Json to_json() const;

    /// Publish the cluster.* gauges/counters into `reg`.
    void export_metrics(telemetry::MetricsRegistry &reg) const;
};

/// Handle returned by ClusterRouter::submit.
struct ClusterTicket
{
    ClusterJobId id = 0;
    std::shared_future<serve::JobResult> result;
};

/// The two-level router (see file comment).
class ClusterRouter
{
  public:
    explicit ClusterRouter(ClusterConfig cfg = ClusterConfig{});
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter&) = delete;
    ClusterRouter& operator=(const ClusterRouter&) = delete;

    const ClusterConfig& config() const { return cfg_; }

    /**
     * Accept a job. Non-blocking and thread-safe; named workloads
     * resolve immediately (unknown name / empty trace throws
     * InvalidArgument here, never inside drain()). The future becomes
     * ready during a later drain() with the *cluster-level* verdict:
     * JobResult::arrivalCycle is the original router arrival, so
     * latency_cycles() spans reroutes.
     */
    ClusterTicket submit(serve::JobSpec spec);

    /**
     * Run rounds until every admitted job is resolved. Fires futures
     * and client callbacks on this thread; callbacks may submit()
     * follow-ups. Not reentrant.
     */
    void drain();

    /// Jobs admitted but not yet resolved.
    std::size_t in_flight() const;

    /// Hosts currently accepting placements.
    std::size_t active_hosts() const;

    /// Aggregate statistics over everything routed so far.
    ClusterStats stats() const;

    /// The cluster journal (empty when ClusterConfig::journal off).
    const ClusterJournal& journal() const { return journal_; }

    /**
     * Merged time-series view: the router's own cluster.* series
     * (one sample per drain round) plus every spawned host's engine
     * series re-namespaced "host<i>.<series>". Built on demand;
     * byte-identical at every POSEIDON_THREADS.
     */
    telemetry::Tsdb cluster_tsdb() const;

    /// A host's engine, or nullptr when that host never spawned.
    const serve::ServingEngine* host_engine(std::size_t host) const;

  private:
    /// One admitted-but-unresolved cluster job.
    struct Tracked
    {
        ClusterJobId id = 0;
        serve::JobSpec spec;          ///< callback stripped
        double originalArrival = 0.0; ///< router arrival
        u64 reroutes = 0;
        /// Host the live placement landed on (kNoHost before).
        std::size_t host = ClusterEvent::kNoHost;
        std::promise<serve::JobResult> promise;
        std::function<void(const serve::JobResult&)> callback;
    };

    /// Router-side host state.
    struct Host
    {
        std::unique_ptr<serve::ServingEngine> engine;
        bool active = false;
        bool alive = true;
        bool draining = false;
        bool deathLogged = false;
        double readyAtCycle = 0.0;
        double deathCycle = 0.0; ///< infinity = immortal
        /// Estimated cycle the host's cards free up (placement model).
        double freeAtCycle = 0.0;
        /// Resident tenant keys: tenant -> last-placement cycle (LRU).
        std::map<std::string, double> residentKeys;
        double residentKeyBytes = 0.0;
        u64 placed = 0;
        u64 rerouted = 0;
        u64 keyTransfers = 0;
        double keyTransferBytes = 0.0;
    };

    double key_bytes(const std::string &tenant) const;
    double host_key_capacity() const;
    double est_cost_cycles(const serve::JobSpec &spec);
    serve::ServingEngine& ensure_engine(std::size_t h);
    void autoscale_step(double cycle);
    void process_deaths(double clusterClock);
    std::size_t pick_host(const Tracked &t, double arrival,
                          double estCost, bool &localityHit,
                          bool &needTransfer);
    void place(Tracked t);
    void resolve(Tracked t, serve::JobResult r);
    void charge_key_transfer(std::size_t h, const std::string &tenant,
                             ClusterJobId job, double cycle);
    void sample_round(double clusterClock);

    ClusterConfig cfg_;
    std::vector<Host> hosts_;
    std::vector<HostDeath> deaths_;
    ClusterJournal journal_;
    telemetry::Tsdb tsdb_;

    /// Dedicated fault-free estimator card + signature cache backing
    /// the placement cost model.
    hw::PoseidonSim estimator_;
    std::unordered_map<u64, double> costCache_;

    double lastAutoscaleCycle_ = 0.0;
    double lastPressure_ = 0.0;
    std::size_t rrNext_ = 0;

    /// Guards pending_/nextId_ and aggregate counters (submit() may
    /// run on client threads; stats() reads between drains).
    mutable std::mutex mu_;
    std::deque<Tracked> pending_;
    ClusterJobId nextId_ = 1;
    std::map<ClusterJobId, Tracked> inFlight_;

    /// Results one round of host drains produced, in host order.
    std::vector<std::pair<ClusterJobId, serve::JobResult>> roundResults_;

    u64 submitted_ = 0;
    u64 completed_ = 0;
    u64 failed_ = 0;
    u64 expired_ = 0;
    u64 shed_ = 0;
    u64 rejected_ = 0;
    u64 rerouted_ = 0;
    u64 placements_ = 0;
    u64 localityHits_ = 0;
    u64 keyTransfers_ = 0;
    u64 keyEvictions_ = 0;
    double keyTransferBytes_ = 0.0;
    double keyTransferCycles_ = 0.0;
    u64 scaleUps_ = 0;
    u64 scaleDowns_ = 0;
    u64 hostDeaths_ = 0;
    std::size_t peakActiveHosts_ = 0;
    double horizon_ = 0.0;
    double roundClock_ = 0.0;
    std::map<std::string, ClusterTenantStats> tenants_;
    std::map<std::string, std::vector<double>> latencies_;
};

} // namespace poseidon::cluster

#endif // POSEIDON_CLUSTER_CLUSTER_H_
