#ifndef POSEIDON_SERVE_ENGINE_H_
#define POSEIDON_SERVE_ENGINE_H_

/**
 * @file
 * The multi-accelerator serving engine.
 *
 * ServingEngine turns the single-caller, single-card simulator into a
 * shared, scheduled service: clients submit() CKKS jobs (named
 * workloads or compiled ISA programs) from any thread and receive a
 * JobTicket (job id + shared future); drain() runs the fleet-wide
 * discrete-event simulation to completion, fulfilling futures and
 * firing completion callbacks as jobs finish.
 *
 * **Execution model.** The engine advances a simulated fleet clock in
 * rounds. Each round it walks the cards in earliest-free order, asks
 * the Scheduler (priority -> per-tenant fairness -> FIFO, with
 * compatible-job batching) for one batch per idle card, then prices
 * all dispatched batches concurrently on the host thread pool
 * (common/parallel.h) — pricing is pure, so host parallelism is free
 * of modeled-time effects. Completion bookkeeping then runs in card
 * order. Because every decision reads only simulated-clock state and
 * pricing is deterministic per (card, job, attempt), the full
 * schedule, every latency, and every aggregate statistic are
 * bit-identical at every host thread count.
 *
 * **Fault failover.** Jobs run under the PR-1 SECDED fault model of
 * their card. An attempt whose run leaks a silent corruption or
 * overruns its RetryPolicy::retryCycleBudget in ECC replays has
 * failed: the attempt's full duration still occupies the card (and is
 * charged to the tenant), and the job is requeued — with exponential
 * backoff in simulated cycles when RetryPolicy::backoffBaseCycles is
 * set, and with every card it has faulted on excluded while an
 * untried live card remains — until maxAttempts is exhausted. A
 * retry whose backed-off start plus estimated cost cannot meet the
 * job's deadline is skipped (the job fails immediately).
 *
 * **Fleet health.** Every attempt feeds the per-card HealthMonitor
 * (serve/health.h): a card whose failure or ECC-replay EWMA crosses
 * its threshold is quarantined (breaker OPEN — no more work, the
 * queue flows to the rest of the fleet), re-enters via low-priority
 * probe jobs after a cooldown, and is re-admitted once enough probes
 * come back clean. When every card is dead the engine sheds the
 * queue as Overloaded rather than deadlocking.
 *
 * **Admission control.** With maxQueueDepth set, drain() sheds the
 * lowest-priority (then newest) queued work whenever ingestion pushes
 * the queue past the limit; shed jobs finish as JobState::Shed with
 * ErrorCode::kOverloaded — a typed error frame, not a silent timeout.
 *
 * **Chaos.** ServeConfig::chaos accepts a fault-schedule DSL
 * (serve/chaos.h): scripted card deaths, HBM degradation, fleet-wide
 * fault storms and gray slowdowns perturb priced attempts
 * deterministically, which is what the chaos campaigns drive.
 *
 * **Telemetry.** With exportTelemetry on, drain() maintains
 * serve.queue_depth / serve.cards gauges, serve.jobs.* counters
 * (incl. serve.jobs.shed), serve.health.* quarantine/probe counters
 * and per-card breaker-state gauges, per-tenant simulated-latency
 * histograms (serve.tenant_latency_us.<tenant>) and per-card
 * occupancy gauges (serve.card_occupancy.<i>); quarantine windows
 * are exported as spans on the Chrome trace's fleet-health track.
 * stats() returns the same aggregates — including exact per-tenant
 * p50/p99 — as a struct, with to_json() and export_metrics()
 * surfaces.
 */

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hw/config.h"
#include "serve/health.h"
#include "serve/job.h"
#include "serve/journal.h"
#include "serve/outcomes.h"
#include "serve/latency_breakdown.h"
#include "serve/scheduler.h"
#include "serve/shard.h"
#include "telemetry/alerts.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"

namespace poseidon::serve {

class ChaosInjector; // serve/chaos.h

/// Knobs of one engine instance.
struct ServeConfig
{
    /// Fleet size (homogeneous copies of `card`); ignored when
    /// `fleet` is non-empty.
    std::size_t cards = 1;

    /// Base per-card accelerator model. Each card derives its own
    /// fault seed from it (hw::mix_seed), so equal configs still run
    /// independent ECC campaigns.
    hw::HwConfig card = hw::HwConfig::poseidon_u280();

    /// Optional heterogeneous fleet (one config per card).
    std::vector<hw::HwConfig> fleet;

    /// Jobs coalesced per dispatch (see Scheduler; 1 = no batching).
    std::size_t maxBatch = 4;

    /// Fixed cycles charged once per dispatch (host->card program +
    /// key upload); batching amortizes exactly this term.
    double dispatchCycles = 20000.0;

    /// Per-card circuit-breaker knobs (serve/health.h).
    HealthConfig health;

    /// Admission control: queued jobs above this depth are shed
    /// (lowest priority first) as Overloaded. 0 = unbounded.
    std::size_t maxQueueDepth = 0;

    /// Chaos fault schedule in the serve/chaos.h DSL ("" = none),
    /// e.g. "CardDeath{card=0, cycle=2e6, duration=5e6}".
    std::string chaos;

    /// Publish serve.* metrics into the global MetricsRegistry.
    bool exportTelemetry = true;

    /// Record the per-job lifecycle journal (serve/journal.h). At the
    /// end of drain() the events it appended are decomposed into
    /// phase waterfalls (serve/latency_breakdown.h) whose
    /// histograms/gauges are published when exportTelemetry is also
    /// on.
    bool journal = true;

    /// TSDB sampling cadence on the simulated clock: drain() records
    /// one sample of every serve.* series each time the fleet clock
    /// crosses the next cadence-aligned grid cycle. 0 = TSDB off.
    /// Sampling is part of drain()'s single-threaded bookkeeping, so
    /// tsdb() dumps are byte-identical at every POSEIDON_THREADS.
    double tsdbCadenceCycles = 0.0;

    /// Ring capacity per TSDB series (oldest samples evicted past
    /// this; evictions are counted in the dump).
    std::size_t tsdbCapacity = 4096;

    /// Alert rules in the telemetry/alerts.h DSL ("" = none), e.g.
    /// "serve.queue_depth > 256 for 5e6 cycles => page", or the
    /// latency SLO "serve.latency_cycles:p99 > 2.5e6 => page".
    /// Evaluated at every TSDB sample tick; requires
    /// tsdbCadenceCycles > 0.
    std::string alertRules;
};

/// Fleet-wide serving statistics, all on the simulated clock.
struct ServeStats : Outcomes
{
    u64 retries = 0;      ///< fault-triggered re-executions
    u64 batches = 0;      ///< dispatches issued
    u64 maxQueueDepth = 0;
    u64 quarantines = 0;  ///< circuit-breaker trips (all cards)
    u64 readmissions = 0; ///< breakers re-closed after clean probes
    u64 probes = 0;       ///< probe attempts executed

    /// Sum of all card busy cycles (failed attempts included).
    double busyCycles = 0.0;
    /// Modeled clock the horizon is measured on (from the base card).
    double clockGHz = 0.0;

    std::vector<CardStats> cards;
    /// Breaker ledger per card (parallel to `cards`).
    std::vector<CardHealth> health;

    /// Completed jobs per simulated second over the horizon.
    double throughput_jobs_per_sec() const;
    /// Mean card occupancy over the horizon.
    double fleet_occupancy() const;

    /// {"submitted": ..., "tenants": {...}, "cards": [...]}.
    telemetry::Json to_json() const;

    /// Publish the serve.* gauges/counters into `reg`.
    void export_metrics(telemetry::MetricsRegistry &reg) const;
};

class ServingEngine
{
  public:
    explicit ServingEngine(ServeConfig cfg = ServeConfig{});
    ~ServingEngine();

    ServingEngine(const ServingEngine&) = delete;
    ServingEngine& operator=(const ServingEngine&) = delete;

    const ServeConfig& config() const { return cfg_; }
    const ShardManager& shards() const { return shards_; }

    /// Fleet breaker state (mutated only inside drain(); read it
    /// between drains, like shards()).
    const HealthMonitor& health() const { return health_; }

    /// The active chaos schedule ("" config = inactive injector).
    const ChaosInjector& chaos() const { return *chaos_; }

    /// The lifecycle journal (empty when ServeConfig::journal is
    /// off). Read it between drains; serialize with
    /// journal().to_jsonl() or decompose() it directly.
    const Journal& journal() const { return journal_; }

    /// The simulated-clock TSDB (empty when tsdbCadenceCycles == 0).
    /// Read it between drains; serialize with tsdb().to_jsonl().
    const telemetry::Tsdb& tsdb() const { return tsdb_; }

    /// The alert engine evaluated over tsdb() (empty rule set when
    /// ServeConfig::alertRules is "").
    const telemetry::AlertEngine& alerts() const { return alerts_; }

    /// Every alert transition recorded so far, in evaluation order.
    const std::vector<telemetry::AlertTransition>& alert_log() const
    {
        return alertLog_;
    }

    /**
     * Accept a job. Non-blocking and thread-safe; the spec goes
     * through prepare_job() (serve/job.h), so an unknown workload or
     * a job that could never run throws InvalidArgument here, never
     * inside drain(). The returned future becomes ready during a
     * later drain() on whichever thread drains.
     */
    JobTicket submit(JobSpec spec);

    /**
     * Run the discrete-event simulation until every accepted job has
     * reached a terminal state, fulfilling futures and firing
     * callbacks on this thread. Callbacks may submit() follow-up jobs
     * (closed-loop clients); drain() keeps going until the system is
     * empty. Not reentrant; call from one thread at a time.
     */
    void drain();

    /// Queue depth right now (accepted, not yet terminal).
    std::size_t queue_depth() const;

    /// Aggregate statistics over everything served so far.
    ServeStats stats() const;

  private:
    /// A submitted job awaiting ingestion by drain().
    struct Pending
    {
        QueuedJob qj;
        std::promise<JobResult> promise;
    };

    /// Fulfill one terminal job: update aggregates under mu_, then
    /// set the promise and fire the callback lock-free (callbacks may
    /// re-enter submit()).
    void finish_job(QueuedJob &&qj, JobResult r);
    void refresh_gauges();

    /// Shed one queued job as Overloaded at fleet time `cycle`.
    void shed_job(QueuedJob &&qj, double cycle, const char *why);

    /// Run one probe attempt on a HALF_OPEN/probe-eligible card at
    /// time `T` (occupies the card; feeds the monitor).
    void dispatch_probe(std::size_t card, double T);

    /// A quarantine or firing window opened on the simulated clock
    /// and not yet exported (openCycle < 0: none open).
    struct TraceWindow
    {
        double openCycle = -1.0;
        std::string reason;
    };

    /// Export the quarantine windows closed since the previous call
    /// onto the Chrome trace's fleet-health track (end of drain()).
    /// A window still open waits for its close; `teardown` (the
    /// destructor) emits it clipped at the serving horizon.
    void export_health_trace(bool teardown);

    /// Export this drain's jobs as queue/attempt slices + flow arrows
    /// linking them onto the Chrome trace's fleet tracks.
    void export_job_flows(const BreakdownReport &br);

    /// Record one TSDB sample of every serve.* series at simulated
    /// cycle `cycle`, then advance the alert state machines (their
    /// transitions land in the TSDB, counters, and alertLog_).
    void sample_tsdb(double cycle);

    /// Export the firing windows resolved since the previous call
    /// onto the Chrome trace's alert track (tids 450+, end of
    /// drain()); `teardown` as for export_health_trace().
    void export_alert_trace(bool teardown);

    ServeConfig cfg_;
    ShardManager shards_;
    Scheduler sched_;
    HealthMonitor health_;
    Journal journal_;
    /// Journal events already decomposed by an earlier drain().
    std::size_t decomposedEvents_ = 0;
    /// Phase totals of every decomposed job (serve.phase_share.*).
    PhaseTotals phaseTotals_;
    /// Chrome-trace export cursors: tenant queue tracks, health
    /// events and alert transitions already walked, and the windows
    /// they left open (per card / per rule).
    std::map<std::string, int> queueTids_;
    std::size_t healthTraced_ = 0;
    std::vector<TraceWindow> healthWindows_;
    std::size_t alertsTraced_ = 0;
    std::vector<TraceWindow> alertWindows_;
    std::unique_ptr<ChaosInjector> chaos_;
    isa::Trace probeTrace_;
    std::vector<u64> probeSeq_;

    telemetry::Tsdb tsdb_;
    telemetry::AlertEngine alerts_;
    /// Next cadence-aligned grid cycle to sample at (monotone across
    /// drains; the end-of-drain flush advances it past the horizon).
    double nextSampleCycle_ = 0.0;
    /// Every alert transition of this engine's lifetime (trace
    /// export + tests read it).
    std::vector<telemetry::AlertTransition> alertLog_;
    /// Engine-owned completed-job latency histogram in simulated
    /// cycles, observed in finish_job() on the drain thread —
    /// deterministic, unlike the wall-time tenant histograms.
    telemetry::Histogram latencyHist_;

    /// Guards submissions_/nextId_ and the aggregate counters below
    /// (stats() and queue_depth() read them from any thread).
    mutable std::mutex mu_;
    std::vector<Pending> submissions_;
    JobId nextId_ = 1;

    std::map<JobId, std::promise<JobResult>> promises_;

    /// Latest round time drain() reached (the fleet clock sheds are
    /// stamped with).
    double clock_ = 0.0;
    OutcomeLedger ledger_;
    u64 retries_ = 0;
    u64 batches_ = 0;
    u64 maxQueueDepth_ = 0;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_ENGINE_H_
