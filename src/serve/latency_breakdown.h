#ifndef POSEIDON_SERVE_LATENCY_BREAKDOWN_H_
#define POSEIDON_SERVE_LATENCY_BREAKDOWN_H_

/**
 * @file
 * Waterfall decomposition of serving latency, built purely from the
 * lifecycle journal (serve/journal.h).
 *
 * decompose() replays each job's event stream as a *gapless walk*: a
 * chronological marker m_i = fl(cycle_i - firstArrival) advances
 * through the job's events, and every inter-marker interval is
 * attributed to exactly one phase:
 *
 *   queue-wait      Enqueued/arrival  -> Dispatched (every attempt),
 *                   plus the final wait of Expired/Shed jobs
 *   batch-delay     Dispatched -> AttemptStart (dispatch overhead +
 *                   position behind batch mates on the card)
 *   backoff         failed AttemptEnd -> the retry's Enqueued arrival
 *   retry-overhead  failed attempts' execution (start -> end)
 *   execution       the successful attempt's execution
 *
 * **Conservation invariant.** The five phases sum *exactly* to the
 * job's end-to-end latency fl(finish - firstArrival). Floating-point
 * makes the naive sum of rounded spans miss by ulps, so each span is
 * kept as an error-free expansion (two-sum components whose exact sum
 * is the real span, see ExactSum in the .cpp): the concatenated
 * per-phase expansions telescope to the end-to-end value as *real
 * numbers*, and a POSEIDON_CHECK distills their sum minus end-to-end
 * to literal 0.0. The check is not vacuous — it fails whenever the
 * event stream is missing an interval, double-attributes one, or runs
 * backwards. JobBreakdown::phase_sum() re-runs the distillation so
 * tests can assert `phase_sum() == endToEndCycles` bit-for-bit; the
 * per-phase doubles reported alongside are faithful roundings of the
 * exact expansions.
 *
 * On top of the per-job waterfalls sit per-tenant / per-priority
 * aggregates (with p50/p99 of the engine-reported latency, computed
 * by the same telemetry::exact_quantile the engine uses — the journal
 * is a sufficient statistic for the engine's stats) and
 * metrics-registry export. Latency SLOs are alert rules over the TSDB
 * (telemetry/alerts.h), not part of this layer.
 */

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "serve/journal.h"
#include "telemetry/metrics.h"

namespace poseidon::serve {

/// Latency phases of the waterfall (see file comment).
enum class Phase : unsigned {
    QueueWait = 0,
    BatchDelay,
    Backoff,
    RetryOverhead,
    Execution,
};

inline constexpr std::size_t kPhaseCount = 5;

/// Short stable name ("queue_wait", "batch_delay", ...).
const char* to_string(Phase p);

/// One executed attempt of a job, reconstructed from the journal.
struct AttemptSpan
{
    std::size_t card = JournalEvent::kNoCard;
    u64 attempt = 0;            ///< 1-based attempt ordinal
    double dispatchCycle = 0.0; ///< left the queue (batch pick time)
    double startCycle = 0.0;    ///< execution began on the card
    double endCycle = 0.0;      ///< execution finished
    bool failed = false;        ///< tripped the fault guard
};

/// The decomposed waterfall of one job.
struct JobBreakdown
{
    JobId id = 0;
    std::string tenant;
    std::string name;
    int priority = 0;
    JobState state = JobState::Queued;
    std::size_t card = JournalEvent::kNoCard; ///< last card touched
    u64 attempts = 0;

    double firstArrivalCycle = 0.0; ///< original submission arrival
    double lastArrivalCycle = 0.0;  ///< final (post-backoff) arrival
    double finishCycle = 0.0;

    /// finish - firstArrival: what the client experienced.
    double endToEndCycles = 0.0;
    /// finish - lastArrival: the latency the engine reports (its
    /// per-tenant p50/p99 are quantiles of this, completed jobs only).
    double reportedLatencyCycles = 0.0;

    /// Faithful roundings of the exact per-phase expansions below.
    double phaseCycles[kPhaseCount] = {};
    /// Error-free expansions: each vector's components sum (as reals)
    /// to the exact phase duration; all components together sum to
    /// exactly endToEndCycles (the conservation invariant).
    std::array<std::vector<double>, kPhaseCount> phaseExact;

    std::vector<AttemptSpan> attemptSpans;

    /// Distilled sum of every phase expansion: equals endToEndCycles
    /// bit-for-bit when the decomposition conserved the walk.
    double phase_sum() const;
};

/// Phase aggregate over one tenant or one priority class.
struct PhaseAccum
{
    u64 jobs = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0;
    double endToEndCycles = 0.0; ///< summed over jobs
    double phaseCycles[kPhaseCount] = {};
    /// Quantiles of the engine-reported latency (completed jobs),
    /// via telemetry::exact_quantile — matches ServeStats exactly.
    double p50LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;
};

/// The full decomposition of one journal.
struct BreakdownReport
{
    double clockGHz = 0.0;
    std::size_t cards = 0;
    std::vector<JobBreakdown> jobs; ///< ascending job id
    std::map<std::string, PhaseAccum> tenants;
    std::map<int, PhaseAccum> priorities;

    const JobBreakdown* find(JobId id) const;

    /// The n largest end-to-end latencies, worst first (ties: lower
    /// id first).
    std::vector<const JobBreakdown*> worst(std::size_t n) const;

    /// Human-readable waterfall (share bars per phase + one line per
    /// attempt) for one job.
    std::string waterfall_text(const JobBreakdown &jb) const;

    /// {"clock_ghz":..., "jobs":[...], "tenants":{...},
    ///  "priorities":{...}}.
    telemetry::Json to_json() const;

    /**
     * Publish serve.phase_us.<phase>.tenant.<t> /
     * serve.phase_us.<phase>.prio.<p> histograms into `reg`: one
     * observation per job of this report and phase, in modeled
     * microseconds. The fleet-wide shares are PhaseTotals' job.
     */
    void export_metrics(telemetry::MetricsRegistry &reg) const;
};

/**
 * Fleet-wide phase totals behind the serve.phase_share.<phase>
 * gauges. add() sums job by job in report order, so feeding it the
 * per-drain reports of an engine (ascending, disjoint id ranges)
 * yields bit for bit the sums over one whole-journal report.
 */
struct PhaseTotals
{
    double endToEndCycles = 0.0;
    double phaseCycles[kPhaseCount] = {};

    void add(const BreakdownReport &br);

    /// Set serve.phase_share.<phase> = phase / end-to-end in `reg`.
    void export_metrics(telemetry::MetricsRegistry &reg) const;
};

/**
 * Decompose a drained journal into per-job waterfalls + aggregates,
 * starting at event index `fromEvent` (events before it are not
 * read). Every job seen must open with its Submitted event and reach
 * a terminal state, its events must be chronological, and each walk
 * must conserve cycles — all enforced with POSEIDON_CHECK (a
 * violation means a corrupt journal, a range cut inside a job, or an
 * engine bug, not bad user input). The engine passes the offset its
 * previous drain stopped at: every job accepted before a drain ends
 * is terminal when it returns, so each drain's suffix is a
 * self-contained set of whole walks.
 */
BreakdownReport decompose(const Journal &journal,
                          std::size_t fromEvent = 0);

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_LATENCY_BREAKDOWN_H_
