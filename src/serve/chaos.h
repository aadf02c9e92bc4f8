#ifndef POSEIDON_SERVE_CHAOS_H_
#define POSEIDON_SERVE_CHAOS_H_

/**
 * @file
 * Chaos engineering for the simulated fleet: a deterministic,
 * seed-driven fault-schedule DSL and a campaign runner that drives
 * scripted fault storms through the serving engine and checks
 * conservation invariants.
 *
 * A ChaosSchedule is a list of timed events on the simulated clock:
 *
 *   CardDeath{card=0, cycle=2e6, duration=5e6}
 *       the card silently corrupts every attempt in the window — the
 *       model of a died/hung card whose results can't be trusted;
 *   HbmDegrade{card=1, cycle=1e6, stack=0, retryShare=0.4}
 *       an HBM stack starts throwing detected-uncorrected words: each
 *       attempt absorbs retryShare * cycles of ECC replay;
 *   FaultStorm{start=0, end=3e6, rate=0.2}
 *       fleet-wide: every attempt in the window is silently corrupted
 *       with probability `rate` (a deterministic per-attempt coin
 *       drawn from the schedule seed);
 *   GrayCard{card=2, slowdown=3}
 *       the card is slow but correct: attempts take slowdown x their
 *       modeled cycles (a gray failure the breaker must NOT trip on).
 *
 * Schedules parse from exactly that text form (see
 * ChaosSchedule::parse) so CI scripts and the chaos_campaign tool can
 * describe fault storms without recompiling. Injection is a pure
 * function of (schedule, card, job, attempt, dispatch cycle): the
 * perturbed SimResult is bit-identical at every host thread count.
 *
 * The campaign layer (Scenario / run_scenario) submits a mixed
 * multi-tenant load against a fleet under a schedule and verifies the
 * conservation invariant: every submitted job reaches exactly one
 * terminal state (completed, failed, expired, or shed) and every
 * ticket future is ready when drain() returns.
 */

#include <atomic>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "hw/sim.h"
#include "serve/engine.h"
#include "telemetry/json.h"

namespace poseidon::serve {

/// One scheduled fault event (see file comment for the DSL form).
struct ChaosEvent
{
    enum class Kind : unsigned {
        CardDeath,
        HbmDegrade,
        FaultStorm,
        GrayCard,
    };

    /// Target every card (FaultStorm default).
    static constexpr std::size_t kAllCards =
        static_cast<std::size_t>(-1);

    Kind kind = Kind::FaultStorm;
    std::size_t card = kAllCards;
    double startCycle = 0.0;
    double endCycle = std::numeric_limits<double>::infinity();
    double rate = 0.0;        ///< FaultStorm corruption probability
    double retryShare = 0.25; ///< HbmDegrade replay share of cycles
    double slowdown = 1.0;    ///< GrayCard cycle multiplier
    unsigned stack = 0;       ///< HbmDegrade: which HBM stack

    bool active_at(double cycle) const
    {
        return cycle >= startCycle && cycle < endCycle;
    }
    bool targets(std::size_t c) const
    {
        return card == kAllCards || card == c;
    }

    bool operator==(const ChaosEvent &) const = default;
};

/// Short stable name ("CardDeath", ...).
const char* to_string(ChaosEvent::Kind k);

/// A full fault schedule: events plus the seed of the storm coins.
struct ChaosSchedule
{
    std::vector<ChaosEvent> events;
    u64 seed = 0xC4A0517ULL;

    bool empty() const { return events.empty(); }
    bool operator==(const ChaosSchedule &) const = default;

    /// Render back to the DSL text form; parse(str()) == *this.
    std::string str() const;

    /**
     * Parse the DSL: `Kind{k=v, ...}` clauses of the shared grammar
     * (DESIGN.md §17) plus a standalone `seed=<n>`. Keys: card, cycle
     * (start), duration, start, end, rate, retryShare, slowdown,
     * stack; card, stack and seed are exact integers. Throws
     * poseidon::InvalidArgument naming the offending clause.
     */
    static ChaosSchedule parse(const std::string &dsl);
};

/// Applies a schedule to priced attempts. Thread-safe: perturb() is
/// called from the engine's parallel pricing phase; the injection
/// counters are order-independent atomic sums.
class ChaosInjector
{
  public:
    explicit ChaosInjector(ChaosSchedule schedule = ChaosSchedule{});

    const ChaosSchedule& schedule() const { return schedule_; }
    bool active() const { return !schedule_.events.empty(); }

    /**
     * Perturb one priced attempt in place. `dispatchCycle` is the
     * simulated time the attempt started; `job` 0 denotes an engine
     * probe. Deterministic: the same (card, job, attempt,
     * dispatchCycle) always injects the same faults.
     */
    void perturb(std::size_t card, JobId job, u64 attempt,
                 double dispatchCycle, hw::SimResult &r) const;

    u64 deaths_injected() const { return deaths_.load(); }
    u64 storm_corruptions() const { return storms_.load(); }
    u64 degrades_injected() const { return degrades_.load(); }
    u64 slowdowns_injected() const { return slowdowns_.load(); }

  private:
    ChaosSchedule schedule_;
    mutable std::atomic<u64> deaths_{0};
    mutable std::atomic<u64> storms_{0};
    mutable std::atomic<u64> degrades_{0};
    mutable std::atomic<u64> slowdowns_{0};
};

/// One scripted chaos scenario: a fleet, a load, and a schedule.
struct Scenario
{
    std::string name;
    std::string description;
    ChaosSchedule schedule;

    std::size_t cards = 4;
    std::size_t jobs = 24;
    std::size_t tenants = 3;
    /// Trace size class of the synthetic load (log2 elements of the
    /// per-job op mix); ignored when `workload` names a paper trace.
    unsigned logElems = 16;
    /// Optional paper workload name: every job prices this trace.
    std::string workload;

    u64 maxAttempts = 4;
    double backoffBaseCycles = 1.0e5;
    /// Relative deadline per job (infinity = none).
    double deadlineSlackCycles =
        std::numeric_limits<double>::infinity();
    std::size_t maxQueueDepth = 0; ///< 0 = no admission limit

    HealthConfig health;

    /// TSDB sampling cadence in simulated cycles (0 = TSDB off);
    /// standard_scenarios() sets horizon/64 so every scenario's
    /// saturation and recovery become inspectable curves.
    double tsdbCadenceCycles = 0.0;
    std::size_t tsdbCapacity = 4096;
    /// Alert rules (telemetry/alerts.h DSL) evaluated at each sample
    /// tick; requires tsdbCadenceCycles > 0.
    std::string alertRules;
};

/// Outcome of one scenario run, plus the invariant verdicts.
struct CampaignReport
{
    std::string scenario;
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0;
    u64 retries = 0;
    u64 quarantines = 0;
    u64 readmissions = 0;
    u64 probes = 0;

    /// submitted == completed + failed + expired + shed AND every
    /// ticket future was ready when drain() returned.
    bool conserved = false;
    /// Every future became ready (part of `conserved`, reported
    /// separately for diagnostics).
    bool allTicketsResolved = false;
    /// The lifecycle journal agreed with the engine: decompose()
    /// reproduced the per-state counts and every per-tenant p50/p99
    /// bit-for-bit, and every job conserved its phase cycles (the
    /// decompose() POSEIDON_CHECKs did not fire).
    bool journalConsistent = false;

    double availability = 0.0; ///< completed / submitted
    double goodputJobsPerSec = 0.0;
    double horizonCycles = 0.0;

    ServeStats stats;
    /// Serialized journal (JSONL) of the run — compare across thread
    /// counts for byte-identical determinism.
    std::string journalJsonl;
    /// Serialized TSDB (JSONL; "" when the scenario sampled none) —
    /// same byte-identical determinism contract as the journal.
    std::string tsdbJsonl;
    /// Alert outcomes (0 when the scenario declared no rules).
    u64 alertsFired = 0;
    u64 alertsResolved = 0;
    /// Every alert transition, in evaluation order (fire/resolve
    /// cycles gate against fault windows in bench_chaos).
    std::vector<telemetry::AlertTransition> alertLog;

    bool ok() const { return conserved && journalConsistent; }
    telemetry::Json to_json() const;
};

/**
 * Run one scenario: build the fleet + engine with the scenario's
 * health/admission/chaos knobs, submit the mixed multi-tenant load,
 * drain, and check the conservation invariant. Deterministic on the
 * simulated clock — callers may re-run under different
 * POSEIDON_THREADS and compare reports bit-for-bit.
 */
CampaignReport run_scenario(const Scenario &sc);

/// The scripted standard campaign: card death mid-drain, fault storm,
/// death during a storm, HBM degrade, gray card, and overload shed.
std::vector<Scenario> standard_scenarios();

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_CHAOS_H_
