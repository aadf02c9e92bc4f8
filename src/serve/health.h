#ifndef POSEIDON_SERVE_HEALTH_H_
#define POSEIDON_SERVE_HEALTH_H_

/**
 * @file
 * Fleet health management: a per-card circuit breaker fed by the
 * fault statistics of every attempt the engine executes.
 *
 * The serving engine (PR 5) fails a faulty attempt over to another
 * card, but the fleet had no memory: a card that corrupts every job
 * kept receiving work. The HealthMonitor closes that loop. Each
 * completed attempt feeds two EWMAs on the *simulated* clock —
 * the failure rate (silent corruption / retry-budget overrun per
 * attempt) and the ECC-replay share of attempt cycles — and drives a
 * three-state breaker per card:
 *
 *           failure/retry EWMA over threshold
 *   CLOSED ---------------------------------------> OPEN
 *     ^                                               | cooldownCycles
 *     | probeSuccessesToClose clean probes            v elapse
 *     +-------------------------------------- HALF_OPEN
 *                (a faulty probe reopens, cooldown restarts;
 *                 maxProbeRoundFailures failed rounds => dead)
 *
 * OPEN quarantines the card: the engine stops offering it work, and
 * queued jobs flow to the remaining fleet. After `cooldownCycles` the
 * card turns HALF_OPEN and is re-admitted only via low-priority probe
 * jobs the engine synthesizes; `probeSuccessesToClose` consecutive
 * clean probes re-close the breaker (EWMAs reset — the card earns a
 * fresh record), while a faulty probe reopens it and restarts the
 * cooldown. A card whose probes fail `maxProbeRoundFailures` rounds
 * in a row is declared dead and never re-admitted.
 *
 * Every decision is a pure function of the attempt stream on the
 * simulated clock, so fleet health — like the schedule itself — is
 * bit-identical at every host thread count.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "hw/faults.h"

namespace poseidon::serve {

/// Circuit-breaker state of one card.
enum class BreakerState : unsigned {
    Closed,   ///< healthy: accepts normal work
    Open,     ///< quarantined: no work until the cooldown elapses
    HalfOpen, ///< probation: accepts probe jobs only
};

/// Short stable name ("Closed", "Open", "HalfOpen").
const char* to_string(BreakerState s);

/// Knobs of the per-card circuit breaker.
struct HealthConfig
{
    /// EWMA weight of the newest attempt (0 < alpha <= 1).
    double ewmaAlpha = 0.3;

    /// Breaker trips when the failed-attempt EWMA reaches this.
    double failureThreshold = 0.6;

    /// ... or when the ECC-replay share of attempt cycles (EWMA)
    /// reaches this — a card drowning in detected-uncorrected
    /// replays is degraded even when nothing is corrupted yet.
    double retryShareThreshold = 0.5;

    /// Attempts a card must have served before it may trip (shields
    /// a cold card from one unlucky first attempt).
    u64 minAttempts = 4;

    /// Simulated cycles a quarantined card sits OPEN before probing.
    double cooldownCycles = 5.0e6;

    /// Consecutive clean probes that re-close the breaker.
    u64 probeSuccessesToClose = 2;

    /// Consecutive failed probe *rounds* (each ending back in OPEN)
    /// before the card is declared dead and never re-admitted.
    u64 maxProbeRoundFailures = 8;
};

/// A quarantine-lifecycle event (exported to telemetry + the Chrome
/// trace's fleet-health track).
struct HealthEvent
{
    enum class Kind : unsigned {
        Quarantined, ///< breaker tripped CLOSED -> OPEN
        Probing,     ///< cooldown elapsed, OPEN -> HALF_OPEN
        Readmitted,  ///< probes passed, HALF_OPEN -> CLOSED
        Died,        ///< probe rounds exhausted; card is out for good
    };
    Kind kind = Kind::Quarantined;
    std::size_t card = 0;
    double cycle = 0.0; ///< simulated fleet-clock time of the event
    std::string reason;
};

/// Short stable name ("Quarantined", "Probing", ...).
const char* to_string(HealthEvent::Kind k);

/// Health ledger of one card.
struct CardHealth
{
    BreakerState state = BreakerState::Closed;
    bool dead = false; ///< terminal: probe rounds exhausted

    double ewmaFailure = 0.0;    ///< failed-attempt indicator EWMA
    double ewmaRetryShare = 0.0; ///< ECC-replay cycle share EWMA

    u64 attempts = 0;       ///< attempts since the last re-admission
    u64 failedAttempts = 0; ///< ... of which tripped the fault guard

    double openedAtCycle = 0.0; ///< last CLOSED/HALF_OPEN -> OPEN time
    u64 quarantines = 0;        ///< times the breaker tripped
    u64 probes = 0;             ///< probe attempts executed
    u64 probeSuccesses = 0;     ///< consecutive, current round
    u64 probeRoundFailures = 0; ///< consecutive failed rounds
};

/// Per-fleet circuit-breaker state machine. Not thread-safe: the
/// engine feeds it from the (single-threaded) completion-bookkeeping
/// phase of drain() only.
class HealthMonitor
{
  public:
    explicit HealthMonitor(std::size_t cards,
                           HealthConfig cfg = HealthConfig{});

    const HealthConfig& config() const { return cfg_; }
    std::size_t size() const { return cards_.size(); }
    const CardHealth& card(std::size_t i) const;

    /**
     * Feed one completed normal attempt: `failed` is the engine's
     * fault guard verdict (silent corruption or retry-budget
     * overrun), `attemptCycles` the modeled duration, `cycle` the
     * completion time. Returns true when this attempt tripped the
     * breaker CLOSED -> OPEN (the quarantine event is recorded).
     */
    bool record_attempt(std::size_t card, double cycle,
                        const hw::FaultStats &faults,
                        double attemptCycles, bool failed);

    /// May the card take normal work at `cycle`? (CLOSED only.)
    bool admissible(std::size_t card, double cycle) const;

    /// Does the card want a probe at `cycle`? True when OPEN past its
    /// cooldown, or already HALF_OPEN mid-round.
    bool wants_probe(std::size_t card, double cycle) const;

    /// Feed one probe outcome at `cycle` (transitions OPEN ->
    /// HALF_OPEN on the first probe of a round, then -> CLOSED after
    /// enough successes or back to OPEN on a failure).
    void record_probe(std::size_t card, double cycle, bool ok);

    /**
     * Earliest simulated cycle card `i` could accept *any* work at or
     * after `cycle`: `cycle` itself when CLOSED/HALF_OPEN, the
     * cooldown expiry when OPEN, +infinity when dead. The engine
     * folds this into its round clock so a fully-quarantined fleet
     * idles forward to the next probe window instead of stalling.
     */
    double available_at(std::size_t card, double cycle) const;

    /// True when no card can ever serve again (all dead).
    bool all_dead() const;

    /// Cards not declared dead (the denominator for failover
    /// exclusion: a job that faulted on every live card may rerun
    /// anywhere).
    std::size_t live_cards() const;

    /// Quarantine lifecycle, in occurrence order.
    const std::vector<HealthEvent>& events() const { return events_; }

    u64 quarantines() const;
    u64 readmissions() const { return readmissions_; }
    u64 probes() const;

  private:
    void trip(std::size_t card, double cycle, const std::string &why);

    HealthConfig cfg_;
    std::vector<CardHealth> cards_;
    std::vector<HealthEvent> events_;
    u64 readmissions_ = 0;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_HEALTH_H_
