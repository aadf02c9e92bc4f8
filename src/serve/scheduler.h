#ifndef POSEIDON_SERVE_SCHEDULER_H_
#define POSEIDON_SERVE_SCHEDULER_H_

/**
 * @file
 * Queueing policy of the serving engine: priority classes, per-tenant
 * fairness, and compatible-job batching.
 *
 * The scheduler holds one FIFO queue per tenant and makes every
 * decision from simulated-clock state only, so a schedule is a pure
 * function of the submitted job set — never of host timing. Dispatch
 * policy, in order:
 *
 *  1. **Priority**: among jobs that have arrived (arrivalCycle <= now)
 *     and are not excluded from the asking card, the highest
 *     JobSpec::priority wins, across all tenants.
 *  2. **Fairness**: within a priority class, the tenant with the least
 *     attained service (simulated cycles consumed so far, including
 *     failed attempts) is served first; ties break on the tenant name
 *     so the order is total and reproducible.
 *  3. **FIFO**: within a tenant, jobs leave in submission order
 *     (head-of-line; a job is only expired or skipped when it is at
 *     the head).
 *
 * **Deadlines** are dispatch-time admission: when the head job's
 * deadlineCycle lies before `now`, it is expired and reported instead
 * of dispatched (jobs behind it are not scanned — they expire when
 * they reach the head).
 *
 * **Batching**: after choosing a head job, the scheduler extends the
 * dispatch with the next jobs of the *same tenant queue* while they
 * share the head's batchKey and priority, have arrived, and the batch
 * is under maxBatch. A batch runs back-to-back on one card and pays
 * the per-dispatch overhead once — the modeled benefit of coalescing
 * key/twiddle uploads. Batching trades fairness granularity for that
 * amortization; maxBatch = 1 restores strict per-job fairness.
 */

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "serve/job.h"
#include "serve/journal.h"

namespace poseidon::serve {

/// The engine's one record of a job from submit() to its verdict:
/// spec, bookkeeping and the client's promise. Move-only (the
/// promise), so a job is never in two places at once.
struct QueuedJob
{
    JobId id = 0;
    JobSpec spec;
    std::promise<JobResult> promise;
    u64 attempt = 0; ///< attempts already consumed (0 = fresh)
    /// Every card a previous attempt of this job faulted on. Failover
    /// excludes all of them while the fleet still has an untried live
    /// card; once the set covers the live fleet the exclusion is
    /// waived (there is nowhere else to go).
    std::vector<std::size_t> faultedCards;

    bool has_faulted_on(std::size_t card) const
    {
        return std::find(faultedCards.begin(), faultedCards.end(),
                         card) != faultedCards.end();
    }
};

/// Per-card exclusion predicate the engine hands to pick_batch():
/// true = this job must not run on the asking card.
using JobFilter = std::function<bool(const QueuedJob &)>;

/// Head-of-line jobs the scheduler expired during a pick.
struct ExpiredJob
{
    QueuedJob job;
    double expiredAtCycle = 0.0;
};

class Scheduler
{
  public:
    /// `maxBatch` >= 1: jobs coalesced per dispatch.
    explicit Scheduler(std::size_t maxBatch = 4);

    /// Attach the engine's lifecycle journal: enqueue() then records
    /// Enqueued and pick_batch() records BatchFormed + Dispatched.
    /// Nullptr (the default) detaches.
    void set_journal(Journal *journal) { journal_ = journal; }

    void enqueue(QueuedJob job);

    bool empty() const { return queued_ == 0; }
    std::size_t depth() const { return queued_; }

    /// Earliest arrivalCycle over the *head* job of every tenant
    /// queue (infinity if empty). Heads are the only dispatchable
    /// jobs, so this is the next time the fleet clock can make
    /// progress when nothing has arrived yet.
    double earliest_head_arrival() const;

    /**
     * Pick the next batch for card `card` at simulated time `now`.
     * Expired head jobs encountered while picking are appended to
     * `expired` (already dequeued). `excluded` is the engine's
     * per-card failover filter (jobs that already faulted on this
     * card); pass nullptr for no exclusion. Returns an empty vector
     * when no arrived, non-excluded job exists.
     */
    std::vector<QueuedJob> pick_batch(std::size_t card, double now,
                                      std::vector<ExpiredJob> &expired,
                                      const JobFilter &excluded);

    /**
     * Admission control: remove queued jobs until depth() <= target,
     * shedding the lowest-priority work first and, within a priority
     * class, the most recently submitted job first (highest id) — the
     * oldest high-priority work survives. Returns the shed jobs.
     */
    std::vector<QueuedJob> shed_to_depth(std::size_t target);

    /// Remove and return every queued job (the all-cards-dead path:
    /// nothing can serve them, so the engine sheds them as
    /// Overloaded).
    std::vector<QueuedJob> drain_all();

    /// Charge `cycles` of attained service to `tenant` (fairness
    /// accounting; includes failed attempts — they consumed the card).
    void charge(const std::string &tenant, double cycles);

    /// Attained service per tenant, in simulated cycles.
    const std::map<std::string, double>& attained() const
    {
        return attained_;
    }

  private:
    /// Drop expired heads of `q`; returns the surviving head or null.
    const QueuedJob* live_head(std::deque<QueuedJob> &q, double now,
                               std::vector<ExpiredJob> &expired);

    std::size_t maxBatch_;
    std::size_t queued_ = 0;
    Journal *journal_ = nullptr; ///< not owned; may be null
    /// Monotone dispatch ids for BatchFormed/Dispatched correlation.
    u64 nextBatch_ = 1;
    /// std::map: iteration in tenant-name order keeps every scan
    /// deterministic.
    std::map<std::string, std::deque<QueuedJob>> tenants_;
    std::map<std::string, double> attained_;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_SCHEDULER_H_
