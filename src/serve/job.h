#ifndef POSEIDON_SERVE_JOB_H_
#define POSEIDON_SERVE_JOB_H_

/**
 * @file
 * Job types of the multi-tenant serving engine.
 *
 * A job is one unit of accelerator work a client submits to the
 * service: either a compiled ISA program (an isa::Trace) or the name
 * of a paper workload (resolved through workloads::find_workload at
 * submission). Jobs carry the service-level envelope a deployed FHE
 * accelerator needs — tenant identity for fairness accounting, a
 * priority class, an arrival time and deadline on the simulated
 * clock, and a bounded-retry policy against the PR-1 HBM fault model.
 *
 * Time is *simulated* accelerator time throughout: cycles on the
 * modeled 300 MHz clock, not host wall time. The engine's scheduling
 * decisions and every latency it reports are functions of modeled
 * cycles only, which is what makes serving results bit-identical at
 * every host thread count (see DESIGN.md §10).
 */

#include <functional>
#include <future>
#include <limits>
#include <string>

#include "common/status.h"
#include "hw/sim.h"
#include "isa/trace.h"

namespace poseidon::serve {

/// Monotonically assigned job identifier (1-based; 0 is invalid).
using JobId = u64;

/// Bounded-retry policy against the SECDED fault model (hw/faults.h).
///
/// An attempt *fails* when the card's ECC campaign for the run either
/// leaks a silent corruption (faults.silent > 0 — the end-to-end
/// integrity guard of PR 1) or spends more than `retryCycleBudget`
/// cycles replaying detected-uncorrected transfers. A failed attempt
/// still occupied its card for the full modeled duration; the job
/// then fails over to a *different* shard (the failing card is
/// excluded from the rerun whenever the fleet has more than one card)
/// until `maxAttempts` is exhausted.
struct RetryPolicy
{
    /// Total attempts, including the first (1 disables failover).
    u64 maxAttempts = 3;

    /// ECC replay cycles an attempt may absorb before the card is
    /// declared faulty for this job (infinity: only silent corruption
    /// fails an attempt).
    double retryCycleBudget = std::numeric_limits<double>::infinity();

    /// Exponential backoff between attempts, in simulated cycles:
    /// attempt k+1 becomes eligible backoffBaseCycles *
    /// backoffMultiplier^(k-1) cycles after attempt k failed (0
    /// keeps the immediate-requeue behavior). Retries are
    /// deadline-aware: when the backed-off arrival plus the estimated
    /// cost (last attempt's cycles + dispatch overhead) cannot meet
    /// the job's deadline, the retry is skipped and the job fails
    /// immediately instead of burning a card on a doomed rerun.
    double backoffBaseCycles = 0.0;
    double backoffMultiplier = 2.0;
};

/// Lifecycle of a job inside the engine.
enum class JobState : unsigned {
    Queued,    ///< accepted, waiting for a card
    Completed, ///< ran to completion; JobResult::sim is valid
    Failed,    ///< every retry attempt exhausted on faulty runs
    Expired,   ///< missed its dispatch deadline while queued
    Shed,      ///< dropped by admission control (typed Overloaded)
};

/// Short stable name of a state ("Queued", "Completed", ...).
const char* to_string(JobState s);

/// Everything the engine reports back for one finished job.
struct JobResult
{
    JobId id = 0;
    JobState state = JobState::Queued;
    std::string tenant;
    std::string name;

    /// Card that finished (or last touched) the job; ~0 when the job
    /// never reached a card (e.g. Expired).
    std::size_t card = static_cast<std::size_t>(-1);

    /// Attempts consumed (>= 2 means at least one fault failover).
    u64 attempts = 0;

    // All times are absolute simulated cycles on the fleet clock.
    double arrivalCycle = 0.0;
    double startCycle = 0.0;  ///< dispatch of the successful attempt
    double finishCycle = 0.0; ///< completion (== expiry time if Expired)

    /// Timing/traffic of the successful run (zeroed otherwise).
    hw::SimResult sim;

    /// Human-readable failure reason for Failed / Expired / Shed.
    std::string error;

    /// Typed category of the failure, wire-safe for error frames
    /// (kOk when Completed; kOverloaded when Shed; kFaultDetected
    /// when Failed on exhausted/skipped retries).
    ErrorCode errorCode = ErrorCode::kOk;

    /// Queueing + service latency in simulated cycles.
    double latency_cycles() const { return finishCycle - arrivalCycle; }
};

/// One unit of work submitted to the engine.
struct JobSpec
{
    /// Fairness accounting key; jobs with the same tenant share one
    /// FIFO queue and one attained-service counter.
    std::string tenant = "default";

    /// Optional label echoed into JobResult (defaults to `workload`
    /// when a named workload is submitted).
    std::string name;

    /// Compiled ISA program to execute. Ignored when `workload` is
    /// set.
    isa::Trace trace;

    /// Named paper workload (forgiving spelling, see
    /// workloads::find_workload); resolved once at submission.
    std::string workload;

    /// Priority class: higher runs first, across all tenants. Within
    /// one class, tenants are served least-attained-cycles first.
    int priority = 0;

    /// Absolute arrival time on the simulated clock. Jobs are not
    /// eligible for dispatch before this cycle.
    double arrivalCycle = 0.0;

    /// Absolute dispatch deadline: a job still queued when a card
    /// considers it after this cycle is Expired (checked at dispatch
    /// time, not continuously).
    double deadlineCycle = std::numeric_limits<double>::infinity();

    RetryPolicy retry;

    /// Batching compatibility key. Jobs with equal keys (and equal
    /// priority, same tenant) may be coalesced into one card dispatch.
    /// Empty derives "deg:<max ring degree>" from the trace.
    std::string batchKey;

    /// Invoked on the drain()ing thread when the job finishes (any
    /// terminal state). May submit follow-up jobs (closed-loop
    /// clients); must not call ServingEngine::drain.
    std::function<void(const JobResult &)> callback;
};

/**
 * The submit boundary of the engine and of the cluster router: a
 * named workload becomes its trace (and default name), and an empty
 * batchKey is derived from the trace's largest ring degree. Both read
 * what the trace folded as it was built, so neither walks it. A job
 * that could never run throws InvalidArgument: an
 * unknown workload, an empty trace or tenant, maxAttempts == 0, a
 * negative, non-finite or shrinking backoff, a negative or non-finite
 * arrival, a deadline before the arrival, or a malformed trace
 * (isa::Trace::validate).
 */
void prepare_job(JobSpec &spec);

/// Handle returned by submit(): the job id plus a shared future that
/// becomes ready when the job reaches a terminal state during drain().
struct JobTicket
{
    JobId id = 0;
    std::shared_future<JobResult> result;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_JOB_H_
