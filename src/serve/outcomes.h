#ifndef POSEIDON_SERVE_OUTCOMES_H_
#define POSEIDON_SERVE_OUTCOMES_H_

/**
 * @file
 * The one terminal-verdict ledger of the serving stack.
 *
 * ServingEngine counts its jobs' verdicts with an OutcomeLedger, and
 * the cluster router counts its cluster jobs' verdicts with another:
 * submissions, the five terminal states, per-tenant tallies and exact
 * completed-job latency quantiles, all on the simulated clock.
 * ServeStats and ClusterStats both extend the Outcomes snapshot it
 * fills, so "every submitted job reached exactly one verdict" is one
 * formula (Outcomes::conserved) at both levels.
 */

#include <map>
#include <string>
#include <vector>

#include "serve/job.h"
#include "telemetry/json.h"

namespace poseidon::serve {

/// Aggregate per-tenant outcome (simulated time).
struct TenantStats
{
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0;
    double attainedCycles = 0.0; ///< card time consumed, incl. failures
    double p50LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;

    telemetry::Json to_json() const;
};

/// Verdict totals; ServeStats and ClusterStats extend them.
struct Outcomes
{
    u64 submitted = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 expired = 0;
    u64 shed = 0; ///< dropped by admission control

    /// Latest job finish (the serving horizon / makespan).
    double horizonCycles = 0.0;

    std::map<std::string, TenantStats> tenants;

    /// Every submitted job reached exactly one terminal verdict.
    bool conserved() const
    {
        return submitted == completed + failed + expired + shed;
    }
};

/// Counts submissions and terminal verdicts. Not synchronized: the
/// owner guards it with the lock that orders its submissions.
class OutcomeLedger
{
  public:
    void submit(const std::string &tenant);

    /// Card time `tenant` consumed (failed attempts included).
    void attain(const std::string &tenant, double cycles);

    /// Count `r`'s verdict under r.tenant; a Completed job's
    /// latency_cycles() feeds the quantiles.
    void finish(const JobResult &r);

    /// Submitted jobs still without a verdict.
    u64 open() const;

    /// Running totals; tenant quantiles are left at zero.
    const Outcomes& totals() const { return totals_; }

    /// Copy the totals into `out`, with every tenant's exact p50/p99.
    void fill(Outcomes &out) const;

    /// Exact quantile over every completed job's latency.
    double latency_quantile(double q) const;

  private:
    Outcomes totals_;
    /// Per-tenant completed-job latencies (simulated cycles).
    std::map<std::string, std::vector<double>> latencies_;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_OUTCOMES_H_
