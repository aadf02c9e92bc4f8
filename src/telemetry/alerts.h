#ifndef POSEIDON_TELEMETRY_ALERTS_H_
#define POSEIDON_TELEMETRY_ALERTS_H_

/**
 * @file
 * Declarative alert rules over TSDB series, with a
 * pending -> firing -> resolved state machine on the simulated clock.
 *
 * A rule is one clause of a small DSL:
 *
 *   serve.queue_depth > 256 for 5e6 cycles hold 2e6 cycles => page
 *
 *   <metric> <cmp> <threshold> [for <cycles>] [hold <cycles>]
 *                              [=> warn|page]
 *
 * `<cmp>` is one of > >= < <=. `for` is the classic
 * threshold-with-duration guard: the condition must hold continuously
 * for that many simulated cycles before the rule fires (0 = fire on
 * first observation). `hold` suppresses flapping on the way down: the
 * condition must stay clear that long before the rule resolves; any
 * re-assertion resets the clear timer. Rules are split and numbers
 * read by the shared clause grammar (DESIGN.md §17); parse(str())
 * round-trips.
 *
 * The AlertEngine is evaluated by the TSDB's single-threaded owner at
 * each sample tick, reads only latest-sample values, and stamps every
 * state change with the simulated cycle — so the full alert timeline
 * inherits the TSDB's byte-identical determinism contract
 * (timeseries.h). Each evaluate() pushes a per-rule state series
 * ("alert.r<i>.state", 0 = inactive, 1 = pending, 2 = firing) and an
 * "alert" annotation per transition into the Tsdb; the returned
 * transitions let the owner fan them out to its journal, trace, and
 * counters.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "common/modmath.h" // u64
#include "telemetry/timeseries.h"

namespace poseidon::telemetry {

enum class AlertCmp : unsigned { GT = 0, GE, LT, LE };
enum class AlertSeverity : unsigned { Warn = 0, Page };
enum class AlertState : unsigned { Inactive = 0, Pending, Firing };

const char* to_string(AlertCmp c);
const char* to_string(AlertSeverity s);
const char* to_string(AlertState s);

/// One parsed alert clause (see file comment for the DSL).
struct AlertRule
{
    std::string metric;              ///< TSDB value-series name
    AlertCmp cmp = AlertCmp::GT;
    double threshold = 0.0;
    double forCycles = 0.0;          ///< must hold this long to fire
    double holdCycles = 0.0;         ///< must clear this long to resolve
    AlertSeverity severity = AlertSeverity::Warn;

    /// Condition test for one sampled value.
    bool condition(double value) const;

    /// Canonical clause text; AlertRules::parse(str()) round-trips.
    std::string str() const;
};

/// An ordered rule set (rule index = evaluation + series identity).
struct AlertRules
{
    std::vector<AlertRule> rules;

    bool empty() const { return rules.empty(); }
    std::size_t size() const { return rules.size(); }

    /// "; "-joined clause list ("" when empty).
    std::string str() const;

    /// Parse `;`/newline-separated rules. Throws
    /// poseidon::InvalidArgument on any malformed clause.
    static AlertRules parse(const std::string &spec);
};

/// One state-machine edge, stamped with the simulated cycle.
struct AlertTransition
{
    std::size_t rule = 0; ///< index into AlertRules::rules
    double cycle = 0.0;
    AlertState from = AlertState::Inactive;
    AlertState to = AlertState::Inactive;
    /// The sampled metric value that drove the edge (NaN when the
    /// series was absent/empty).
    double value = 0.0;

    /// "pending -> firing" (annotation text form).
    std::string text() const;
};

/// Evaluates an AlertRules set against a Tsdb, one tick at a time.
/// Single-writer, driven by the TSDB owner; not thread-safe.
class AlertEngine
{
  public:
    AlertEngine() = default;
    explicit AlertEngine(AlertRules rules);

    const AlertRules& rules() const { return rules_; }
    bool empty() const { return rules_.empty(); }

    /**
     * Evaluate every rule against the latest sample of its metric
     * series in `tsdb` (absent or empty series = condition false),
     * advance the state machines to `cycle`, record per-rule state
     * series and per-transition annotations into `tsdb`, and return
     * the transitions in rule order. Cycles must not run backwards.
     */
    std::vector<AlertTransition> evaluate(double cycle, Tsdb &tsdb);

    AlertState state(std::size_t rule) const;
    /// Rules currently in Firing.
    std::size_t firing() const;
    /// Lifetime count of edges into / out of Firing.
    u64 fired_total() const { return firedTotal_; }
    u64 resolved_total() const { return resolvedTotal_; }

    /// "alert.r<i>.state" — the per-rule TSDB state series name.
    static std::string state_series_name(std::size_t rule);

  private:
    struct RuleState
    {
        AlertState state = AlertState::Inactive;
        /// First cycle of the current uninterrupted true streak.
        double conditionSince = 0.0;
        /// First cycle of the current clear streak while Firing; < 0
        /// while the condition is (re)asserted.
        double clearSince = -1.0;
    };

    AlertRules rules_;
    std::vector<RuleState> states_;
    double lastCycle_ = -1.0;
    u64 firedTotal_ = 0;
    u64 resolvedTotal_ = 0;
};

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_ALERTS_H_
