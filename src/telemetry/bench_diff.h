#ifndef POSEIDON_TELEMETRY_BENCH_DIFF_H_
#define POSEIDON_TELEMETRY_BENCH_DIFF_H_

/**
 * @file
 * The bench-regression gate's comparison engine.
 *
 * diff_bench() compares a freshly produced BENCH_<name>.json document
 * against a committed baseline (bench/baselines/). Compared values:
 * the top-level "cycles", "seconds" and "bandwidth_util" scalars plus
 * every key under "metrics". A value regresses when its relative delta
 * |cur - base| / max(|base|, 1) exceeds its tolerance (per-metric
 * override, else the default); a metric present in the baseline but
 * missing from the current run is lost coverage and also a
 * regression. Metrics new in the current run are reported but pass —
 * they become part of the baseline when it is next refreshed.
 *
 * Cross-config diffs are meaningless (different lanes, threads or
 * machine shapes legitimately price differently), so when either
 * document lacks the "hw_config"/"threads" stamps, when the stamps
 * disagree, or when the bench names differ, the result is marked
 * incomparable, which the gate treats as failure.
 *
 * The modeled-cycle sources are deterministic; the default tolerance
 * (1e-9 relative) only absorbs cross-compiler FP contraction, not real
 * drift. The tools/bench_compare CLI is a thin wrapper around this.
 */

#include <map>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace poseidon::telemetry {

/// Knobs of one comparison run.
struct BenchDiffOptions
{
    /// Relative tolerance applied to every value without an override.
    double defaultTolerance = 1e-9;

    /// Per-metric overrides, keyed by the compared key ("cycles",
    /// "seconds", "bandwidth_util", or a metrics.* name).
    std::map<std::string, double> tolerances;

    double tolerance_for(const std::string &key) const
    {
        auto it = tolerances.find(key);
        return it == tolerances.end() ? defaultTolerance : it->second;
    }
};

/// Outcome for one compared value.
struct MetricDelta
{
    std::string key;
    double baseline = 0.0;
    double current = 0.0;
    double relDelta = 0.0; ///< (cur - base) / max(|base|, 1)
    double tolerance = 0.0;
    bool missing = false;  ///< in the baseline but not the current run
    bool added = false;    ///< in the current run but not the baseline
    bool regression = false;
};

/// Outcome for one bench document.
struct BenchDiffResult
{
    std::string name;
    bool comparable = true;
    std::string incomparableReason;
    std::vector<MetricDelta> deltas;

    /// True when the gate must fail: incomparable or any regression.
    bool regressed() const;
    std::size_t regression_count() const;
};

/// Compare one current document against its baseline.
BenchDiffResult diff_bench(const Json &baseline, const Json &current,
                           const BenchDiffOptions &opt = {});

/// Render a human-readable summary (one line per problem, or "ok").
std::string format_diff(const BenchDiffResult &r);

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_BENCH_DIFF_H_
