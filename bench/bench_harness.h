#ifndef POSEIDON_BENCH_BENCH_HARNESS_H_
#define POSEIDON_BENCH_BENCH_HARNESS_H_

/**
 * @file
 * Shared harness for the paper-reproduction benchmarks.
 *
 * Every bench binary keeps printing its ASCII tables to stdout —
 * that is the human-facing artifact — and additionally emits a
 * machine-readable summary `BENCH_<name>.json` so CI and scripts can
 * track results across commits without scraping tables. Schema
 * (version 2):
 *
 *   {
 *     "schema_version": 2,
 *     "name":    "<bench name>",
 *     "git":     "<git describe --always --dirty, or 'unknown'>",
 *     "git_sha": "<git rev-parse HEAD, or 'unknown'>",
 *     "threads": <POSEIDON_THREADS-resolved worker count>,
 *     "hw_config": "<modeled machine, default 'poseidon_u280'>",
 *     "config":  { ... bench-declared knobs ... },
 *     "metrics": { ... bench-declared scalars ... },
 *     "cycles":  <total modeled cycles across record_sim() calls>,
 *     "seconds": <total modeled seconds>,
 *     "bandwidth_util": <HBM bytes / (seconds * peak), 0 if no sim>
 *   }
 *
 * The git_sha / threads / hw_config stamps exist for the regression
 * gate: tools/bench_compare refuses to diff documents whose
 * hw_config or threads disagree, and git_sha ties a baseline to the
 * commit that produced it. validate_bench_json accepts version 2
 * only.
 *
 * Host wall time is measured in one place, best_in_window(): rounds
 * of interleaved probes over a time window, reporting each probe's
 * fastest rep.
 *
 * The JSON lands in $POSEIDON_BENCH_DIR (default: the working
 * directory); `--no-json` suppresses it entirely.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "hw/sim.h"
#include "telemetry/json.h"

namespace poseidon::bench {

/// `git describe --always --dirty` of the working tree, or "unknown"
/// when git (or the repo) is unavailable.
std::string git_describe();

/// `git rev-parse HEAD`, or "unknown".
std::string git_sha();

class Harness
{
  public:
    /// `name` becomes the JSON's "name" and its filename
    /// (BENCH_<name>.json). argv is scanned for --no-json.
    Harness(std::string name, int argc = 0, char **argv = nullptr);

    /// Declare a configuration knob (shape, sweep bounds, ...).
    void config(const std::string &key, telemetry::Json v);

    /// Declare a result scalar.
    void metric(const std::string &key, double v);

    /// Name the modeled machine for the hw_config stamp (benches that
    /// sweep non-default configs should call this; the default is
    /// "poseidon_u280").
    void set_hw_config_name(std::string name);

    /// Stamp the TSDB provenance of a serving bench: the simulated
    /// sample cadence and how many series the dump carries. Emitted
    /// as the optional schema-v2 `"tsdb"` object,
    /// `{"cadence_cycles": <c>, "series": <n>}`, which
    /// validate_bench_json checks when present.
    void tsdb_stamp(double cadenceCycles, std::size_t seriesCount);

    /// Record one simulator run: emits `<prefix>.cycles`,
    /// `<prefix>.seconds`, `<prefix>.bandwidth_util` metrics and
    /// accumulates the run into the top-level totals.
    void record_sim(const std::string &prefix, const hw::SimResult &r,
                    const hw::HwConfig &cfg);

    /// Write BENCH_<name>.json (unless --no-json) and pass `rc`
    /// through, so `return h.finish();` ends main(). Reports and
    /// returns 1 if the file cannot be written.
    int finish(int rc = 0);

    /// Where finish() will write (resolved at construction).
    const std::string &output_path() const { return outPath_; }

  private:
    std::string name_;
    std::string outPath_;
    std::string hwConfigName_ = "poseidon_u280";
    bool writeJson_ = true;
    bool finished_ = false;
    telemetry::Json config_ = telemetry::Json::object();
    telemetry::Json metrics_ = telemetry::Json::object();
    bool hasTsdb_ = false;
    telemetry::Json tsdb_ = telemetry::Json::object();
    double totalCycles_ = 0.0;
    double totalSeconds_ = 0.0;
    double totalBytes_ = 0.0;
    double peakGBps_ = 0.0;
};

/// One host operation timed by best_in_window().
struct Probe
{
    std::string name;
    /// The timed work of one rep.
    std::function<void()> fn;
    /// Optional untimed work run before every rep (e.g. restoring an
    /// operand that `fn` transforms in place).
    std::function<void()> setup = {};
};

/// A probe's fastest rep.
struct ProbeResult
{
    double seconds = 0.0; ///< wall time of the fastest timed rep
    std::size_t reps = 0; ///< timed reps run
    long minorFaults = 0; ///< ru_minflt delta of the fastest rep
};

/**
 * Times `probes` the way hostbench times its request families: one
 * untimed warm-up rep of every probe, then rounds until `seconds` of
 * wall time have passed and every probe has `minReps` (at least one)
 * timed reps. In a round each probe, in order, runs for about the
 * wall time of the slowest probe's fastest rep so far, and at least
 * once, so a slow stretch of a shared host hits every probe alike.
 * Other tenants only ever slow a rep, so each probe's fastest rep is
 * the figure that repeats from run to run. Results are in `probes`
 * order.
 */
std::vector<ProbeResult> best_in_window(const std::vector<Probe> &probes,
                                        double seconds,
                                        std::size_t minReps);

} // namespace poseidon::bench

#endif // POSEIDON_BENCH_BENCH_HARNESS_H_
