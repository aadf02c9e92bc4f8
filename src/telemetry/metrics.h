#ifndef POSEIDON_TELEMETRY_METRICS_H_
#define POSEIDON_TELEMETRY_METRICS_H_

/**
 * @file
 * Process-wide metrics: counters, gauges and fixed-bucket histograms,
 * exportable as a Prometheus-style text page or a JSON object.
 *
 * Instruments register lazily by name (dotted, e.g.
 * "sim.kind_cycles.MM"). A returned reference stays valid until the
 * registry's next reset(), which frees every instrument; a call site
 * that keeps one across calls must therefore revalidate it against
 * generation() (see resolved() below, which does exactly that). Name
 * lookups take the registry mutex and scan the names, so they are for
 * cold paths; per-job paths update through resolved() handles. All
 * mutation paths are thread-safe: counters/gauges are single atomics,
 * histogram buckets are per-bucket atomics. Counter values are doubles
 * because the dominant sources (modeled cycles) are doubles;
 * accumulation order is the call order, so a single recording
 * reproduces its source value bit-exactly.
 *
 * Runtime switch: `telemetry::set_enabled(false)` makes every
 * instrumentation helper below a no-op; nothing is ever exported
 * unless a caller asks for a dump, so enabled telemetry changes no
 * observable behavior either. Compiling with
 * POSEIDON_TELEMETRY_DISABLED (cmake -DPOSEIDON_TELEMETRY=OFF) pins
 * `enabled()` to a constant false so the instrumentation folds away.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/json.h"

namespace poseidon::telemetry {

#ifdef POSEIDON_TELEMETRY_DISABLED
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
/// Global runtime switch (default on).
bool enabled();
void set_enabled(bool on);
#endif

/// Monotonically increasing sum.
class Counter
{
  public:
    void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
    void increment() { add(1.0); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/// Last-written value.
class Gauge
{
  public:
    void set(double d) { v_.store(d, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations with
/// v <= bounds[i] (and > bounds[i-1]); one extra overflow bucket
/// catches everything above the last bound.
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    /// Rebuild a histogram from raw bucket counts (bounds.size() + 1
    /// entries, overflow last) and an observation sum — the
    /// deserialization path for TSDB histogram intervals.
    static Histogram from_buckets(std::vector<double> bounds,
                                  const std::vector<std::uint64_t> &buckets,
                                  double sum);

    void observe(double v);

    /// Fold `other` into this histogram (bucket-wise add). Bounds must
    /// match exactly. Atomic per bucket, like observe().
    void merge(const Histogram &other);

    const std::vector<double>& bounds() const { return bounds_; }
    /// Count in bucket i; i == bounds().size() is the overflow bucket.
    std::uint64_t bucket_count(std::size_t i) const;
    /**
     * Quantile estimate (q in [0, 1]) using nearest-rank over the
     * cumulative buckets with linear interpolation inside the chosen
     * bucket. Overflow-bucket hits clamp to the last bound; returns
     * NaN for an empty histogram (an estimate of 0 would read as a
     * real latency).
     */
    double quantile(double q) const;
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    Histogram(std::vector<double> bounds,
              const std::vector<std::uint64_t> &buckets, double sum);

    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Latency bucket bounds in microseconds: 1us .. 10s, 1-2-5 series.
const std::vector<double>& default_latency_bounds_us();

/**
 * Exact nearest-rank quantile of a sample: rank = ceil(q * n) clamped
 * to [1, n], returns the rank-th smallest value (0.0 for an empty
 * sample). This is the one quantile definition used across the repo —
 * the serving engine's per-tenant p50/p99, the latency-breakdown
 * aggregates, and bench_serving all call it, so their numbers agree
 * bit-for-bit. Sorts a copy; fine for the report-time sample sizes
 * this is meant for.
 */
double exact_quantile(std::vector<double> sample, double q);

/// Named metrics, lazily created, process-wide via global().
class MetricsRegistry
{
  public:
    MetricsRegistry();

    static MetricsRegistry& global();

    Counter& counter(const std::string &name);
    Gauge& gauge(const std::string &name);
    /// First call fixes the bounds; later calls ignore `bounds`.
    Histogram& histogram(
        const std::string &name,
        const std::vector<double> &bounds = default_latency_bounds_us());

    /// Counter value, 0.0 when the counter was never touched (does
    /// not create it — safe for tests and dumps).
    double counter_value(const std::string &name) const;

    /// Drop every metric (tests; long-lived servers between scrapes
    /// should not call this). Frees the instruments, so it must not
    /// race with anything updating them.
    void reset();

    /// Names this registry's current set of instruments: unique among
    /// all registries of the process and changed by every reset(), so
    /// an instrument reference resolved under generation g is valid
    /// exactly while generation() == g.
    std::uint64_t generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

    /// Prometheus text exposition (names sanitized, "poseidon_"-
    /// prefixed; histograms expand to _bucket/_sum/_count series).
    std::string prometheus_text() const;

    /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
    Json to_json() const;

  private:
    mutable std::mutex mu_; // guards the maps, not the metric values
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>>
        counters_;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
    std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>
        histograms_;
    std::atomic<std::uint64_t> generation_;
};

/**
 * Handles for per-job paths: a `Set` is a struct of instrument
 * pointers whose constructor, given a MetricsRegistry&, resolves each
 * by name (in declaration order, so first use creates them in the
 * order a by-name call sequence would). resolved<Set>(reg) returns this
 * thread's Set for `reg`, resolving it again only when handed another
 * registry or after reg.reset(); otherwise it costs one atomic load and
 * builds no string.
 */
template <typename Set>
const Set&
resolved(MetricsRegistry &reg)
{
    struct Cache
    {
        const MetricsRegistry *reg = nullptr;
        std::uint64_t generation = 0;
        std::optional<Set> set;
    };
    thread_local Cache c;
    std::uint64_t g = reg.generation();
    if (c.reg != &reg || c.generation != g) { // generations start at 1
        c.set.emplace(reg);
        c.reg = &reg;
        c.generation = g;
    }
    return *c.set;
}

/// Increment `name` in the global registry when telemetry is enabled.
inline void
count(const std::string &name, double d = 1.0)
{
    if (enabled()) MetricsRegistry::global().counter(name).add(d);
}

/// Set gauge `name` in the global registry when telemetry is enabled.
inline void
gauge_set(const std::string &name, double v)
{
    if (enabled()) MetricsRegistry::global().gauge(name).set(v);
}

/// Observes wall time (microseconds) into a global-registry histogram
/// on destruction. Construction is near-free when telemetry is off.
class ScopedLatency
{
  public:
    explicit ScopedLatency(const char *histName);
    ~ScopedLatency();

    ScopedLatency(const ScopedLatency&) = delete;
    ScopedLatency& operator=(const ScopedLatency&) = delete;

  private:
    const char *name_;
    bool live_;
    std::uint64_t startNs_ = 0;
};

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_METRICS_H_
