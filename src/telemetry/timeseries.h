#ifndef POSEIDON_TELEMETRY_TIMESERIES_H_
#define POSEIDON_TELEMETRY_TIMESERIES_H_

/**
 * @file
 * Deterministic time-series database (TSDB) for simulated-clock
 * metrics.
 *
 * The point-in-time metrics registry (telemetry/metrics.h) answers
 * "what is the queue depth *now*"; the TSDB answers "how did it get
 * there": rates, deltas, EWMAs, windowed min/max/mean and windowed
 * histogram quantiles over a bounded history of samples stamped with
 * the *simulated* fleet clock.
 *
 * **Determinism contract.** A Tsdb never reads the wall clock and
 * never samples by itself: a single-threaded owner (the serving
 * engine's drain loop) pushes values at simulated-cycle stamps of its
 * choosing. Because every recorded value is a function of
 * simulated-clock state only, a dump of the same run is byte-identical
 * at every POSEIDON_THREADS — the same contract the lifecycle journal
 * honors (DESIGN.md §15). Samples from the *global* MetricsRegistry
 * can be folded in through sample_registry(), but that convenience is
 * only deterministic for registries whose instruments are themselves
 * simulated-clock state (host wall-time histograms are not).
 *
 * **Storage.** Each series is a fixed-capacity ring buffer; pushing
 * past capacity evicts the oldest sample and counts it, so memory is
 * bounded no matter how long the engine runs. Value series hold
 * (cycle, value) pairs; histogram series hold per-interval bucket
 * deltas of a cumulative source histogram, so a window of intervals
 * can be folded back into one telemetry::Histogram (via
 * Histogram::merge) and queried for quantiles.
 *
 * **Serialized form**: a `poseidon-tsdb` JSONL document
 * (telemetry/text_format.h, DESIGN.md §17) whose header carries
 * cadence_cycles, capacity and the series/annotation counts:
 *
 *   {"series":"serve.queue_depth","kind":"value","evicted":0,
 *    "samples":[[0,0],[500000,17], ...]}
 *   {"series":"serve.latency_cycles","kind":"histogram",
 *    "bounds":[...],"evicted":0,
 *    "samples":[[500000,[0,2,1,...],123456.0], ...]}
 *   {"annotation":"alert","cycle":2e6,"name":"...","text":"firing",
 *    "value":3}
 */

#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/modmath.h" // u64
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace poseidon::telemetry {

/// One sampled point of a value series.
struct Sample
{
    double cycle = 0.0;
    double value = 0.0;
};

/// Windowed summary of a value series (see Series::window_stats).
struct WindowStats
{
    std::size_t count = 0; ///< samples inside the window
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    double mean = 0.0;
};

/// Fixed-capacity ring buffer of (cycle, value) samples, oldest
/// evicted first. Appends must be chronological.
class Series
{
  public:
    Series(std::string name, std::size_t capacity);

    const std::string& name() const { return name_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Samples dropped to keep the ring bounded.
    u64 evicted() const { return evicted_; }

    /// Append one sample; cycle must be >= the latest sample's.
    void push(double cycle, double value);

    /// Chronological access: 0 = oldest retained sample.
    const Sample& at(std::size_t i) const;
    const Sample& latest() const;

    // ---- windowed aggregators ----
    // A window covers samples with cycle in (endCycle - windowCycles,
    // endCycle]; endCycle defaults to the latest sample's cycle.

    /// Last value minus the value at the window start boundary (the
    /// newest sample at or before endCycle - windowCycles; the oldest
    /// retained sample when the window covers everything). NaN when
    /// fewer than two samples exist.
    double delta(double windowCycles) const;

    /// delta / elapsed cycles between the same two samples — the
    /// per-cycle rate of a cumulative counter. NaN like delta.
    double rate(double windowCycles) const;

    /// Exponentially weighted moving average over the whole retained
    /// history (oldest first): e <- alpha * v + (1 - alpha) * e.
    /// NaN when empty.
    double ewma(double alpha) const;

    /// min/max/mean over the samples inside the window.
    WindowStats window_stats(double windowCycles) const;

  private:
    friend class Tsdb; // parse_jsonl restores the eviction counter

    std::size_t ring_index(std::size_t i) const
    {
        return (head_ + i) % capacity_;
    }

    std::string name_;
    std::size_t capacity_;
    std::vector<Sample> ring_;
    std::size_t head_ = 0; ///< index of the oldest sample
    std::size_t size_ = 0;
    u64 evicted_ = 0;
};

/// One interval of a histogram series: the observations that landed
/// between the previous sample and `cycle`, as raw bucket deltas.
struct HistogramInterval
{
    double cycle = 0.0;
    std::vector<u64> buckets; ///< bounds().size() + 1 (overflow last)
    double sum = 0.0;         ///< sum of the interval's observations
};

/// Ring buffer of per-interval histogram deltas sharing one bounds
/// vector; windows fold back into a telemetry::Histogram.
class HistogramSeries
{
  public:
    HistogramSeries(std::string name, std::vector<double> bounds,
                    std::size_t capacity);

    const std::string& name() const { return name_; }
    const std::vector<double>& bounds() const { return bounds_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    u64 evicted() const { return evicted_; }

    /// Append the delta between `cumulative` and the previous
    /// cumulative snapshot (the first push records the histogram as
    /// its own delta). Bounds must match.
    void push(double cycle, const Histogram &cumulative);

    /// Append a raw interval (deserialization path).
    void push_interval(HistogramInterval iv);

    const HistogramInterval& at(std::size_t i) const;
    const HistogramInterval& latest() const;

    /**
     * Fold every interval inside (endCycle - windowCycles, endCycle]
     * into one Histogram (Histogram::from_buckets + merge) and return
     * its q-quantile. NaN when the window holds no observations.
     */
    double window_quantile(double windowCycles, double q,
                           double endCycle) const;
    double window_quantile(double windowCycles, double q) const;

  private:
    friend class Tsdb; // parse_jsonl restores the eviction counter

    std::size_t ring_index(std::size_t i) const
    {
        return (head_ + i) % capacity_;
    }

    std::string name_;
    std::vector<double> bounds_;
    std::size_t capacity_;
    std::vector<HistogramInterval> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    u64 evicted_ = 0;
    /// Previous cumulative snapshot (buckets + sum) for delta taking.
    std::vector<u64> prevBuckets_;
    double prevSum_ = 0.0;
};

/// A timeline annotation: a discrete event (e.g. an alert transition)
/// pinned to a simulated cycle, serialized with the dump and rendered
/// by the dashboard / explain tools.
struct Annotation
{
    double cycle = 0.0;
    std::string kind; ///< e.g. "alert"
    std::string name; ///< e.g. the alert rule's text form
    std::string text; ///< e.g. "pending -> firing"
    double value = 0.0;

    Json to_json() const;
    static Annotation from_json(const Json &j);
};

/// The TSDB: named value/histogram series plus annotations, with a
/// schema'd JSONL dump and a parse/load round trip. Single-writer by
/// design (see file comment); not thread-safe.
class Tsdb
{
  public:
    static constexpr int kSchemaVersion = 1;
    static constexpr const char *kSchemaName = "poseidon-tsdb";
    /// Largest ring a series may hold; bounds what a dump header can
    /// make parse_jsonl allocate per series.
    static constexpr std::size_t kMaxCapacity = std::size_t(1) << 16;

    /// `cadenceCycles` is a documentation stamp for the dump header
    /// (the owner drives the actual sampling); `capacity`, in
    /// [2, kMaxCapacity], bounds every series ring of this Tsdb.
    explicit Tsdb(double cadenceCycles = 0.0,
                  std::size_t capacity = 4096);

    double cadence_cycles() const { return cadenceCycles_; }
    std::size_t capacity() const { return capacity_; }

    /// Append one sample, creating the series on first use. Series
    /// keep their creation order in dumps, so a fixed recording order
    /// yields a fixed dump.
    void record(const std::string &series, double cycle, double value);

    /// Append one cumulative-histogram snapshot (delta is taken
    /// internally), creating the series on first use.
    void record_histogram(const std::string &series, double cycle,
                          const Histogram &cumulative);

    /**
     * Fold every counter and gauge of `reg` whose name starts with
     * one of `prefixes` (all when empty) into value series at `cycle`.
     * Deterministic only when the matched instruments are themselves
     * deterministic — see the file comment.
     */
    void sample_registry(const MetricsRegistry &reg, double cycle,
                         const std::vector<std::string> &prefixes = {});

    void annotate(Annotation a);

    const Series* find(const std::string &name) const;
    const HistogramSeries* find_histogram(const std::string &name) const;
    const std::vector<std::unique_ptr<Series>>& series() const
    {
        return series_;
    }
    const std::vector<std::unique_ptr<HistogramSeries>>&
    histogram_series() const
    {
        return histograms_;
    }
    const std::vector<Annotation>& annotations() const
    {
        return annotations_;
    }
    std::size_t series_count() const
    {
        return series_.size() + histograms_.size();
    }
    bool empty() const
    {
        return series_.empty() && histograms_.empty() &&
               annotations_.empty();
    }

    /// Header line + one compact JSON object per series/annotation.
    std::string to_jsonl() const;

    /// Parse a dump back (throws poseidon::ParseError on a malformed
    /// header, series line or annotation). to_jsonl() of the result
    /// equals the input byte-for-byte.
    static Tsdb parse_jsonl(const std::string &text);

    /// Read + parse_jsonl a file (throws ParseError, also on I/O).
    static Tsdb load_jsonl(const std::string &path);

  private:
    Series& series_ref(const std::string &name);

    double cadenceCycles_;
    std::size_t capacity_;
    std::vector<std::unique_ptr<Series>> series_;
    std::vector<std::unique_ptr<HistogramSeries>> histograms_;
    std::vector<Annotation> annotations_;
};

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_TIMESERIES_H_
