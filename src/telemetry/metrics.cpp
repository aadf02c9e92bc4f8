#include "telemetry/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/metric_sink.h"

namespace poseidon::telemetry {

#ifndef POSEIDON_TELEMETRY_DISABLED
namespace {
std::atomic<bool> g_enabled{true};
} // namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}
#endif

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    POSEIDON_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
                     "Histogram: bucket bounds must be sorted");
    POSEIDON_REQUIRE(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
                     "Histogram: bucket bounds must be distinct");
}

Histogram::Histogram(std::vector<double> bounds,
                     const std::vector<std::uint64_t> &buckets,
                     double sum)
    : Histogram(std::move(bounds))
{
    POSEIDON_REQUIRE(buckets.size() == buckets_.size(),
                     "Histogram::from_buckets: " << buckets.size()
                     << " bucket counts, bounds imply "
                     << buckets_.size());
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        buckets_[i].store(buckets[i], std::memory_order_relaxed);
        n += buckets[i];
    }
    count_.store(n, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
}

Histogram
Histogram::from_buckets(std::vector<double> bounds,
                        const std::vector<std::uint64_t> &buckets,
                        double sum)
{
    return Histogram(std::move(bounds), buckets, sum);
}

void
Histogram::observe(double v)
{
    std::size_t i =
        static_cast<std::size_t>(std::lower_bound(bounds_.begin(),
                                                  bounds_.end(), v) -
                                 bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

void
Histogram::merge(const Histogram &other)
{
    POSEIDON_REQUIRE(other.bounds_ == bounds_,
                     "Histogram::merge: bucket bounds differ");
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        std::uint64_t add =
            other.buckets_[i].load(std::memory_order_relaxed);
        if (add != 0) {
            buckets_[i].fetch_add(add, std::memory_order_relaxed);
        }
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucket_count(std::size_t i) const
{
    POSEIDON_REQUIRE(i < buckets_.size(), "Histogram: bucket " << i
                     << " out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    POSEIDON_REQUIRE(q >= 0.0 && q <= 1.0,
                     "Histogram::quantile: q = " << q
                                                 << " outside [0, 1]");
    std::uint64_t n = count();
    if (n == 0) return std::numeric_limits<double>::quiet_NaN();
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        std::uint64_t inBucket = bucket_count(i);
        if (cum + inBucket >= rank) {
            double lo = i == 0 ? 0.0 : bounds_[i - 1];
            double hi = bounds_[i];
            double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(inBucket);
            return lo + (hi - lo) * frac;
        }
        cum += inBucket;
    }
    // Overflow bucket: no upper bound to interpolate toward.
    return bounds_.empty() ? 0.0 : bounds_.back();
}

const std::vector<double>&
default_latency_bounds_us()
{
    static const std::vector<double> kBounds = {
        1,    2,    5,    10,   20,   50,   100,   200,   500,
        1e3,  2e3,  5e3,  1e4,  2e4,  5e4,  1e5,   2e5,   5e5,
        1e6,  2e6,  5e6,  1e7,
    };
    return kBounds;
}

double
exact_quantile(std::vector<double> sample, double q)
{
    POSEIDON_REQUIRE(q >= 0.0 && q <= 1.0,
                     "exact_quantile: q = " << q << " outside [0, 1]");
    if (sample.empty()) return 0.0;
    std::sort(sample.begin(), sample.end());
    std::size_t n = sample.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return sample[rank - 1];
}

namespace {

/// Registry generations come from one process-wide sequence (starting
/// at 1), so no two registries, and no registry before and after a
/// reset, ever share one.
std::uint64_t
next_generation()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

MetricsRegistry::MetricsRegistry() : generation_(next_generation()) {}

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry *reg = new MetricsRegistry();
    return *reg;
}

#ifndef POSEIDON_TELEMETRY_DISABLED
namespace {

/// Bridge the common-layer MetricSink (see common/metric_sink.h) into
/// the global registry so the parallel engine and NTT table cache show
/// up in the normal metrics export. Installed once at library load.
void
emit_to_registry(MetricKind kind, MetricHandle &h, const char *prefix,
                 const char *name, double v)
{
    if (!enabled()) return;
    MetricsRegistry &reg = MetricsRegistry::global();
    std::uint64_t g = reg.generation();
    if (h.generation != g) {
        std::string full = std::string(prefix) + name;
        switch (kind) {
          case MetricKind::Counter: h.instrument = &reg.counter(full); break;
          case MetricKind::Gauge: h.instrument = &reg.gauge(full); break;
          case MetricKind::Histogram:
            h.instrument = &reg.histogram(full);
            break;
        }
        h.generation = g;
    }
    switch (kind) {
      case MetricKind::Counter:
        static_cast<Counter *>(h.instrument)->add(v);
        break;
      case MetricKind::Gauge:
        static_cast<Gauge *>(h.instrument)->set(v);
        break;
      case MetricKind::Histogram:
        static_cast<Histogram *>(h.instrument)->observe(v);
        break;
    }
}

bool
install_registry_sink()
{
    MetricSink sink;
    sink.emit = emit_to_registry;
    install_metric_sink(sink);
    return true;
}

const bool g_sinkInstalled = install_registry_sink();

} // namespace
#endif

namespace {

template <typename T>
T*
find(std::vector<std::pair<std::string, std::unique_ptr<T>>> &v,
     const std::string &name)
{
    for (auto &kv : v) {
        if (kv.first == name) return kv.second.get();
    }
    return nullptr;
}

} // namespace

Counter&
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (Counter *c = find(counters_, name)) return *c;
    counters_.emplace_back(name, std::make_unique<Counter>());
    return *counters_.back().second;
}

Gauge&
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (Gauge *g = find(gauges_, name)) return *g;
    gauges_.emplace_back(name, std::make_unique<Gauge>());
    return *gauges_.back().second;
}

Histogram&
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (Histogram *h = find(histograms_, name)) return *h;
    histograms_.emplace_back(name, std::make_unique<Histogram>(bounds));
    return *histograms_.back().second;
}

double
MetricsRegistry::counter_value(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &kv : counters_) {
        if (kv.first == name) return kv.second->value();
    }
    return 0.0;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    generation_.store(next_generation(), std::memory_order_release);
}

namespace {

/// "sim.kind_cycles.MM" -> "poseidon_sim_kind_cycles_MM".
std::string
prom_name(const std::string &name)
{
    std::string out = "poseidon_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
prom_value(double v)
{
    Json j(v);
    return j.dump();
}

} // namespace

std::string
MetricsRegistry::prometheus_text() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (const auto &kv : counters_) {
        std::string n = prom_name(kv.first);
        out += "# TYPE " + n + " counter\n";
        out += n + " " + prom_value(kv.second->value()) + "\n";
    }
    for (const auto &kv : gauges_) {
        std::string n = prom_name(kv.first);
        out += "# TYPE " + n + " gauge\n";
        out += n + " " + prom_value(kv.second->value()) + "\n";
    }
    for (const auto &kv : histograms_) {
        const Histogram &h = *kv.second;
        std::string n = prom_name(kv.first);
        out += "# TYPE " + n + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cum += h.bucket_count(i);
            out += n + "_bucket{le=\"" + prom_value(h.bounds()[i]) +
                   "\"} " + std::to_string(cum) + "\n";
        }
        out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) +
               "\n";
        out += n + "_sum " + prom_value(h.sum()) + "\n";
        out += n + "_count " + std::to_string(h.count()) + "\n";
    }
    return out;
}

Json
MetricsRegistry::to_json() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Json counters = Json::object();
    for (const auto &kv : counters_) {
        counters.set(kv.first, Json(kv.second->value()));
    }
    Json gauges = Json::object();
    for (const auto &kv : gauges_) {
        gauges.set(kv.first, Json(kv.second->value()));
    }
    Json histograms = Json::object();
    for (const auto &kv : histograms_) {
        const Histogram &h = *kv.second;
        Json buckets = Json::array();
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            Json b = Json::object();
            b.set("le", Json(h.bounds()[i]));
            b.set("count", Json(static_cast<double>(h.bucket_count(i))));
            buckets.push_back(std::move(b));
        }
        Json b = Json::object();
        b.set("le", Json("+Inf"));
        b.set("count",
              Json(static_cast<double>(
                  h.bucket_count(h.bounds().size()))));
        buckets.push_back(std::move(b));
        Json hj = Json::object();
        hj.set("buckets", std::move(buckets));
        hj.set("sum", Json(h.sum()));
        hj.set("count", Json(static_cast<double>(h.count())));
        histograms.set(kv.first, std::move(hj));
    }
    Json root = Json::object();
    root.set("counters", std::move(counters));
    root.set("gauges", std::move(gauges));
    root.set("histograms", std::move(histograms));
    return root;
}

ScopedLatency::ScopedLatency(const char *histName)
    : name_(histName), live_(enabled())
{
    if (live_) {
        startNs_ = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
}

ScopedLatency::~ScopedLatency()
{
    if (!live_ || !enabled()) return;
    std::uint64_t endNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    MetricsRegistry::global().histogram(name_).observe(
        static_cast<double>(endNs - startNs_) / 1e3);
}

} // namespace poseidon::telemetry
