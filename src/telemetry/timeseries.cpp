#include "telemetry/timeseries.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::telemetry {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const JsonlSchema kDocument{Tsdb::kSchemaName,
                            Tsdb::kSchemaVersion,
                            "TSDB",
                            {"series", "annotations"}};

} // namespace

// ---------------------------------------------------------------- Series

Series::Series(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    POSEIDON_REQUIRE(capacity_ >= 2,
                     "Series \"" << name_
                     << "\": capacity must be >= 2 (rates need two "
                        "samples)");
    ring_.resize(capacity_);
}

void
Series::push(double cycle, double value)
{
    POSEIDON_REQUIRE(std::isfinite(cycle),
                     "Series \"" << name_
                     << "\": non-finite sample cycle");
    POSEIDON_REQUIRE(size_ == 0 || cycle >= latest().cycle,
                     "Series \"" << name_ << "\": sample at cycle "
                     << cycle << " runs backwards (latest "
                     << latest().cycle << ")");
    if (size_ == capacity_) {
        ring_[head_] = Sample{cycle, value};
        head_ = (head_ + 1) % capacity_;
        ++evicted_;
        return;
    }
    ring_[ring_index(size_)] = Sample{cycle, value};
    ++size_;
}

const Sample&
Series::at(std::size_t i) const
{
    POSEIDON_REQUIRE(i < size_, "Series \"" << name_ << "\": sample "
                     << i << " out of range (size " << size_ << ")");
    return ring_[ring_index(i)];
}

const Sample&
Series::latest() const
{
    return at(size_ - 1);
}

double
Series::delta(double windowCycles) const
{
    if (size_ < 2) return kNaN;
    const Sample &end = latest();
    double startCycle = end.cycle - windowCycles;
    // The newest sample at or before the window start; the oldest
    // retained sample when eviction ate the boundary.
    const Sample *start = &at(0);
    for (std::size_t i = 1; i < size_; ++i) {
        if (at(i).cycle > startCycle) break;
        start = &at(i);
    }
    if (start == &end) return kNaN;
    return end.value - start->value;
}

double
Series::rate(double windowCycles) const
{
    if (size_ < 2) return kNaN;
    const Sample &end = latest();
    double startCycle = end.cycle - windowCycles;
    const Sample *start = &at(0);
    for (std::size_t i = 1; i < size_; ++i) {
        if (at(i).cycle > startCycle) break;
        start = &at(i);
    }
    double dt = end.cycle - start->cycle;
    if (dt <= 0.0) return kNaN;
    return (end.value - start->value) / dt;
}

double
Series::ewma(double alpha) const
{
    POSEIDON_REQUIRE(alpha > 0.0 && alpha <= 1.0,
                     "Series \"" << name_ << "\": EWMA alpha "
                     << alpha << " outside (0, 1]");
    if (size_ == 0) return kNaN;
    double e = at(0).value;
    for (std::size_t i = 1; i < size_; ++i) {
        e = alpha * at(i).value + (1.0 - alpha) * e;
    }
    return e;
}

WindowStats
Series::window_stats(double windowCycles) const
{
    WindowStats w;
    if (size_ == 0) return w;
    double startCycle = latest().cycle - windowCycles;
    double sum = 0.0;
    for (std::size_t i = 0; i < size_; ++i) {
        const Sample &s = at(i);
        if (s.cycle <= startCycle) continue;
        ++w.count;
        w.min = std::min(w.min, s.value);
        w.max = std::max(w.max, s.value);
        sum += s.value;
    }
    if (w.count > 0) w.mean = sum / static_cast<double>(w.count);
    return w;
}

// ------------------------------------------------------- HistogramSeries

HistogramSeries::HistogramSeries(std::string name,
                                 std::vector<double> bounds,
                                 std::size_t capacity)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      capacity_(capacity),
      prevBuckets_(bounds_.size() + 1, 0)
{
    POSEIDON_REQUIRE(capacity_ >= 1, "HistogramSeries \"" << name_
                     << "\": zero capacity");
    ring_.resize(capacity_);
}

void
HistogramSeries::push(double cycle, const Histogram &cumulative)
{
    POSEIDON_REQUIRE(cumulative.bounds() == bounds_,
                     "HistogramSeries \"" << name_
                     << "\": bucket bounds changed between samples");
    HistogramInterval iv;
    iv.cycle = cycle;
    iv.buckets.resize(bounds_.size() + 1);
    double sum = cumulative.sum();
    for (std::size_t i = 0; i < iv.buckets.size(); ++i) {
        u64 cum = cumulative.bucket_count(i);
        POSEIDON_REQUIRE(cum >= prevBuckets_[i],
                         "HistogramSeries \"" << name_
                         << "\": cumulative bucket " << i
                         << " ran backwards");
        iv.buckets[i] = cum - prevBuckets_[i];
        prevBuckets_[i] = cum;
    }
    iv.sum = sum - prevSum_;
    prevSum_ = sum;
    push_interval(std::move(iv));
}

void
HistogramSeries::push_interval(HistogramInterval iv)
{
    POSEIDON_REQUIRE(iv.buckets.size() == bounds_.size() + 1,
                     "HistogramSeries \"" << name_
                     << "\": interval has " << iv.buckets.size()
                     << " buckets, bounds imply "
                     << bounds_.size() + 1);
    POSEIDON_REQUIRE(size_ == 0 || iv.cycle >= latest().cycle,
                     "HistogramSeries \"" << name_
                     << "\": interval at cycle " << iv.cycle
                     << " runs backwards");
    if (size_ == capacity_) {
        ring_[head_] = std::move(iv);
        head_ = (head_ + 1) % capacity_;
        ++evicted_;
        return;
    }
    ring_[ring_index(size_)] = std::move(iv);
    ++size_;
}

const HistogramInterval&
HistogramSeries::at(std::size_t i) const
{
    POSEIDON_REQUIRE(i < size_, "HistogramSeries \"" << name_
                     << "\": interval " << i << " out of range (size "
                     << size_ << ")");
    return ring_[ring_index(i)];
}

const HistogramInterval&
HistogramSeries::latest() const
{
    return at(size_ - 1);
}

double
HistogramSeries::window_quantile(double windowCycles, double q,
                                 double endCycle) const
{
    if (size_ == 0) return kNaN;
    double startCycle = endCycle - windowCycles;
    Histogram window(bounds_);
    for (std::size_t i = 0; i < size_; ++i) {
        const HistogramInterval &iv = at(i);
        if (iv.cycle <= startCycle || iv.cycle > endCycle) continue;
        window.merge(
            Histogram::from_buckets(bounds_, iv.buckets, iv.sum));
    }
    return window.quantile(q);
}

double
HistogramSeries::window_quantile(double windowCycles, double q) const
{
    if (size_ == 0) return kNaN;
    return window_quantile(windowCycles, q, latest().cycle);
}

// ------------------------------------------------------------ Annotation

Json
Annotation::to_json() const
{
    Json j = Json::object();
    j.set("annotation", Json(kind));
    j.set("cycle", Json(cycle));
    j.set("name", Json(name));
    j.set("text", Json(text));
    if (value != 0.0) j.set("value", Json(value));
    return j;
}

Annotation
Annotation::from_json(const Json &j)
{
    POSEIDON_REQUIRE_T(ParseError,
                       j.is_object() && j.contains("annotation") &&
                           j.contains("cycle") && j.contains("name") &&
                           j.contains("text"),
                       "TSDB annotation misses "
                       "annotation/cycle/name/text");
    Annotation a;
    a.kind = j.at("annotation").as_string();
    a.cycle = j.at("cycle").as_number();
    a.name = j.at("name").as_string();
    a.text = j.at("text").as_string();
    if (j.contains("value")) a.value = j.at("value").as_number();
    return a;
}

// ------------------------------------------------------------------ Tsdb

Tsdb::Tsdb(double cadenceCycles, std::size_t capacity)
    : cadenceCycles_(cadenceCycles), capacity_(capacity)
{
    POSEIDON_REQUIRE(cadenceCycles_ >= 0.0 &&
                         std::isfinite(cadenceCycles_),
                     "Tsdb: negative or non-finite sample cadence");
    POSEIDON_REQUIRE(capacity_ >= 2 && capacity_ <= kMaxCapacity,
                     "Tsdb: capacity must be in [2, " << kMaxCapacity
                     << "]");
}

Series&
Tsdb::series_ref(const std::string &name)
{
    for (auto &s : series_) {
        if (s->name() == name) return *s;
    }
    series_.push_back(std::make_unique<Series>(name, capacity_));
    return *series_.back();
}

void
Tsdb::record(const std::string &series, double cycle, double value)
{
    series_ref(series).push(cycle, value);
}

void
Tsdb::record_histogram(const std::string &series, double cycle,
                       const Histogram &cumulative)
{
    for (auto &h : histograms_) {
        if (h->name() == series) {
            h->push(cycle, cumulative);
            return;
        }
    }
    histograms_.push_back(std::make_unique<HistogramSeries>(
        series, cumulative.bounds(), capacity_));
    histograms_.back()->push(cycle, cumulative);
}

void
Tsdb::sample_registry(const MetricsRegistry &reg, double cycle,
                      const std::vector<std::string> &prefixes)
{
    auto matches = [&prefixes](const std::string &name) {
        if (prefixes.empty()) return true;
        for (const std::string &p : prefixes) {
            if (name.compare(0, p.size(), p) == 0) return true;
        }
        return false;
    };
    Json snap = reg.to_json();
    for (const char *section : {"counters", "gauges"}) {
        for (const auto &kv : snap.at(section).items()) {
            if (!matches(kv.first)) continue;
            record(kv.first, cycle, kv.second.as_number());
        }
    }
}

void
Tsdb::annotate(Annotation a)
{
    POSEIDON_REQUIRE(std::isfinite(a.cycle),
                     "Tsdb::annotate: non-finite cycle");
    annotations_.push_back(std::move(a));
}

const Series*
Tsdb::find(const std::string &name) const
{
    for (const auto &s : series_) {
        if (s->name() == name) return s.get();
    }
    return nullptr;
}

const HistogramSeries*
Tsdb::find_histogram(const std::string &name) const
{
    for (const auto &h : histograms_) {
        if (h->name() == name) return h.get();
    }
    return nullptr;
}

std::string
Tsdb::to_jsonl() const
{
    Json header = jsonl_header(kDocument);
    header.set("cadence_cycles", Json(cadenceCycles_));
    header.set("capacity", Json(static_cast<u64>(capacity_)));
    header.set("series", Json(static_cast<u64>(series_count())));
    header.set("annotations",
               Json(static_cast<u64>(annotations_.size())));
    JsonlWriter out(header);
    for (const auto &s : series_) {
        Json j = Json::object();
        j.set("series", Json(s->name()));
        j.set("kind", Json("value"));
        j.set("evicted", Json(s->evicted()));
        Json samples = Json::array();
        for (std::size_t i = 0; i < s->size(); ++i) {
            const Sample &sm = s->at(i);
            Json pair = Json::array();
            pair.push_back(Json(sm.cycle));
            pair.push_back(Json(sm.value));
            samples.push_back(std::move(pair));
        }
        j.set("samples", std::move(samples));
        out.line(j);
    }
    for (const auto &h : histograms_) {
        Json j = Json::object();
        j.set("series", Json(h->name()));
        j.set("kind", Json("histogram"));
        Json bounds = Json::array();
        for (double b : h->bounds()) bounds.push_back(Json(b));
        j.set("bounds", std::move(bounds));
        j.set("evicted", Json(h->evicted()));
        Json samples = Json::array();
        for (std::size_t i = 0; i < h->size(); ++i) {
            const HistogramInterval &iv = h->at(i);
            Json one = Json::array();
            one.push_back(Json(iv.cycle));
            Json buckets = Json::array();
            for (u64 b : iv.buckets) buckets.push_back(Json(b));
            one.push_back(std::move(buckets));
            one.push_back(Json(iv.sum));
            samples.push_back(std::move(one));
        }
        j.set("samples", std::move(samples));
        out.line(j);
    }
    for (const Annotation &a : annotations_) out.line(a.to_json());
    return out.take();
}

Tsdb
Tsdb::parse_jsonl(const std::string &text)
{
    Tsdb db;
    auto header = [&db](const Json &h) {
        db.cadenceCycles_ = h.at("cadence_cycles").as_number();
        db.capacity_ = static_cast<std::size_t>(json_int(
            h.at("capacity"), "capacity", 2, kMaxCapacity));
    };
    auto line = [&db](const Json &j) -> std::size_t {
        POSEIDON_REQUIRE_T(ParseError, j.is_object(),
                           "line is not a JSON object");
        if (j.contains("annotation")) {
            db.annotations_.push_back(Annotation::from_json(j));
            return 1; // an "annotations" line
        }
        POSEIDON_REQUIRE_T(ParseError,
                           j.contains("series") && j.contains("kind") &&
                               j.contains("evicted") &&
                               j.contains("samples"),
                           "series line misses "
                           "series/kind/evicted/samples");
        const std::string &name = j.at("series").as_string();
        const std::string &kind = j.at("kind").as_string();
        u64 evicted = json_int(j.at("evicted"), "evicted");
        const Json &samples = j.at("samples");
        if (kind == "value") {
            auto s = std::make_unique<Series>(name, db.capacity_);
            for (std::size_t i = 0; i < samples.size(); ++i) {
                const Json &pair = samples.at(i);
                POSEIDON_REQUIRE_T(ParseError, pair.size() == 2,
                                   "value sample is not a "
                                   "[cycle, value] pair");
                s->push(pair.at(std::size_t(0)).as_number(),
                        pair.at(std::size_t(1)).as_number());
            }
            s->evicted_ = evicted;
            db.series_.push_back(std::move(s));
        } else if (kind == "histogram") {
            std::vector<double> bounds;
            const Json &jb = j.at("bounds");
            for (std::size_t i = 0; i < jb.size(); ++i) {
                bounds.push_back(jb.at(i).as_number());
            }
            auto h = std::make_unique<HistogramSeries>(
                name, std::move(bounds), db.capacity_);
            for (std::size_t i = 0; i < samples.size(); ++i) {
                const Json &one = samples.at(i);
                POSEIDON_REQUIRE_T(ParseError, one.size() == 3,
                                   "histogram sample is not a "
                                   "[cycle, buckets, sum] triple");
                HistogramInterval iv;
                iv.cycle = one.at(std::size_t(0)).as_number();
                const Json &bk = one.at(std::size_t(1));
                for (std::size_t b = 0; b < bk.size(); ++b) {
                    iv.buckets.push_back(json_int(bk.at(b), "bucket"));
                }
                iv.sum = one.at(std::size_t(2)).as_number();
                h->push_interval(std::move(iv));
            }
            h->evicted_ = evicted;
            db.histograms_.push_back(std::move(h));
        } else {
            POSEIDON_THROW(ParseError,
                           "unknown series kind \"" << kind << "\"");
        }
        return 0; // a "series" line
    };
    read_jsonl(text, kDocument, header, line);
    return db;
}

Tsdb
Tsdb::load_jsonl(const std::string &path)
{
    return parse_jsonl(read_text_file(path, "TSDB"));
}

} // namespace poseidon::telemetry
