#include "telemetry/bench_diff.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace poseidon::telemetry {

namespace {

/// Fetch a top-level number; NaN when absent or non-numeric.
double
number_or_nan(const Json &doc, const std::string &key)
{
    if (!doc.is_object() || !doc.contains(key) ||
        !doc.at(key).is_number()) {
        return std::nan("");
    }
    return doc.at(key).as_number();
}

std::string
string_or(const Json &doc, const std::string &key,
          const std::string &fallback)
{
    if (!doc.is_object() || !doc.contains(key) ||
        !doc.at(key).is_string()) {
        return fallback;
    }
    return doc.at(key).as_string();
}

MetricDelta
compare_value(const std::string &key, double base, double cur,
              const BenchDiffOptions &opt)
{
    MetricDelta d;
    d.key = key;
    d.baseline = base;
    d.current = cur;
    d.tolerance = opt.tolerance_for(key);
    double denom = std::max(std::fabs(base), 1.0);
    d.relDelta = (cur - base) / denom;
    d.regression = !std::isfinite(cur) ||
                   std::fabs(d.relDelta) > d.tolerance;
    return d;
}

} // namespace

bool
BenchDiffResult::regressed() const
{
    return !comparable || regression_count() > 0;
}

std::size_t
BenchDiffResult::regression_count() const
{
    std::size_t n = 0;
    for (const MetricDelta &d : deltas) n += d.regression ? 1 : 0;
    return n;
}

BenchDiffResult
diff_bench(const Json &baseline, const Json &current,
           const BenchDiffOptions &opt)
{
    BenchDiffResult r;
    r.name = string_or(current, "name", "?");

    if (!baseline.is_object() || !current.is_object()) {
        r.comparable = false;
        r.incomparableReason = "document is not a JSON object";
        return r;
    }
    std::string baseName = string_or(baseline, "name", "?");
    if (baseName != r.name) {
        r.comparable = false;
        r.incomparableReason = "bench name mismatch: baseline \"" +
                               baseName + "\" vs current \"" + r.name +
                               "\"";
        return r;
    }
    // The stamps: refuse to diff across machine shapes, or against a
    // document that does not say which shape it priced.
    for (const char *key : {"hw_config", "threads"}) {
        if (!baseline.contains(key) || !current.contains(key)) {
            r.comparable = false;
            r.incomparableReason =
                std::string("unstamped document refused: no ") + key;
            return r;
        }
        std::string b = baseline.at(key).is_string()
                            ? baseline.at(key).as_string()
                            : baseline.at(key).dump();
        std::string c = current.at(key).is_string()
                            ? current.at(key).as_string()
                            : current.at(key).dump();
        if (b != c) {
            r.comparable = false;
            r.incomparableReason = std::string("cross-config diff "
                                               "refused: ") +
                                   key + " \"" + b + "\" vs \"" + c +
                                   "\"";
            return r;
        }
    }

    for (const char *key : {"cycles", "seconds", "bandwidth_util"}) {
        double base = number_or_nan(baseline, key);
        double cur = number_or_nan(current, key);
        if (std::isnan(base) && std::isnan(cur)) continue;
        if (std::isnan(base)) continue; // new in current: not gated
        MetricDelta d = compare_value(key, base, cur, opt);
        if (std::isnan(cur)) {
            d.missing = true;
            d.regression = true;
        }
        r.deltas.push_back(d);
    }

    const Json empty = Json::object();
    const Json &baseMetrics =
        baseline.contains("metrics") && baseline.at("metrics").is_object()
            ? baseline.at("metrics")
            : empty;
    const Json &curMetrics =
        current.contains("metrics") && current.at("metrics").is_object()
            ? current.at("metrics")
            : empty;

    for (const auto &kv : baseMetrics.items()) {
        std::string key = "metrics." + kv.first;
        if (!kv.second.is_number()) continue;
        if (!curMetrics.contains(kv.first) ||
            !curMetrics.at(kv.first).is_number()) {
            MetricDelta d;
            d.key = key;
            d.baseline = kv.second.as_number();
            d.current = std::nan("");
            d.tolerance = opt.tolerance_for(key);
            d.missing = true;
            d.regression = true;
            r.deltas.push_back(d);
            continue;
        }
        r.deltas.push_back(compare_value(
            key, kv.second.as_number(),
            curMetrics.at(kv.first).as_number(), opt));
    }
    for (const auto &kv : curMetrics.items()) {
        if (baseMetrics.contains(kv.first)) continue;
        MetricDelta d;
        d.key = "metrics." + kv.first;
        d.baseline = std::nan("");
        d.current = kv.second.is_number() ? kv.second.as_number()
                                          : std::nan("");
        d.added = true;
        r.deltas.push_back(d);
    }
    return r;
}

std::string
format_diff(const BenchDiffResult &r)
{
    std::ostringstream os;
    if (!r.comparable) {
        os << r.name << ": INCOMPARABLE: " << r.incomparableReason
           << "\n";
        return os.str();
    }
    std::size_t added = 0, compared = 0;
    for (const MetricDelta &d : r.deltas) {
        if (d.added) {
            ++added;
            continue;
        }
        ++compared;
        if (!d.regression) continue;
        if (d.missing) {
            os << r.name << ": REGRESSION: " << d.key
               << " missing from current run (baseline " << d.baseline
               << ")\n";
        } else {
            os << r.name << ": REGRESSION: " << d.key << " "
               << d.baseline << " -> " << d.current << " ("
               << (d.relDelta >= 0 ? "+" : "") << d.relDelta * 100.0
               << "%, tolerance " << d.tolerance * 100.0 << "%)\n";
        }
    }
    if (r.regression_count() == 0) {
        os << r.name << ": ok (" << compared << " values within "
           << "tolerance";
        if (added > 0) os << ", " << added << " new";
        os << ")\n";
    }
    return os.str();
}

} // namespace poseidon::telemetry
