#include "serve/outcomes.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace poseidon::serve {

telemetry::Json
TenantStats::to_json() const
{
    using telemetry::Json;
    Json j = Json::object();
    j.set("submitted", Json(submitted));
    j.set("completed", Json(completed));
    j.set("failed", Json(failed));
    j.set("expired", Json(expired));
    j.set("shed", Json(shed));
    j.set("attained_cycles", Json(attainedCycles));
    j.set("p50_latency_cycles", Json(p50LatencyCycles));
    j.set("p99_latency_cycles", Json(p99LatencyCycles));
    return j;
}

void
OutcomeLedger::submit(const std::string &tenant)
{
    ++totals_.submitted;
    ++totals_.tenants[tenant].submitted;
}

void
OutcomeLedger::attain(const std::string &tenant, double cycles)
{
    totals_.tenants[tenant].attainedCycles += cycles;
}

void
OutcomeLedger::finish(const JobResult &r)
{
    TenantStats &t = totals_.tenants[r.tenant];
    switch (r.state) {
      case JobState::Completed:
        ++totals_.completed;
        ++t.completed;
        latencies_[r.tenant].push_back(r.latency_cycles());
        break;
      case JobState::Failed:
        ++totals_.failed;
        ++t.failed;
        break;
      case JobState::Expired:
        ++totals_.expired;
        ++t.expired;
        break;
      case JobState::Shed:
        ++totals_.shed;
        ++t.shed;
        break;
      case JobState::Queued:
        POSEIDON_CHECK(false, "job " << r.id
                                     << " finished in a non-terminal "
                                        "state");
    }
    totals_.horizonCycles = std::max(totals_.horizonCycles, r.finishCycle);
}

u64
OutcomeLedger::open() const
{
    return totals_.submitted - totals_.completed - totals_.failed -
           totals_.expired - totals_.shed;
}

void
OutcomeLedger::fill(Outcomes &out) const
{
    out = totals_;
    for (auto &[tenant, t] : out.tenants) {
        auto it = latencies_.find(tenant);
        if (it == latencies_.end()) continue;
        t.p50LatencyCycles = telemetry::exact_quantile(it->second, 0.50);
        t.p99LatencyCycles = telemetry::exact_quantile(it->second, 0.99);
    }
}

double
OutcomeLedger::latency_quantile(double q) const
{
    std::vector<double> all;
    for (const auto &kv : latencies_) {
        all.insert(all.end(), kv.second.begin(), kv.second.end());
    }
    return telemetry::exact_quantile(std::move(all), q);
}

} // namespace poseidon::serve
