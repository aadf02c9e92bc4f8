#include "serve/latency_breakdown.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::serve {

namespace {

/// Two-sum: s = fl(a + b), *err = the exact rounding error, so
/// a + b == s + *err as real numbers (Knuth's branch-free EFT).
inline double
two_sum(double a, double b, double &err)
{
    double s = a + b;
    double bv = s - a;
    err = (a - (s - bv)) + (b - bv);
    return s;
}

/**
 * Error-free accumulator: a list of components whose *exact* real sum
 * equals everything ever add()ed. add() grows the expansion with
 * two-sum, which never loses a bit; value() distills the components
 * with repeated error-free passes and returns the (faithfully
 * rounded) sum — exactly representable sums (0.0 in particular) come
 * back bit-exact.
 */
class ExactSum
{
  public:
    void add(double x)
    {
        if (x == 0.0) return;
        double q = x;
        std::size_t out = 0;
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            double err;
            q = two_sum(q, comps_[i], err);
            if (err != 0.0) comps_[out++] = err;
        }
        comps_.resize(out);
        if (q != 0.0) comps_.push_back(q);
    }

    /// Accumulate the exact real difference a - b (two-sum of a, -b).
    void add_diff(double a, double b)
    {
        double err;
        double d = two_sum(a, -b, err);
        add(d);
        add(err);
    }

    const std::vector<double>& components() const { return comps_; }

    double value() const { return distill(comps_); }

    static double distill(std::vector<double> v)
    {
        for (int pass = 0; pass < 64 && v.size() > 1; ++pass) {
            std::vector<double> next;
            double q = 0.0;
            bool exact = true;
            for (double x : v) {
                double err;
                q = two_sum(q, x, err);
                if (err != 0.0) {
                    next.push_back(err);
                    exact = false;
                }
            }
            if (exact) return q; // the pass lost nothing: q is exact
            next.push_back(q);
            v = std::move(next);
        }
        double q = 0.0;
        for (double x : v) q += x;
        return q;
    }

  private:
    std::vector<double> comps_;
};

/// Walk state while replaying one job's event stream.
struct Walk
{
    JobBreakdown jb;
    ExactSum phase[kPhaseCount];
    double prevCycle = 0.0;
    double marker = 0.0; ///< fl(prevCycle - firstArrival)
    bool started = false;
    bool terminal = false;
    AttemptSpan open;
    bool openAttempt = false;
};

void
advance(Walk &w, Phase p, double cycle)
{
    POSEIDON_CHECK(cycle >= w.prevCycle,
                   "journal for job " << w.jb.id
                       << " runs backwards: cycle " << cycle
                       << " after " << w.prevCycle);
    double m2 = cycle - w.jb.firstArrivalCycle;
    w.phase[static_cast<std::size_t>(p)].add_diff(m2, w.marker);
    w.marker = m2;
    w.prevCycle = cycle;
}

JobState
terminal_state(JournalEventKind k)
{
    switch (k) {
      case JournalEventKind::Completed: return JobState::Completed;
      case JournalEventKind::Failed: return JobState::Failed;
      case JournalEventKind::Expired: return JobState::Expired;
      case JournalEventKind::Shed: return JobState::Shed;
      default: return JobState::Queued;
    }
}

std::string
format_cycles(double cycles)
{
    std::ostringstream os;
    os << cycles;
    return os.str();
}

} // namespace

const char*
to_string(Phase p)
{
    switch (p) {
      case Phase::QueueWait: return "queue_wait";
      case Phase::BatchDelay: return "batch_delay";
      case Phase::Backoff: return "backoff";
      case Phase::RetryOverhead: return "retry_overhead";
      case Phase::Execution: return "execution";
    }
    return "?";
}

double
JobBreakdown::phase_sum() const
{
    std::vector<double> all;
    for (const std::vector<double> &comps : phaseExact) {
        all.insert(all.end(), comps.begin(), comps.end());
    }
    return ExactSum::distill(std::move(all));
}

BreakdownReport
decompose(const Journal &journal)
{
    BreakdownReport report;
    report.clockGHz = journal.clock_ghz();
    report.cards = journal.cards();

    std::map<JobId, Walk> walks;
    for (const JournalEvent &ev : journal.events()) {
        if (ev.job == 0) continue; // fleet-level (probe) events
        Walk &w = walks[ev.job];
        POSEIDON_CHECK(!w.terminal,
                       "journal event after terminal state for job "
                           << ev.job);
        if (!w.started) {
            w.started = true;
            w.jb.id = ev.job;
            w.jb.firstArrivalCycle = ev.cycle;
            w.jb.lastArrivalCycle = ev.cycle;
            w.prevCycle = ev.cycle;
            w.marker = 0.0;
        }
        switch (ev.kind) {
          case JournalEventKind::Submitted:
            w.jb.tenant = ev.tenant;
            w.jb.name = ev.name;
            w.jb.priority = ev.priority;
            break;
          case JournalEventKind::Admitted:
          case JournalEventKind::BatchFormed:
          case JournalEventKind::FaultRetry:
          case JournalEventKind::BackoffScheduled:
          case JournalEventKind::ProbeInteraction:
          case JournalEventKind::AlertTransition:
            break; // zero-width for the walk
          case JournalEventKind::Enqueued:
            // A retry requeue closes the backoff window that opened
            // at the failed attempt's end; the first enqueue sits at
            // the walk origin.
            if (ev.attempt > 0) {
                advance(w, Phase::Backoff, ev.cycle);
            }
            w.jb.lastArrivalCycle = ev.cycle;
            break;
          case JournalEventKind::Dispatched:
            advance(w, Phase::QueueWait, ev.cycle);
            w.open = AttemptSpan{};
            w.open.card = ev.card;
            w.open.attempt = ev.attempt;
            w.open.dispatchCycle = ev.cycle;
            w.openAttempt = true;
            w.jb.card = ev.card;
            break;
          case JournalEventKind::AttemptStart:
            advance(w, Phase::BatchDelay, ev.cycle);
            if (w.openAttempt) w.open.startCycle = ev.cycle;
            break;
          case JournalEventKind::AttemptEnd:
            advance(w,
                    ev.failed ? Phase::RetryOverhead
                              : Phase::Execution,
                    ev.cycle);
            if (w.openAttempt) {
                w.open.endCycle = ev.cycle;
                w.open.failed = ev.failed;
                w.jb.attemptSpans.push_back(w.open);
                w.openAttempt = false;
            }
            break;
          case JournalEventKind::Completed:
          case JournalEventKind::Failed:
          case JournalEventKind::Expired:
          case JournalEventKind::Shed:
            // Zero-width after an AttemptEnd; the final queue wait of
            // a job that expired or was shed while waiting.
            advance(w, Phase::QueueWait, ev.cycle);
            w.jb.state = terminal_state(ev.kind);
            w.jb.finishCycle = ev.cycle;
            w.jb.attempts = ev.attempt;
            if (!ev.tenant.empty()) w.jb.tenant = ev.tenant;
            if (!ev.name.empty()) w.jb.name = ev.name;
            if (ev.card != JournalEvent::kNoCard) w.jb.card = ev.card;
            w.terminal = true;
            break;
        }
    }

    std::map<std::string, std::vector<double>> tenantLatencies;
    std::map<int, std::vector<double>> prioLatencies;
    for (auto &[id, w] : walks) {
        POSEIDON_CHECK(w.terminal, "journal job "
                                       << id
                                       << " never reached a terminal "
                                          "state (journal not drained?)");
        JobBreakdown &jb = w.jb;
        jb.endToEndCycles = jb.finishCycle - jb.firstArrivalCycle;
        jb.reportedLatencyCycles = jb.finishCycle - jb.lastArrivalCycle;
        // The gapless walk must land exactly on the end-to-end value:
        // the final marker is fl(finish - firstArrival) by the same
        // expression, so inequality means a missing terminal or an
        // out-of-order stream.
        POSEIDON_CHECK(w.marker == jb.endToEndCycles,
                       "walk for job " << id << " ended at marker "
                                       << w.marker
                                       << ", not end-to-end "
                                       << jb.endToEndCycles);
        // Conservation: the exact sum of every phase component minus
        // the end-to-end latency distills to literal zero. This goes
        // through the per-phase attribution, so a dropped or
        // double-attributed interval fails here.
        ExactSum residual;
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            for (double c : w.phase[p].components()) residual.add(c);
            jb.phaseCycles[p] = w.phase[p].value();
            jb.phaseExact[p] = w.phase[p].components();
        }
        residual.add(-jb.endToEndCycles);
        double slack = residual.value();
        POSEIDON_CHECK(slack == 0.0,
                       "phase conservation violated for job "
                           << id << ": residual " << slack
                           << " cycles");

        PhaseAccum *accums[2] = {&report.tenants[jb.tenant],
                                 &report.priorities[jb.priority]};
        for (PhaseAccum *acc : accums) {
            ++acc->jobs;
            switch (jb.state) {
              case JobState::Completed: ++acc->completed; break;
              case JobState::Failed: ++acc->failed; break;
              case JobState::Expired: ++acc->expired; break;
              case JobState::Shed: ++acc->shed; break;
              case JobState::Queued: break; // unreachable (terminal)
            }
            acc->endToEndCycles += jb.endToEndCycles;
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
                acc->phaseCycles[p] += jb.phaseCycles[p];
            }
        }
        if (jb.state == JobState::Completed) {
            tenantLatencies[jb.tenant].push_back(
                jb.reportedLatencyCycles);
            prioLatencies[jb.priority].push_back(
                jb.reportedLatencyCycles);
        }
        report.jobs.push_back(std::move(jb));
    }
    for (auto &[tenant, acc] : report.tenants) {
        auto it = tenantLatencies.find(tenant);
        if (it == tenantLatencies.end()) continue;
        acc.p50LatencyCycles = telemetry::exact_quantile(it->second,
                                                         0.50);
        acc.p99LatencyCycles = telemetry::exact_quantile(it->second,
                                                         0.99);
    }
    for (auto &[prio, acc] : report.priorities) {
        auto it = prioLatencies.find(prio);
        if (it == prioLatencies.end()) continue;
        acc.p50LatencyCycles = telemetry::exact_quantile(it->second,
                                                         0.50);
        acc.p99LatencyCycles = telemetry::exact_quantile(it->second,
                                                         0.99);
    }
    return report;
}

const JobBreakdown*
BreakdownReport::find(JobId id) const
{
    for (const JobBreakdown &jb : jobs) {
        if (jb.id == id) return &jb;
    }
    return nullptr;
}

std::vector<const JobBreakdown*>
BreakdownReport::worst(std::size_t n) const
{
    std::vector<const JobBreakdown*> all;
    all.reserve(jobs.size());
    for (const JobBreakdown &jb : jobs) all.push_back(&jb);
    std::stable_sort(all.begin(), all.end(),
                     [](const JobBreakdown *a, const JobBreakdown *b) {
                         if (a->endToEndCycles != b->endToEndCycles) {
                             return a->endToEndCycles >
                                    b->endToEndCycles;
                         }
                         return a->id < b->id;
                     });
    if (all.size() > n) all.resize(n);
    return all;
}

std::string
BreakdownReport::waterfall_text(const JobBreakdown &jb) const
{
    std::ostringstream os;
    os << "job " << jb.id << "  tenant=" << jb.tenant;
    if (!jb.name.empty()) os << "  name=" << jb.name;
    os << "  prio=" << jb.priority << "  " << to_string(jb.state)
       << "  attempts=" << jb.attempts << "\n";
    os << "  end-to-end " << format_cycles(jb.endToEndCycles)
       << " cycles";
    if (clockGHz > 0.0) {
        os << " (" << jb.endToEndCycles / (clockGHz * 1e9) * 1e6
           << " us)";
    }
    os << "   engine-reported "
       << format_cycles(jb.reportedLatencyCycles) << " cycles\n";
    constexpr int kBarWidth = 40;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        double share = jb.endToEndCycles > 0.0
                           ? jb.phaseCycles[p] / jb.endToEndCycles
                           : 0.0;
        int fill = static_cast<int>(share * kBarWidth + 0.5);
        if (fill > kBarWidth) fill = kBarWidth;
        std::string label = to_string(static_cast<Phase>(p));
        os << "  " << label
           << std::string(15 - std::min<std::size_t>(15, label.size()),
                          ' ');
        std::ostringstream pct;
        pct.precision(1);
        pct << std::fixed << share * 100.0 << "%";
        std::string pctS = pct.str();
        os << std::string(6 - std::min<std::size_t>(6, pctS.size()),
                          ' ')
           << pctS << " |" << std::string(fill, '#')
           << std::string(kBarWidth - fill, ' ') << "| "
           << format_cycles(jb.phaseCycles[p]) << " cycles\n";
    }
    for (const AttemptSpan &at : jb.attemptSpans) {
        os << "  attempt " << at.attempt << "  card " << at.card
           << "  dispatch @" << format_cycles(at.dispatchCycle)
           << "  exec [" << format_cycles(at.startCycle) << ", "
           << format_cycles(at.endCycle) << ")"
           << (at.failed ? "  FAILED" : "") << "\n";
    }
    return os.str();
}

telemetry::Json
BreakdownReport::to_json() const
{
    using telemetry::Json;
    auto phases_json = [](const double *phases) {
        Json pj = Json::object();
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            pj.set(to_string(static_cast<Phase>(p)), Json(phases[p]));
        }
        return pj;
    };
    auto accum_json = [&](const PhaseAccum &acc) {
        Json a = Json::object();
        a.set("jobs", Json(acc.jobs));
        a.set("completed", Json(acc.completed));
        a.set("failed", Json(acc.failed));
        a.set("expired", Json(acc.expired));
        a.set("shed", Json(acc.shed));
        a.set("end_to_end_cycles", Json(acc.endToEndCycles));
        a.set("phases", phases_json(acc.phaseCycles));
        a.set("p50_latency_cycles", Json(acc.p50LatencyCycles));
        a.set("p99_latency_cycles", Json(acc.p99LatencyCycles));
        return a;
    };

    Json j = Json::object();
    j.set("clock_ghz", Json(clockGHz));
    j.set("cards", Json(static_cast<u64>(cards)));
    Json ja = Json::array();
    for (const JobBreakdown &jb : jobs) {
        Json one = Json::object();
        one.set("id", Json(jb.id));
        one.set("tenant", Json(jb.tenant));
        if (!jb.name.empty()) one.set("name", Json(jb.name));
        one.set("prio", Json(jb.priority));
        one.set("state", Json(to_string(jb.state)));
        if (jb.card != JournalEvent::kNoCard) {
            one.set("card", Json(static_cast<u64>(jb.card)));
        }
        one.set("attempts", Json(jb.attempts));
        one.set("first_arrival_cycle", Json(jb.firstArrivalCycle));
        one.set("last_arrival_cycle", Json(jb.lastArrivalCycle));
        one.set("finish_cycle", Json(jb.finishCycle));
        one.set("end_to_end_cycles", Json(jb.endToEndCycles));
        one.set("reported_latency_cycles",
                Json(jb.reportedLatencyCycles));
        one.set("phases", phases_json(jb.phaseCycles));
        Json jat = Json::array();
        for (const AttemptSpan &at : jb.attemptSpans) {
            Json a = Json::object();
            a.set("attempt", Json(at.attempt));
            a.set("card", Json(static_cast<u64>(at.card)));
            a.set("dispatch_cycle", Json(at.dispatchCycle));
            a.set("start_cycle", Json(at.startCycle));
            a.set("end_cycle", Json(at.endCycle));
            a.set("failed", Json(at.failed));
            jat.push_back(std::move(a));
        }
        one.set("attempt_spans", std::move(jat));
        ja.push_back(std::move(one));
    }
    j.set("jobs", std::move(ja));
    Json jt = Json::object();
    for (const auto &[tenant, acc] : tenants) {
        jt.set(tenant, accum_json(acc));
    }
    j.set("tenants", std::move(jt));
    Json jp = Json::object();
    for (const auto &[prio, acc] : priorities) {
        jp.set(std::to_string(prio), accum_json(acc));
    }
    j.set("priorities", std::move(jp));
    return j;
}

void
BreakdownReport::export_metrics(telemetry::MetricsRegistry &reg,
                                std::size_t fromJob) const
{
    const double toUs =
        clockGHz > 0.0 ? 1.0 / (clockGHz * 1e9) * 1e6 : 0.0;
    for (std::size_t i = fromJob; i < jobs.size(); ++i) {
        const JobBreakdown &jb = jobs[i];
        if (toUs <= 0.0) break;
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            const char *phase = to_string(static_cast<Phase>(p));
            double us = jb.phaseCycles[p] * toUs;
            reg.histogram(std::string("serve.phase_us.") + phase +
                          ".tenant." + jb.tenant)
                .observe(us);
            reg.histogram(std::string("serve.phase_us.") + phase +
                          ".prio." + std::to_string(jb.priority))
                .observe(us);
        }
    }
    double total = 0.0;
    double perPhase[kPhaseCount] = {};
    for (const JobBreakdown &jb : jobs) {
        total += jb.endToEndCycles;
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            perPhase[p] += jb.phaseCycles[p];
        }
    }
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        double share = total > 0.0 ? perPhase[p] / total : 0.0;
        reg.gauge(std::string("serve.phase_share.") +
                  to_string(static_cast<Phase>(p)))
            .set(share);
    }
}

std::string
SloConfig::str() const
{
    std::string out;
    for (const auto &[prio, target] : p99TargetCycles) {
        if (!out.empty()) out += ';';
        out += "prio" + std::to_string(prio) + "=" +
               telemetry::format_number(target);
    }
    if (!out.empty()) out += ';';
    out += "budget=" + telemetry::format_number(budgetFraction);
    out += ";burn=" + telemetry::format_number(alertBurnRate);
    return out;
}

SloConfig
SloConfig::parse(const std::string &spec)
{
    SloConfig cfg;
    for (const telemetry::Clause &c :
         telemetry::parse_clauses(spec, "SloConfig")) {
        POSEIDON_REQUIRE(c.kind.empty(), c.where << " is not key=value");
        const auto &[key, val] = c.fields.front();
        double v = telemetry::parse_number(val, c.where);
        POSEIDON_REQUIRE(std::isfinite(v), c.where << ": not finite");
        if (key == "budget") {
            POSEIDON_REQUIRE(v > 0.0 && v <= 1.0,
                             "SloConfig: budget must be in (0, 1]");
            cfg.budgetFraction = v;
        } else if (key == "burn") {
            POSEIDON_REQUIRE(v > 0.0, "SloConfig: burn must be > 0");
            cfg.alertBurnRate = v;
        } else if (key.rfind("prio", 0) == 0) {
            POSEIDON_REQUIRE(v > 0.0, "SloConfig: target for "
                                          << key << " must be > 0 cycles");
            int prio = telemetry::parse_integer<int>(key.substr(4), c.where);
            cfg.p99TargetCycles[prio] = v;
        } else {
            POSEIDON_THROW(InvalidArgument,
                           "SloConfig: unknown key \"" << key
                               << "\" (want prio<N>, budget, burn)");
        }
    }
    return cfg;
}

telemetry::Json
SloReport::to_json() const
{
    using telemetry::Json;
    Json j = Json::object();
    j.set("budget_fraction", Json(budgetFraction));
    j.set("alert_burn_rate", Json(alertBurnRate));
    j.set("alerts", Json(alerts));
    Json js = Json::array();
    for (const SloStatus &s : statuses) {
        Json one = Json::object();
        one.set("prio", Json(s.priority));
        one.set("target_cycles", Json(s.targetCycles));
        one.set("jobs", Json(s.jobs));
        one.set("violations", Json(s.violations));
        one.set("violation_share", Json(s.violationShare));
        one.set("burn_rate", Json(s.burnRate));
        one.set("alerting", Json(s.alerting));
        js.push_back(std::move(one));
    }
    j.set("statuses", std::move(js));
    return j;
}

void
SloReport::export_metrics(telemetry::MetricsRegistry &reg) const
{
    for (const SloStatus &s : statuses) {
        std::string suffix = ".p" + std::to_string(s.priority);
        reg.gauge("serve.slo.burn_rate" + suffix).set(s.burnRate);
        reg.gauge("serve.slo.violations" + suffix)
            .set(static_cast<double>(s.violations));
        reg.gauge("serve.slo.alerting" + suffix)
            .set(s.alerting ? 1.0 : 0.0);
    }
    reg.gauge("serve.slo.alerts").set(static_cast<double>(alerts));
}

SloReport
evaluate_slo(const BreakdownReport &report, const SloConfig &cfg)
{
    SloReport out;
    out.budgetFraction = cfg.budgetFraction;
    out.alertBurnRate = cfg.alertBurnRate;
    for (const auto &[prio, target] : cfg.p99TargetCycles) {
        SloStatus s;
        s.priority = prio;
        s.targetCycles = target;
        for (const JobBreakdown &jb : report.jobs) {
            if (jb.priority != prio) continue;
            ++s.jobs;
            bool violated = jb.state != JobState::Completed ||
                            jb.endToEndCycles > target;
            if (violated) ++s.violations;
        }
        s.violationShare =
            s.jobs > 0 ? static_cast<double>(s.violations) /
                             static_cast<double>(s.jobs)
                       : 0.0;
        s.burnRate = s.violationShare / cfg.budgetFraction;
        s.alerting = s.jobs > 0 && s.burnRate >= cfg.alertBurnRate;
        if (s.alerting) ++out.alerts;
        out.statuses.push_back(s);
    }
    return out;
}

} // namespace poseidon::serve
