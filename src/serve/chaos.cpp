#include "serve/chaos.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "hw/faults.h"
#include "serve/latency_breakdown.h"
#include "telemetry/text_format.h"

namespace poseidon::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Uniform [0, 1) coin from one 64-bit hash (top 53 bits).
double
unit_coin(u64 h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The synthetic per-job program of a chaos scenario: an HBM round
/// trip with NTT + element-wise work at 2^logElems elements.
isa::Trace
synthetic_trace(unsigned logElems)
{
    const u64 elems = u64(1) << logElems;
    isa::Trace t;
    t.emit(isa::OpKind::HBM_RD, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::NTT, elems, 4096, isa::BasicOp::Other);
    t.emit(isa::OpKind::MM, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::MA, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::HBM_WR, elems, 0, isa::BasicOp::Other);
    return t;
}

/// Journal-vs-engine cross-check of one finished run: decompose the
/// journal and demand that it reproduces the engine's per-state
/// counts and every per-tenant p50/p99 *bit-for-bit*, and that every
/// job's phase expansion distills to its end-to-end latency (the
/// conservation invariant, re-asserted from outside decompose()).
bool
journal_matches_stats(const Journal &journal, const ServeStats &s)
{
    if (journal.empty()) return false;
    BreakdownReport br = decompose(journal);
    if (br.jobs.size() != s.submitted) return false;
    u64 completed = 0, failed = 0, expired = 0, shed = 0;
    for (const JobBreakdown &jb : br.jobs) {
        if (jb.phase_sum() != jb.endToEndCycles) return false;
        switch (jb.state) {
          case JobState::Completed: ++completed; break;
          case JobState::Failed: ++failed; break;
          case JobState::Expired: ++expired; break;
          case JobState::Shed: ++shed; break;
          case JobState::Queued: return false;
        }
    }
    if (completed != s.completed || failed != s.failed ||
        expired != s.expired || shed != s.shed) {
        return false;
    }
    for (const auto &[tenant, t] : s.tenants) {
        auto it = br.tenants.find(tenant);
        if (it == br.tenants.end()) return false;
        const PhaseAccum &acc = it->second;
        if (acc.completed != t.completed || acc.failed != t.failed ||
            acc.expired != t.expired || acc.shed != t.shed) {
            return false;
        }
        if (acc.p50LatencyCycles != t.p50LatencyCycles ||
            acc.p99LatencyCycles != t.p99LatencyCycles) {
            return false;
        }
    }
    return true;
}

} // namespace

const char*
to_string(ChaosEvent::Kind k)
{
    switch (k) {
      case ChaosEvent::Kind::CardDeath: return "CardDeath";
      case ChaosEvent::Kind::HbmDegrade: return "HbmDegrade";
      case ChaosEvent::Kind::FaultStorm: return "FaultStorm";
      case ChaosEvent::Kind::GrayCard: return "GrayCard";
    }
    return "?";
}

std::string
ChaosSchedule::str() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const ChaosEvent &e = events[i];
        if (i) os << "; ";
        os << to_string(e.kind) << "{";
        bool first = true;
        auto kv = [&](const char *k, const std::string &v) {
            if (!first) os << ", ";
            os << k << "=" << v;
            first = false;
        };
        using telemetry::format_number;
        if (e.card != ChaosEvent::kAllCards) {
            kv("card", std::to_string(e.card));
        }
        kv("start", format_number(e.startCycle));
        if (e.endCycle != kInf) kv("end", format_number(e.endCycle));
        switch (e.kind) {
          case ChaosEvent::Kind::FaultStorm:
            kv("rate", format_number(e.rate));
            break;
          case ChaosEvent::Kind::HbmDegrade:
            kv("retryShare", format_number(e.retryShare));
            kv("stack", std::to_string(e.stack));
            break;
          case ChaosEvent::Kind::GrayCard:
            kv("slowdown", format_number(e.slowdown));
            break;
          case ChaosEvent::Kind::CardDeath:
            break;
        }
        os << "}";
    }
    if (seed != ChaosSchedule{}.seed) {
        if (!events.empty()) os << "; ";
        os << "seed=" << seed;
    }
    return os.str();
}

ChaosSchedule
ChaosSchedule::parse(const std::string &dsl)
{
    using telemetry::parse_integer;
    using telemetry::parse_number;
    ChaosSchedule sched;
    for (const telemetry::Clause &c :
         telemetry::parse_clauses(dsl, "chaos DSL")) {
        if (c.kind.empty()) {
            const auto &[key, val] = c.fields.front();
            POSEIDON_REQUIRE(key == "seed", c.where
                             << ": unknown standalone key \"" << key
                             << "\" (only seed=N)");
            sched.seed = parse_integer<u64>(val, c.where);
            continue;
        }

        ChaosEvent e;
        if (c.kind == "CardDeath") {
            e.kind = ChaosEvent::Kind::CardDeath;
        } else if (c.kind == "HbmDegrade") {
            e.kind = ChaosEvent::Kind::HbmDegrade;
        } else if (c.kind == "FaultStorm") {
            e.kind = ChaosEvent::Kind::FaultStorm;
        } else if (c.kind == "GrayCard") {
            e.kind = ChaosEvent::Kind::GrayCard;
        } else {
            POSEIDON_THROW(InvalidArgument, c.where
                           << ": unknown event kind \"" << c.kind << "\"");
        }

        double duration = kInf;
        for (const auto &[key, val] : c.fields) {
            auto num = [&] { return parse_number(val, c.where); };
            if (key == "card") {
                e.card = parse_integer<std::size_t>(val, c.where);
                POSEIDON_REQUIRE(e.card != ChaosEvent::kAllCards,
                                 c.where << ": card index out of range");
            } else if (key == "cycle" || key == "start") {
                e.startCycle = num();
            } else if (key == "end") {
                e.endCycle = num();
            } else if (key == "duration") {
                duration = num();
            } else if (key == "rate") {
                e.rate = num();
            } else if (key == "retryShare") {
                e.retryShare = num();
            } else if (key == "slowdown") {
                e.slowdown = num();
            } else if (key == "stack") {
                e.stack = parse_integer<unsigned>(val, c.where);
            } else {
                POSEIDON_THROW(InvalidArgument, c.where
                               << ": unknown key \"" << key << "\"");
            }
        }
        if (duration != kInf) {
            POSEIDON_REQUIRE(e.endCycle == kInf, c.where
                             << ": give duration or end, not both");
            e.endCycle = e.startCycle + duration;
        }
        POSEIDON_REQUIRE(e.endCycle >= e.startCycle,
                         c.where << ": end before start");
        POSEIDON_REQUIRE(e.rate >= 0.0 && e.rate <= 1.0,
                         c.where << ": rate must be in [0, 1]");
        POSEIDON_REQUIRE(e.slowdown >= 1.0,
                         c.where << ": slowdown must be >= 1");
        POSEIDON_REQUIRE(e.retryShare >= 0.0,
                         c.where << ": negative retryShare");
        sched.events.push_back(e);
    }
    return sched;
}

ChaosInjector::ChaosInjector(ChaosSchedule schedule)
    : schedule_(std::move(schedule))
{
}

void
ChaosInjector::perturb(std::size_t card, JobId job, u64 attempt,
                       double dispatchCycle, hw::SimResult &r) const
{
    for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
        const ChaosEvent &e = schedule_.events[i];
        if (!e.targets(card) || !e.active_at(dispatchCycle)) continue;
        switch (e.kind) {
          case ChaosEvent::Kind::CardDeath:
            r.faults.silent += 1;
            deaths_.fetch_add(1, std::memory_order_relaxed);
            break;
          case ChaosEvent::Kind::HbmDegrade: {
            double extra = e.retryShare * r.cycles;
            r.faults.retryCycles += extra;
            r.faults.detected += 1;
            r.memCycles += extra;
            r.cycles += extra;
            degrades_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case ChaosEvent::Kind::FaultStorm: {
            // One deterministic coin per (event, card, job, attempt):
            // independent of host threading and dispatch order.
            u64 h = hw::mix_seed(
                schedule_.seed,
                (static_cast<u64>(i + 1) << 48) ^
                    (static_cast<u64>(card + 1) << 40) ^
                    (static_cast<u64>(job) << 8) ^ attempt);
            if (unit_coin(h) < e.rate) {
                r.faults.silent += 1;
                storms_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case ChaosEvent::Kind::GrayCard: {
            double extra = (e.slowdown - 1.0) * r.cycles;
            r.cycles += extra;
            r.computeCycles += extra;
            slowdowns_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
    }
}

telemetry::Json
CampaignReport::to_json() const
{
    using telemetry::Json;
    Json j = Json::object();
    j.set("scenario", Json(scenario));
    j.set("submitted", Json(submitted));
    j.set("completed", Json(completed));
    j.set("failed", Json(failed));
    j.set("expired", Json(expired));
    j.set("shed", Json(shed));
    j.set("retries", Json(retries));
    j.set("quarantines", Json(quarantines));
    j.set("readmissions", Json(readmissions));
    j.set("probes", Json(probes));
    j.set("conserved", Json(conserved));
    j.set("all_tickets_resolved", Json(allTicketsResolved));
    j.set("journal_consistent", Json(journalConsistent));
    j.set("availability", Json(availability));
    j.set("goodput_jobs_per_sec", Json(goodputJobsPerSec));
    j.set("horizon_cycles", Json(horizonCycles));
    j.set("alerts_fired", Json(alertsFired));
    j.set("alerts_resolved", Json(alertsResolved));
    return j;
}

CampaignReport
run_scenario(const Scenario &sc)
{
    POSEIDON_REQUIRE(sc.cards >= 1,
                     "chaos scenario \"" << sc.name
                     << "\": empty fleet");
    POSEIDON_REQUIRE(sc.tenants >= 1,
                     "chaos scenario \"" << sc.name
                     << "\": no tenants");

    ServeConfig cfg;
    cfg.cards = sc.cards;
    cfg.maxQueueDepth = sc.maxQueueDepth;
    cfg.health = sc.health;
    cfg.chaos = sc.schedule.str();
    cfg.exportTelemetry = false; // campaigns run quiet by default
    cfg.tsdbCadenceCycles = sc.tsdbCadenceCycles;
    cfg.tsdbCapacity = sc.tsdbCapacity;
    cfg.alertRules = sc.alertRules;
    ServingEngine engine(cfg);

    isa::Trace trace;
    if (sc.workload.empty()) trace = synthetic_trace(sc.logElems);

    // Stagger arrivals so the fleet stays busy but never idle-waits:
    // one job per (cost / cards) cycles, estimated from a clean
    // pricing of the scenario trace.
    double jobCycles =
        sc.workload.empty()
            ? engine.shards().price(0, trace).cycles
            : 0.0;
    double spacing = jobCycles / static_cast<double>(sc.cards);

    std::vector<JobTicket> tickets;
    tickets.reserve(sc.jobs);
    for (std::size_t i = 0; i < sc.jobs; ++i) {
        JobSpec spec;
        spec.tenant = "tenant" + std::to_string(i % sc.tenants);
        spec.name = sc.name + "/job" + std::to_string(i);
        if (sc.workload.empty()) {
            spec.trace = trace;
        } else {
            spec.workload = sc.workload;
        }
        spec.priority = static_cast<int>(i % 2);
        spec.arrivalCycle = spacing * static_cast<double>(i);
        if (sc.deadlineSlackCycles !=
            std::numeric_limits<double>::infinity()) {
            spec.deadlineCycle =
                spec.arrivalCycle + sc.deadlineSlackCycles;
        }
        spec.retry.maxAttempts = sc.maxAttempts;
        spec.retry.backoffBaseCycles = sc.backoffBaseCycles;
        tickets.push_back(engine.submit(std::move(spec)));
    }

    engine.drain();

    CampaignReport rep;
    rep.scenario = sc.name;
    rep.allTicketsResolved = true;
    for (const JobTicket &t : tickets) {
        if (t.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            rep.allTicketsResolved = false;
        }
    }

    rep.stats = engine.stats();
    rep.submitted = rep.stats.submitted;
    rep.completed = rep.stats.completed;
    rep.failed = rep.stats.failed;
    rep.expired = rep.stats.expired;
    rep.shed = rep.stats.shed;
    rep.retries = rep.stats.retries;
    rep.quarantines = rep.stats.quarantines;
    rep.readmissions = rep.stats.readmissions;
    rep.probes = rep.stats.probes;
    rep.horizonCycles = rep.stats.horizonCycles;
    rep.conserved =
        rep.allTicketsResolved &&
        rep.submitted ==
            rep.completed + rep.failed + rep.expired + rep.shed;
    rep.availability =
        rep.submitted > 0
            ? static_cast<double>(rep.completed) /
                  static_cast<double>(rep.submitted)
            : 0.0;
    rep.goodputJobsPerSec = rep.stats.throughput_jobs_per_sec();
    rep.journalJsonl = engine.journal().to_jsonl();
    rep.journalConsistent =
        journal_matches_stats(engine.journal(), rep.stats);
    if (sc.tsdbCadenceCycles > 0.0) {
        rep.tsdbJsonl = engine.tsdb().to_jsonl();
        rep.alertsFired = engine.alerts().fired_total();
        rep.alertsResolved = engine.alerts().resolved_total();
        rep.alertLog = engine.alert_log();
    }
    return rep;
}

std::vector<Scenario>
standard_scenarios()
{
    // Measure the clean-fleet horizon with a fault-free dry run:
    // scenario windows are placed relative to it so the storms
    // actually overlap the drain (a static estimate misses the
    // per-batch dispatch overhead and lands between dispatches).
    Scenario base;
    base.name = "dry-run";
    base.jobs = 96; // enough dispatches for windows to catch batches
    double horizon = run_scenario(base).horizonCycles;

    // Window cycles go into the DSL text at the stream's default six
    // significant digits: the scenario runs are pinned to that text.
    std::vector<Scenario> out;

    {
        Scenario sc;
        sc.name = "card-death-mid-drain";
        sc.jobs = 96;
        sc.description =
            "Card 0 silently corrupts everything for a window "
            "starting mid-drain; the breaker must quarantine it, the "
            "fleet absorbs the queue, probes re-admit it after the "
            "window.";
        sc.maxAttempts = 6;
        sc.health.minAttempts = 2;
        sc.health.cooldownCycles = 0.15 * horizon;
        std::ostringstream dsl;
        dsl << "CardDeath{card=0, cycle=" << 0.2 * horizon
            << ", duration=" << 0.3 * horizon << "}";
        sc.schedule = ChaosSchedule::parse(dsl.str());
        // The acceptance alert: pages while card 0's breaker is OPEN
        // (2) or the card is dead (3); the fire cycle must land
        // inside the death window, the resolve after re-admission.
        sc.alertRules = "serve.card.0.breaker >= 2 => page";
        out.push_back(std::move(sc));
    }
    {
        Scenario sc;
        sc.name = "fault-storm";
        sc.jobs = 96;
        sc.description =
            "Fleet-wide silent-corruption storm over the first half "
            "of the drain; backoff retries must carry every job to "
            "completion once the storm passes.";
        sc.maxAttempts = 8;
        sc.backoffBaseCycles = 0.05 * horizon;
        sc.health.minAttempts = 16; // storms are not a card's fault
        std::ostringstream dsl;
        dsl << "FaultStorm{start=0, end=" << 0.5 * horizon
            << ", rate=0.2}";
        sc.schedule = ChaosSchedule::parse(dsl.str());
        out.push_back(std::move(sc));
    }
    {
        Scenario sc;
        sc.name = "storm-plus-death";
        sc.jobs = 96;
        sc.description =
            "The acceptance scenario: a fault storm with a card death "
            "inside it. Zero lost jobs, the dead card quarantined "
            "within the window and re-admitted after cooldown.";
        sc.maxAttempts = 8;
        sc.backoffBaseCycles = 0.05 * horizon;
        sc.health.minAttempts = 3;
        sc.health.failureThreshold = 0.75;
        sc.health.cooldownCycles = 0.2 * horizon;
        std::ostringstream dsl;
        dsl << "FaultStorm{start=0, end=" << 0.4 * horizon
            << ", rate=0.1}; CardDeath{card=1, cycle="
            << 0.1 * horizon << ", duration="
            << 0.4 * horizon << "}";
        sc.schedule = ChaosSchedule::parse(dsl.str());
        out.push_back(std::move(sc));
    }
    {
        Scenario sc;
        sc.name = "hbm-degrade";
        sc.jobs = 96;
        sc.description =
            "One HBM stack on card 1 drowns in detected-uncorrected "
            "replays (no corruption): jobs still complete, but the "
            "retry-share breaker quarantines the card until the stack "
            "recovers.";
        sc.health.minAttempts = 2;
        sc.health.cooldownCycles = 0.1 * horizon;
        std::ostringstream dsl;
        dsl << "HbmDegrade{card=1, cycle=0, duration="
            << 0.5 * horizon << ", retryShare=1.5, stack=0}";
        sc.schedule = ChaosSchedule::parse(dsl.str());
        out.push_back(std::move(sc));
    }
    {
        Scenario sc;
        sc.name = "gray-card";
        sc.jobs = 96;
        sc.description =
            "Card 2 runs 3x slow but correct — a gray failure. The "
            "breaker must NOT trip (no faults), and every job must "
            "still complete.";
        std::ostringstream dsl;
        dsl << "GrayCard{card=2, cycle=0, slowdown=3}";
        sc.schedule = ChaosSchedule::parse(dsl.str());
        out.push_back(std::move(sc));
    }
    {
        Scenario sc;
        sc.name = "overload-shed";
        sc.description =
            "Twice the jobs against a hard admission limit: the "
            "excess must shed as typed Overloaded results, never "
            "hang, and high-priority work must survive.";
        sc.jobs = 48;
        sc.maxQueueDepth = 8;
        // Admission shedding clamps the queue to the cap before any
        // sample sees it, so the overload signal is "pinned at the
        // cap", not "above the cap".
        sc.alertRules = "serve.queue_depth >= 8 => warn";
        out.push_back(std::move(sc));
    }
    // Every scenario samples its TSDB at 64 points across the clean
    // horizon — enough resolution for the fault windows to show as
    // curves without unbounded memory.
    for (Scenario &sc : out) {
        sc.tsdbCadenceCycles = horizon / 64.0;
    }
    return out;
}

} // namespace poseidon::serve
