#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "serve/chaos.h"
#include "telemetry/tracer.h"
#include "workloads/workloads.h"

namespace poseidon::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Simulated-cycle bounds for the engine-owned latency histogram:
/// 1e4 .. 1e9 cycles, 1-2-5 series (33 us .. 3.3 s at 0.3 GHz).
const std::vector<double>&
latency_cycle_bounds()
{
    static const std::vector<double> kBounds = {
        1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6,
        5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
    };
    return kBounds;
}

/// The canonical probe program: one small HBM round trip with
/// element-wise and NTT work — enough memory traffic to exercise a
/// sick HBM stack, cheap enough to waste on a card under suspicion.
isa::Trace
make_probe_trace()
{
    const u64 elems = u64(1) << 14;
    isa::Trace t;
    t.emit(isa::OpKind::HBM_RD, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::MM, elems, 0, isa::BasicOp::Other);
    t.emit(isa::OpKind::NTT, elems, 4096, isa::BasicOp::Other);
    t.emit(isa::OpKind::HBM_WR, elems, 0, isa::BasicOp::Other);
    return t;
}

/// Modeled cycles -> microseconds on the simulated-cycle process.
double
cycles_to_us(double cycles, double clockGHz)
{
    return cycles / (clockGHz * 1e9) * 1e6;
}

/// Where a terminal verdict lands: its journal kind and counter.
struct Terminal
{
    JournalEventKind kind;
    const char *counter;
};

Terminal
terminal_of(JobState s)
{
    switch (s) {
      case JobState::Completed:
        return {JournalEventKind::Completed, "serve.jobs.completed"};
      case JobState::Failed:
        return {JournalEventKind::Failed, "serve.jobs.failed"};
      case JobState::Expired:
        return {JournalEventKind::Expired, "serve.jobs.expired"};
      default:
        return {JournalEventKind::Shed, "serve.jobs.shed"};
    }
}

/// Which way an event moves its lane's trace window.
enum class Edge { None, Opens, Closes };

/**
 * The window state machine of both trace exporters. Walks the events
 * recorded since the track's cursor; `edge_of(e)` names the lane an
 * event touches and its Edge. A window opens when its lane has none
 * open and closes when one is; each close is handed to
 * `emit(lane, opener, closer, closeCycle)`. On teardown every window
 * still open is emitted clipped at `horizon`, with a null closer.
 */
template <class Event, class Track, class EdgeOf, class Emit>
void
walk_windows(const std::vector<Event> &events, Track &track,
             bool teardown, double horizon, EdgeOf edge_of, Emit emit)
{
    for (; track.walked < events.size(); ++track.walked) {
        const Event &e = events[track.walked];
        auto [lane, edge] = edge_of(e);
        std::size_t &open = track.opener[lane];
        if (edge == Edge::Opens && open == Track::kNoWindow) {
            open = track.walked;
        } else if (edge == Edge::Closes && open != Track::kNoWindow) {
            emit(lane, events[open], &e, e.cycle);
            open = Track::kNoWindow;
        }
    }
    if (!teardown) return; // open windows wait for their close
    for (std::size_t lane = 0; lane < track.opener.size(); ++lane) {
        std::size_t &open = track.opener[lane];
        if (open == Track::kNoWindow) continue;
        const Event &opener = events[open];
        emit(lane, opener, static_cast<const Event *>(nullptr),
             std::max(horizon, opener.cycle));
        open = Track::kNoWindow;
    }
}

} // namespace

const char*
to_string(JobState s)
{
    switch (s) {
      case JobState::Queued: return "Queued";
      case JobState::Completed: return "Completed";
      case JobState::Failed: return "Failed";
      case JobState::Expired: return "Expired";
      case JobState::Shed: return "Shed";
    }
    return "?";
}

void
prepare_job(JobSpec &spec)
{
    if (!spec.workload.empty()) {
        workloads::Workload wl = workloads::find_workload(spec.workload);
        spec.trace = std::move(wl.trace);
        if (spec.name.empty()) spec.name = wl.name;
        spec.workload.clear();
    }
    POSEIDON_REQUIRE(!spec.trace.empty(),
                     "submit: job \"" << spec.name
                     << "\" carries neither a trace nor a workload");
    POSEIDON_REQUIRE(!spec.tenant.empty(), "submit: empty tenant");
    POSEIDON_REQUIRE(spec.retry.maxAttempts >= 1,
                     "submit: job \"" << spec.name
                     << "\" has maxAttempts == 0 (it could never run)");
    POSEIDON_REQUIRE(spec.retry.backoffBaseCycles >= 0.0 &&
                         std::isfinite(spec.retry.backoffBaseCycles),
                     "submit: negative or non-finite backoffBaseCycles");
    POSEIDON_REQUIRE(spec.retry.backoffMultiplier >= 1.0,
                     "submit: backoffMultiplier must be >= 1, got "
                         << spec.retry.backoffMultiplier);
    POSEIDON_REQUIRE(std::isfinite(spec.arrivalCycle) &&
                         spec.arrivalCycle >= 0.0,
                     "submit: job \"" << spec.name
                     << "\" has a negative or non-finite arrival "
                        "cycle");
    POSEIDON_REQUIRE(spec.deadlineCycle >= spec.arrivalCycle,
                     "submit: job \"" << spec.name
                     << "\" deadline " << spec.deadlineCycle
                     << " lies before its arrival "
                     << spec.arrivalCycle
                     << " (it could never be dispatched in time)");
    spec.trace.validate(); // reject malformed programs at the boundary
    if (spec.batchKey.empty()) {
        spec.batchKey = "deg:" + std::to_string(spec.trace.max_degree());
    }
}

double
ServeStats::throughput_jobs_per_sec() const
{
    if (horizonCycles <= 0.0 || clockGHz <= 0.0) return 0.0;
    double seconds = horizonCycles / (clockGHz * 1e9);
    return static_cast<double>(completed) / seconds;
}

double
ServeStats::fleet_occupancy() const
{
    if (cards.empty() || horizonCycles <= 0.0) return 0.0;
    return busyCycles /
           (horizonCycles * static_cast<double>(cards.size()));
}

telemetry::Json
ServeStats::to_json() const
{
    using telemetry::Json;
    Json j = Json::object();
    j.set("submitted", Json(submitted));
    j.set("completed", Json(completed));
    j.set("failed", Json(failed));
    j.set("expired", Json(expired));
    j.set("shed", Json(shed));
    j.set("retries", Json(retries));
    j.set("batches", Json(batches));
    j.set("max_queue_depth", Json(maxQueueDepth));
    j.set("quarantines", Json(quarantines));
    j.set("readmissions", Json(readmissions));
    j.set("probes", Json(probes));
    j.set("horizon_cycles", Json(horizonCycles));
    j.set("busy_cycles", Json(busyCycles));
    j.set("throughput_jobs_per_sec", Json(throughput_jobs_per_sec()));
    j.set("fleet_occupancy", Json(fleet_occupancy()));
    Json jt = Json::object();
    for (const auto &[name, t] : tenants) jt.set(name, t.to_json());
    j.set("tenants", std::move(jt));
    Json jc = Json::array();
    for (std::size_t i = 0; i < cards.size(); ++i) {
        const CardStats &c = cards[i];
        Json one = Json::object();
        one.set("busy_cycles", Json(c.busyCycles));
        one.set("occupancy", Json(c.occupancy(horizonCycles)));
        one.set("jobs", Json(c.jobs));
        one.set("batches", Json(c.batches));
        one.set("failed_attempts", Json(c.failedAttempts));
        one.set("probes", Json(c.probes));
        if (i < health.size()) {
            const CardHealth &h = health[i];
            one.set("breaker",
                    Json(h.dead ? "Dead" : to_string(h.state)));
            one.set("quarantines", Json(h.quarantines));
        }
        jc.push_back(std::move(one));
    }
    j.set("cards", std::move(jc));
    return j;
}

void
ServeStats::export_metrics(telemetry::MetricsRegistry &reg) const
{
    reg.gauge("serve.cards").set(static_cast<double>(cards.size()));
    reg.gauge("serve.queue_depth_max")
        .set(static_cast<double>(maxQueueDepth));
    reg.gauge("serve.horizon_cycles").set(horizonCycles);
    reg.gauge("serve.throughput_jobs_per_sec")
        .set(throughput_jobs_per_sec());
    reg.gauge("serve.fleet_occupancy").set(fleet_occupancy());
    reg.gauge("serve.health.quarantines")
        .set(static_cast<double>(quarantines));
    reg.gauge("serve.health.readmissions")
        .set(static_cast<double>(readmissions));
    reg.gauge("serve.health.probes").set(static_cast<double>(probes));
    for (std::size_t i = 0; i < cards.size(); ++i) {
        reg.gauge("serve.card_occupancy." + std::to_string(i))
            .set(cards[i].occupancy(horizonCycles));
    }
    for (std::size_t i = 0; i < health.size(); ++i) {
        const CardHealth &h = health[i];
        // 0 = Closed, 1 = HalfOpen, 2 = Open, 3 = dead.
        double state = h.dead ? 3.0
                       : h.state == BreakerState::Open      ? 2.0
                       : h.state == BreakerState::HalfOpen  ? 1.0
                                                            : 0.0;
        reg.gauge("serve.health.state." + std::to_string(i))
            .set(state);
        reg.gauge("serve.health.failure_ewma." + std::to_string(i))
            .set(h.ewmaFailure);
        reg.gauge("serve.health.retry_share_ewma." + std::to_string(i))
            .set(h.ewmaRetryShare);
    }
    for (const auto &[name, t] : tenants) {
        reg.gauge("serve.tenant_submitted." + name)
            .set(static_cast<double>(t.submitted));
        reg.gauge("serve.tenant_completed." + name)
            .set(static_cast<double>(t.completed));
        reg.gauge("serve.tenant_failed." + name)
            .set(static_cast<double>(t.failed));
        reg.gauge("serve.tenant_expired." + name)
            .set(static_cast<double>(t.expired));
        reg.gauge("serve.tenant_shed." + name)
            .set(static_cast<double>(t.shed));
        reg.gauge("serve.tenant_attained_cycles." + name)
            .set(t.attainedCycles);
        reg.gauge("serve.tenant_p50_cycles." + name)
            .set(t.p50LatencyCycles);
        reg.gauge("serve.tenant_p99_cycles." + name)
            .set(t.p99LatencyCycles);
    }
}

ServingEngine::ServingEngine(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      shards_(cfg_.fleet.empty()
                  ? ShardManager(cfg_.cards, cfg_.card)
                  : ShardManager(cfg_.fleet)),
      sched_(cfg_.maxBatch),
      health_(shards_.size(), cfg_.health),
      chaos_(new ChaosInjector(ChaosSchedule::parse(cfg_.chaos))),
      probeTrace_(make_probe_trace()),
      probeSeq_(shards_.size(), 0),
      tsdb_(cfg_.tsdbCadenceCycles,
            std::max<std::size_t>(cfg_.tsdbCapacity, 2)),
      alerts_(telemetry::AlertRules::parse(cfg_.alertRules)),
      latencyHist_(latency_cycle_bounds())
{
    POSEIDON_REQUIRE(cfg_.dispatchCycles >= 0.0,
                     "ServingEngine: negative dispatch overhead");
    POSEIDON_REQUIRE(cfg_.tsdbCadenceCycles >= 0.0 &&
                         std::isfinite(cfg_.tsdbCadenceCycles),
                     "ServingEngine: negative or non-finite TSDB "
                     "sample cadence");
    POSEIDON_REQUIRE(alerts_.empty() || cfg_.tsdbCadenceCycles > 0.0,
                     "ServingEngine: alertRules need "
                     "tsdbCadenceCycles > 0 (alerts are evaluated at "
                     "TSDB sample ticks)");
    journal_.set_enabled(cfg_.journal);
    journal_.set_meta(shards_.card(0).config().clockGHz,
                      shards_.size());
    sched_.set_journal(cfg_.journal ? &journal_ : nullptr);
    healthTrack_.opener.assign(shards_.size(), WindowTrack::kNoWindow);
    alertTrack_.opener.assign(alerts_.rules().size(),
                              WindowTrack::kNoWindow);
}

ServingEngine::~ServingEngine()
{
    // The final export: windows still open after the last drain are
    // emitted once, clipped at the serving horizon.
    export_health_trace(true);
    export_alert_trace(true);
}

JobTicket
ServingEngine::submit(JobSpec spec)
{
    prepare_job(spec);
    QueuedJob qj;
    qj.spec = std::move(spec);
    JobTicket ticket;
    ticket.result = qj.promise.get_future().share();

    std::lock_guard<std::mutex> lk(mu_);
    qj.id = nextId_++;
    ticket.id = qj.id;
    ledger_.submit(qj.spec.tenant);
    if (journal_.enabled()) {
        JournalEvent ev;
        ev.kind = JournalEventKind::Submitted;
        ev.job = qj.id;
        ev.cycle = qj.spec.arrivalCycle;
        ev.tenant = qj.spec.tenant;
        ev.name = qj.spec.name;
        ev.priority = qj.spec.priority;
        journal_.append(std::move(ev));
    }
    submissions_.push_back(std::move(qj));
    if (cfg_.exportTelemetry) telemetry::count("serve.jobs.submitted");
    return ticket;
}

std::size_t
ServingEngine::queue_depth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<std::size_t>(ledger_.open());
}

void
ServingEngine::finish_job(QueuedJob &&qj, Verdict v)
{
    JobResult r;
    r.id = qj.id;
    r.state = v.state;
    r.errorCode = v.errorCode;
    r.tenant = std::move(qj.spec.tenant);
    r.name = std::move(qj.spec.name);
    r.card = v.card;
    r.attempts = qj.attempt;
    r.arrivalCycle = qj.spec.arrivalCycle;
    r.startCycle = v.startCycle;
    r.finishCycle = v.finishCycle;
    r.sim = v.sim;
    r.error = std::move(v.error);
    std::promise<JobResult> promise = std::move(qj.promise);
    std::function<void(const JobResult &)> cb =
        std::move(qj.spec.callback);

    const bool completed = r.state == JobState::Completed;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ledger_.finish(r);
        // Simulated-cycle histogram feeding the TSDB's windowed
        // quantiles (drain thread only — deterministic).
        if (completed && cfg_.tsdbCadenceCycles > 0.0) {
            latencyHist_.observe(r.latency_cycles());
        }
    }
    const Terminal t = terminal_of(r.state);
    if (journal_.enabled()) {
        JournalEvent ev;
        ev.kind = t.kind;
        if (completed) ev.value = r.latency_cycles();
        ev.job = r.id;
        ev.cycle = r.finishCycle;
        ev.tenant = r.tenant;
        ev.name = r.name;
        ev.card = r.card;
        ev.attempt = r.attempts;
        ev.detail = r.error;
        journal_.append(std::move(ev));
    }
    if (cfg_.exportTelemetry && telemetry::enabled()) {
        telemetry::count(t.counter);
        if (completed) {
            double clock = shards_.card(0).config().clockGHz;
            telemetry::MetricsRegistry::global()
                .histogram("serve.tenant_latency_us." + r.tenant)
                .observe(cycles_to_us(r.latency_cycles(), clock));
        }
    }
    // Fulfill outside the lock: the callback may re-enter submit().
    promise.set_value(r);
    if (cb) cb(r);
}

void
ServingEngine::shed(std::vector<QueuedJob> jobs, const char *why)
{
    for (QueuedJob &qj : jobs) {
        double at = std::max(clock_, qj.spec.arrivalCycle);
        std::ostringstream msg;
        msg << "Overloaded: " << why << " (shed at cycle " << at << ")";
        finish_job(std::move(qj),
                   {.state = JobState::Shed,
                    .errorCode = ErrorCode::kOverloaded,
                    .finishCycle = at,
                    .error = msg.str()});
    }
}

void
ServingEngine::dispatch_probe(std::size_t card, double T)
{
    u64 seq = probeSeq_[card]++;
    hw::SimResult sim = shards_.price(card, probeTrace_, /*job=*/0,
                                      seq);
    if (chaos_->active()) {
        chaos_->perturb(card, /*job=*/0, seq, T, sim);
    }
    // The probe verdict mirrors the breaker's own trip conditions:
    // any silent corruption, or an ECC-replay share that would still
    // trip the degradation threshold, keeps the card quarantined.
    double retryShare =
        sim.cycles > 0.0 ? sim.faults.retryCycles / sim.cycles : 0.0;
    bool ok = sim.faults.silent == 0 &&
              retryShare < cfg_.health.retryShareThreshold;

    CardStats &cs = shards_.stats(card);
    double busy = cfg_.dispatchCycles + sim.cycles;
    cs.busyCycles += busy;
    cs.freeAtCycle = T + busy;
    ++cs.probes;
    health_.record_probe(card, T + busy, ok);
    if (journal_.enabled()) {
        JournalEvent ev;
        ev.kind = JournalEventKind::ProbeInteraction;
        ev.cycle = T; // job = 0: fleet-level event
        ev.card = card;
        ev.attempt = seq + 1;
        ev.value = busy;
        ev.failed = !ok;
        journal_.append(std::move(ev));
    }
    if (cfg_.exportTelemetry) {
        telemetry::count("serve.health.probes");
        if (!ok) telemetry::count("serve.health.probe_failures");
    }
}

void
ServingEngine::refresh_gauges()
{
    if (!cfg_.exportTelemetry || !telemetry::enabled()) return;
    telemetry::gauge_set("serve.queue_depth",
                         static_cast<double>(sched_.depth()));
    telemetry::gauge_set("serve.cards",
                         static_cast<double>(shards_.size()));
}

void
ServingEngine::export_health_trace(bool teardown)
{
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    const std::vector<HealthEvent> &events = health_.events();
    if (!tracer.active() || events.empty()) return;
    double clock = shards_.card(0).config().clockGHz;
    auto tid = [](std::size_t c) { return 400 + static_cast<int>(c); };
    for (std::size_t c = 0; c < shards_.size(); ++c) {
        tracer.set_thread_name(telemetry::Tracer::kSimPid, tid(c),
                               "card" + std::to_string(c) + " health");
    }
    using Kind = HealthEvent::Kind;
    walk_windows(
        events, healthTrack_, teardown, ledger_.totals().horizonCycles,
        [](const HealthEvent &e) {
            Edge edge = e.kind == Kind::Quarantined ? Edge::Opens
                        : e.kind == Kind::Readmitted ||
                                e.kind == Kind::Died
                            ? Edge::Closes
                            : Edge::None;
            return std::pair(e.card, edge);
        },
        [&](std::size_t c, const HealthEvent &open,
            const HealthEvent *close, double closeCycle) {
            // A window still open at teardown is still quarantined.
            bool dead = close && close->kind == Kind::Died;
            telemetry::TraceEvent ev;
            ev.name = dead ? "dead" : "quarantine";
            ev.pid = telemetry::Tracer::kSimPid;
            ev.tid = tid(c);
            ev.tsUs = cycles_to_us(open.cycle, clock);
            ev.durUs = cycles_to_us(closeCycle - open.cycle, clock);
            ev.args.emplace_back("reason", telemetry::Json(open.reason));
            ev.args.emplace_back("open_cycle", telemetry::Json(open.cycle));
            if (close) {
                ev.args.emplace_back("close_cycle",
                                     telemetry::Json(closeCycle));
            }
            tracer.complete_event(std::move(ev));
        });
}

void
ServingEngine::export_job_flows(const BreakdownReport &br)
{
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    if (!tracer.active()) return;
    double clock = shards_.card(0).config().clockGHz;
    auto us = [clock](double cycles) { return cycles_to_us(cycles, clock); };
    // Stable per-tenant queue tracks, numbered in first-seen order
    // (name order within one drain) for the engine's lifetime.
    for (const auto &[tenant, acc] : br.tenants) {
        (void)acc;
        int tid = 350 + static_cast<int>(queueTids_.size());
        if (queueTids_.emplace(tenant, tid).second) {
            tracer.set_thread_name(telemetry::Tracer::kSimPid, tid,
                                   "queue " + tenant);
        }
    }
    for (std::size_t c = 0; c < shards_.size(); ++c) {
        tracer.set_thread_name(telemetry::Tracer::kSimPid,
                               300 + static_cast<int>(c),
                               "card" + std::to_string(c) + " serve");
    }
    for (const JobBreakdown &jb : br.jobs) {
        if (jb.attemptSpans.empty()) continue;
        int qTid = queueTids_.at(jb.tenant);
        std::string label = "job" + std::to_string(jb.id);
        if (!jb.name.empty()) label += " " + jb.name;

        // Queue slice: first arrival until the first dispatch.
        const AttemptSpan &first = jb.attemptSpans.front();
        telemetry::TraceEvent q;
        q.name = label + " queued";
        q.pid = telemetry::Tracer::kSimPid;
        q.tid = qTid;
        q.tsUs = us(jb.firstArrivalCycle);
        q.durUs = us(first.dispatchCycle - jb.firstArrivalCycle);
        q.args.emplace_back("job", telemetry::Json(jb.id));
        q.args.emplace_back("prio", telemetry::Json(jb.priority));
        tracer.complete_event(std::move(q));
        tracer.flow_event('s', jb.id, label,
                          telemetry::Tracer::kSimPid, qTid,
                          us(jb.firstArrivalCycle));

        for (std::size_t i = 0; i < jb.attemptSpans.size(); ++i) {
            const AttemptSpan &at = jb.attemptSpans[i];
            int cardTid = 300 + static_cast<int>(at.card);
            telemetry::TraceEvent e;
            e.name = label + " attempt " + std::to_string(at.attempt);
            e.pid = telemetry::Tracer::kSimPid;
            e.tid = cardTid;
            e.tsUs = us(at.startCycle);
            e.durUs = us(at.endCycle - at.startCycle);
            e.args.emplace_back("job", telemetry::Json(jb.id));
            e.args.emplace_back("failed", telemetry::Json(at.failed));
            tracer.complete_event(std::move(e));
            bool last = i + 1 == jb.attemptSpans.size();
            tracer.flow_event(last ? 'f' : 't', jb.id, label,
                              telemetry::Tracer::kSimPid, cardTid,
                              us(at.startCycle));
        }
    }
}

void
ServingEngine::sample_tsdb(double cycle)
{
    // Every value below is simulated-clock state mutated only by the
    // drain thread (or read under mu_), so the sample stream — and
    // therefore the dump — is byte-identical at every thread count.
    {
        std::lock_guard<std::mutex> lk(mu_);
        const Outcomes &o = ledger_.totals();
        tsdb_.record("serve.jobs.completed", cycle,
                     static_cast<double>(o.completed));
        tsdb_.record("serve.jobs.failed", cycle,
                     static_cast<double>(o.failed));
        tsdb_.record("serve.jobs.expired", cycle,
                     static_cast<double>(o.expired));
        tsdb_.record("serve.jobs.shed", cycle,
                     static_cast<double>(o.shed));
        tsdb_.record("serve.jobs.retried", cycle,
                     static_cast<double>(retries_));
        tsdb_.record("serve.batches", cycle,
                     static_cast<double>(batches_));
    }
    tsdb_.record("serve.queue_depth", cycle,
                 static_cast<double>(sched_.depth()));
    tsdb_.record("serve.health.live_cards", cycle,
                 static_cast<double>(health_.live_cards()));
    tsdb_.record("serve.health.quarantines", cycle,
                 static_cast<double>(health_.quarantines()));
    for (std::size_t c = 0; c < shards_.size(); ++c) {
        const std::string i = std::to_string(c);
        tsdb_.record("serve.card." + i + ".busy_cycles", cycle,
                     shards_.stats(c).busyCycles);
        const CardHealth &h = health_.card(c);
        double state = h.dead ? 3.0
                       : h.state == BreakerState::Open     ? 2.0
                       : h.state == BreakerState::HalfOpen ? 1.0
                                                           : 0.0;
        tsdb_.record("serve.card." + i + ".breaker", cycle, state);
    }
    tsdb_.record_histogram("serve.latency_cycles", cycle,
                           latencyHist_);

    if (alerts_.empty()) return;
    std::vector<telemetry::AlertTransition> edges =
        alerts_.evaluate(cycle, tsdb_);
    for (const telemetry::AlertTransition &t : edges) {
        if (cfg_.exportTelemetry) {
            telemetry::count("serve.alerts.transitions");
            if (t.to == telemetry::AlertState::Firing) {
                telemetry::count("serve.alerts.fired");
            }
            if (t.from == telemetry::AlertState::Firing) {
                telemetry::count("serve.alerts.resolved");
            }
        }
        alertLog_.push_back(t);
    }
}

void
ServingEngine::export_alert_trace(bool teardown)
{
    telemetry::Tracer &tracer = telemetry::Tracer::global();
    if (!tracer.active() || alerts_.empty()) return;
    double clock = shards_.card(0).config().clockGHz;
    const std::vector<telemetry::AlertRule> &rules =
        alerts_.rules().rules;
    auto tid = [](std::size_t r) { return 450 + static_cast<int>(r); };
    for (std::size_t r = 0; r < rules.size(); ++r) {
        tracer.set_thread_name(telemetry::Tracer::kSimPid, tid(r),
                               "alert " + rules[r].metric);
    }
    using telemetry::AlertState;
    using telemetry::AlertTransition;
    walk_windows(
        alertLog_, alertTrack_, teardown, ledger_.totals().horizonCycles,
        [](const AlertTransition &t) {
            Edge edge = t.to == AlertState::Firing     ? Edge::Opens
                        : t.from == AlertState::Firing ? Edge::Closes
                                                       : Edge::None;
            return std::pair(t.rule, edge);
        },
        [&](std::size_t r, const AlertTransition &fired,
            const AlertTransition *, double endCycle) {
            telemetry::TraceEvent ev;
            ev.name = std::string("firing => ") +
                      telemetry::to_string(rules[r].severity);
            ev.pid = telemetry::Tracer::kSimPid;
            ev.tid = tid(r);
            ev.tsUs = cycles_to_us(fired.cycle, clock);
            ev.durUs = cycles_to_us(endCycle - fired.cycle, clock);
            ev.args.emplace_back("rule", telemetry::Json(rules[r].str()));
            ev.args.emplace_back("fired_cycle",
                                 telemetry::Json(fired.cycle));
            ev.args.emplace_back("end_cycle", telemetry::Json(endCycle));
            tracer.complete_event(std::move(ev));
        });
}

void
ServingEngine::drain()
{
    /// One card's work for the current round.
    struct Assignment
    {
        std::size_t card = 0;
        double startCycle = 0.0;
        std::vector<QueuedJob> batch;
        std::vector<hw::SimResult> results; // parallels batch
    };

    const bool chaosOn = chaos_->active();

    for (;;) {
        // ---- Ingest everything submitted since the last round (the
        // initial burst, or follow-ups from completion callbacks).
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (QueuedJob &qj : submissions_) {
                if (journal_.enabled()) {
                    JournalEvent ev;
                    ev.kind = JournalEventKind::Admitted;
                    ev.job = qj.id;
                    ev.cycle = qj.spec.arrivalCycle;
                    journal_.append(std::move(ev));
                }
                sched_.enqueue(std::move(qj));
            }
            submissions_.clear();
            maxQueueDepth_ = std::max(
                maxQueueDepth_, static_cast<u64>(sched_.depth()));
        }

        // ---- Admission control: shed the lowest-priority (then
        // newest) work down to the configured depth, as typed
        // Overloaded results rather than silent queue timeouts.
        if (cfg_.maxQueueDepth > 0 &&
            sched_.depth() > cfg_.maxQueueDepth) {
            shed(sched_.shed_to_depth(cfg_.maxQueueDepth),
                 "queue depth exceeded the admission limit");
            continue; // callbacks may have resubmitted
        }

        if (sched_.empty()) break;

        // ---- All cards dead: nothing will ever serve this queue.
        // Shed it as Overloaded instead of deadlocking.
        if (health_.all_dead()) {
            shed(sched_.drain_all(),
                 "every card is quarantined beyond recovery");
            continue;
        }

        // ---- The round time T: the earliest simulated cycle any
        // card can do *anything* — run a batch, or probe its way out
        // of quarantine. All decisions below read queue/clock state
        // at T only, so the schedule is host-timing-free.
        double t0 = kInf;
        for (std::size_t c = 0; c < shards_.size(); ++c) {
            double avail = health_.available_at(
                c, shards_.stats(c).freeAtCycle);
            t0 = std::min(t0, avail);
        }
        double tArr = sched_.earliest_head_arrival();
        double T = std::max(t0, tArr);
        POSEIDON_CHECK(std::isfinite(T), "serving clock diverged");
        clock_ = std::max(clock_, T);

        // ---- TSDB sampling: record one sample at every cadence grid
        // cycle the fleet clock has crossed. Part of the round's
        // single-threaded bookkeeping, so the sample stream is
        // host-timing-free like every other decision at T.
        if (cfg_.tsdbCadenceCycles > 0.0) {
            while (nextSampleCycle_ <= T) {
                sample_tsdb(nextSampleCycle_);
                nextSampleCycle_ += cfg_.tsdbCadenceCycles;
            }
        }

        // ---- Offer T to every card available at T, in (available,
        // index) order. Quarantined cards whose cooldown elapsed get
        // a probe instead of work; OPEN cards inside their cooldown
        // and dead cards are skipped entirely.
        std::vector<std::size_t> order;
        for (std::size_t c = 0; c < shards_.size(); ++c) {
            if (health_.available_at(c, shards_.stats(c).freeAtCycle)
                <= T) {
                order.push_back(c);
            }
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return shards_.stats(a).freeAtCycle <
                                    shards_.stats(b).freeAtCycle;
                         });

        // Probes first: a card on probation re-earns admission with
        // synthesized low-priority work, never with client jobs.
        bool probed = false;
        for (std::size_t c : order) {
            if (health_.wants_probe(c, T)) {
                dispatch_probe(c, T);
                probed = true;
            }
        }

        // The failover filter for each card: skip jobs that already
        // faulted on it, unless the job has faulted on every live
        // card (then exclusion is waived — there is nowhere else).
        std::size_t live = health_.live_cards();
        auto excluded_from = [&](std::size_t card) {
            return JobFilter([this, card, live](const QueuedJob &j) {
                if (j.faultedCards.empty()) return false;
                std::size_t liveFaulted = 0;
                for (std::size_t f : j.faultedCards) {
                    if (f < shards_.size() &&
                        !health_.card(f).dead) {
                        ++liveFaulted;
                    }
                }
                if (liveFaulted >= live) return false; // waived
                return j.has_faulted_on(card);
            });
        };

        std::vector<ExpiredJob> expired;
        std::vector<Assignment> round;
        for (std::size_t c : order) {
            if (!health_.admissible(c, T)) continue;
            if (shards_.stats(c).freeAtCycle > T) continue; // probing
            std::vector<QueuedJob> batch =
                sched_.pick_batch(c, T, expired, excluded_from(c));
            if (batch.empty()) continue;
            Assignment a;
            a.card = c;
            a.startCycle = T;
            a.batch = std::move(batch);
            a.results.resize(a.batch.size());
            round.push_back(std::move(a));
        }

        // Dispatch-time deadline misses terminate before any
        // completion of this round (they happen at T).
        for (ExpiredJob &e : expired) {
            std::ostringstream msg;
            msg << "deadline " << e.job.spec.deadlineCycle
                << " passed before dispatch at cycle "
                << e.expiredAtCycle;
            finish_job(std::move(e.job),
                       {.state = JobState::Expired,
                        .errorCode = ErrorCode::kOverloaded,
                        .finishCycle = e.expiredAtCycle,
                        .error = msg.str()});
        }

        if (round.empty()) {
            if (probed) continue; // probes advanced some card clocks
            if (sched_.empty()) continue; // expiries emptied the queue
            // Every available card is excluded from every eligible
            // head, or all free cards are quarantined. Idle forward
            // to the next event: a busy card releasing, a cooldown
            // expiring, or a future arrival.
            double tNext = kInf;
            for (std::size_t c = 0; c < shards_.size(); ++c) {
                double avail = health_.available_at(
                    c, shards_.stats(c).freeAtCycle);
                if (avail > T) tNext = std::min(tNext, avail);
            }
            double arr = sched_.earliest_head_arrival();
            if (arr > T) tNext = std::min(tNext, arr);
            POSEIDON_CHECK(std::isfinite(tNext),
                           "serving engine stalled at cycle " << T);
            for (std::size_t c : order) {
                if (shards_.stats(c).freeAtCycle < tNext) {
                    shards_.stats(c).freeAtCycle = tNext;
                }
            }
            continue;
        }

        // ---- Price every attempt of the round concurrently on the
        // host pool. Pricing (and chaos injection) is a pure function
        // of (card, trace, job, attempt, dispatch cycle), so chunk
        // order cannot change any modeled number.
        std::vector<std::pair<std::size_t, std::size_t>> flat;
        for (std::size_t ai = 0; ai < round.size(); ++ai) {
            for (std::size_t ji = 0; ji < round[ai].batch.size(); ++ji) {
                flat.emplace_back(ai, ji);
            }
        }
        parallel::parallel_for(
            0, flat.size(), 1,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t f = lo; f < hi; ++f) {
                    auto [ai, ji] = flat[f];
                    Assignment &a = round[ai];
                    const QueuedJob &qj = a.batch[ji];
                    a.results[ji] = shards_.price(
                        a.card, qj.spec.trace, qj.id, qj.attempt);
                    if (chaosOn) {
                        chaos_->perturb(a.card, qj.id, qj.attempt,
                                        a.startCycle, a.results[ji]);
                    }
                }
            },
            "serve.price");

        // ---- Completion bookkeeping, in card order (deterministic).
        for (Assignment &a : round) {
            CardStats &cs = shards_.stats(a.card);
            double cum = a.startCycle + cfg_.dispatchCycles;
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++batches_;
            }
            ++cs.batches;
            for (std::size_t ji = 0; ji < a.batch.size(); ++ji) {
                QueuedJob &qj = a.batch[ji];
                hw::SimResult &sim = a.results[ji];
                double start = cum;
                cum += sim.cycles;
                ++cs.jobs;
                sched_.charge(qj.spec.tenant, sim.cycles);
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ledger_.attain(qj.spec.tenant, sim.cycles);
                }

                const u64 attemptsUsed = ++qj.attempt;
                bool silent = sim.faults.silent > 0;
                bool overBudget = sim.faults.retryCycles >
                                  qj.spec.retry.retryCycleBudget;
                bool failedAttempt = silent || overBudget;
                if (journal_.enabled()) {
                    shards_.journal_attempt(journal_, a.card, qj.id,
                                            attemptsUsed, start, cum,
                                            sim.cycles,
                                            failedAttempt);
                }

                // Feed the circuit breaker; a trip quarantines the
                // card from the next round on (queued work flows to
                // the rest of the fleet automatically).
                bool tripped = health_.record_attempt(
                    a.card, cum, sim.faults, sim.cycles,
                    failedAttempt);
                if (tripped && cfg_.exportTelemetry) {
                    telemetry::count("serve.health.quarantines");
                }

                if (failedAttempt) {
                    ++cs.failedAttempts;
                    const char *cause = silent
                                            ? "silent corruption past ECC"
                                            : "ECC retry budget exceeded";
                    const RetryPolicy &rp = qj.spec.retry;
                    if (attemptsUsed < rp.maxAttempts) {
                        // Exponential backoff on the simulated clock;
                        // skip the retry outright when it cannot meet
                        // the deadline anyway.
                        double backoff =
                            rp.backoffBaseCycles *
                            std::pow(rp.backoffMultiplier,
                                     static_cast<double>(
                                         attemptsUsed - 1));
                        double nextArrival = cum + backoff;
                        double estCost =
                            cfg_.dispatchCycles + sim.cycles;
                        if (nextArrival + estCost <=
                            qj.spec.deadlineCycle) {
                            if (!qj.has_faulted_on(a.card)) {
                                qj.faultedCards.push_back(a.card);
                            }
                            qj.spec.arrivalCycle = nextArrival;
                            if (journal_.enabled()) {
                                JournalEvent fr;
                                fr.kind =
                                    JournalEventKind::FaultRetry;
                                fr.job = qj.id;
                                fr.cycle = cum;
                                fr.card = a.card;
                                fr.attempt = attemptsUsed;
                                fr.detail = cause;
                                journal_.append(std::move(fr));
                                JournalEvent bo;
                                bo.kind = JournalEventKind::
                                    BackoffScheduled;
                                bo.job = qj.id;
                                bo.cycle = cum;
                                bo.attempt = attemptsUsed;
                                bo.value = nextArrival;
                                journal_.append(std::move(bo));
                            }
                            {
                                std::lock_guard<std::mutex> lk(mu_);
                                ++retries_;
                            }
                            if (cfg_.exportTelemetry) {
                                telemetry::count(
                                    "serve.jobs.retried");
                            }
                            sched_.enqueue(std::move(qj));
                            continue;
                        }
                    }
                    std::ostringstream msg;
                    msg << cause << " on card " << a.card << " (attempt "
                        << attemptsUsed << "/"
                        << qj.spec.retry.maxAttempts << ")";
                    if (attemptsUsed < qj.spec.retry.maxAttempts) {
                        msg << "; retry skipped: backoff + estimated "
                               "cost cannot meet deadline "
                            << qj.spec.deadlineCycle;
                    }
                    finish_job(std::move(qj),
                               {.state = JobState::Failed,
                                .errorCode = ErrorCode::kFaultDetected,
                                .card = a.card,
                                .startCycle = start,
                                .finishCycle = cum,
                                .error = msg.str()});
                    continue;
                }
                finish_job(std::move(qj),
                           {.state = JobState::Completed,
                            .card = a.card,
                            .startCycle = start,
                            .finishCycle = cum,
                            .sim = sim});
            }
            cs.busyCycles += cum - a.startCycle;
            cs.freeAtCycle = cum;
        }
        refresh_gauges();
    }

    refresh_gauges();
    export_health_trace(false);
    if (cfg_.tsdbCadenceCycles > 0.0) {
        // Final flush at the serving horizon, so the last samples see
        // the terminal state; the grid then resumes past it.
        double end;
        {
            std::lock_guard<std::mutex> lk(mu_);
            end = std::max(clock_, ledger_.totals().horizonCycles);
        }
        sample_tsdb(end);
        while (nextSampleCycle_ <= end) {
            nextSampleCycle_ += cfg_.tsdbCadenceCycles;
        }
        export_alert_trace(false);
        if (cfg_.exportTelemetry && telemetry::enabled()) {
            telemetry::gauge_set(
                "serve.alerts.firing",
                static_cast<double>(alerts_.firing()));
        }
    }
    if (cfg_.exportTelemetry && telemetry::enabled()) {
        stats().export_metrics(telemetry::MetricsRegistry::global());
    }
    if (journal_.enabled() && journal_.size() > decomposedEvents_) {
        // Every job accepted before this point is terminal, so the
        // events since the previous drain are whole walks: each job
        // is decomposed (and its conservation self-checked) once, in
        // the drain that finishes it.
        BreakdownReport br = decompose(journal_, decomposedEvents_);
        decomposedEvents_ = journal_.size();
        phaseTotals_.add(br);
        if (cfg_.exportTelemetry && telemetry::enabled()) {
            telemetry::MetricsRegistry &reg =
                telemetry::MetricsRegistry::global();
            br.export_metrics(reg);
            phaseTotals_.export_metrics(reg);
        }
        export_job_flows(br);
    }
}

ServeStats
ServingEngine::stats() const
{
    ServeStats s;
    std::lock_guard<std::mutex> lk(mu_);
    ledger_.fill(s);
    s.retries = retries_;
    s.batches = batches_;
    s.maxQueueDepth = maxQueueDepth_;
    s.quarantines = health_.quarantines();
    s.readmissions = health_.readmissions();
    s.probes = health_.probes();
    s.clockGHz = shards_.card(0).config().clockGHz;
    s.cards = shards_.stats();
    for (const CardStats &c : s.cards) s.busyCycles += c.busyCycles;
    s.health.reserve(health_.size());
    for (std::size_t i = 0; i < health_.size(); ++i) {
        s.health.push_back(health_.card(i));
    }
    return s;
}

} // namespace poseidon::serve
