#include "cluster/cluster.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "hw/faults.h"
#include "telemetry/text_format.h"

namespace poseidon::cluster {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cards in one host (the router refuses a template with none).
std::size_t
cards_per_host(const serve::ServeConfig &host)
{
    return host.fleet.empty() ? host.cards : host.fleet.size();
}

hw::HwConfig
estimator_card(const ClusterConfig &cfg)
{
    hw::HwConfig card = cfg.host.card;
    // The placement estimate prices the fault-free shape; per-card
    // ECC campaigns stay a per-host engine concern.
    card.faults = hw::FaultConfig{};
    return card;
}

} // namespace

const char*
to_string(Placement p)
{
    switch (p) {
      case Placement::Locality: return "locality";
      case Placement::RoundRobin: return "round-robin";
      case Placement::Random: return "random";
      case Placement::LeastLoaded: return "least-loaded";
    }
    return "?";
}

bool
placement_from_string(const std::string &s, Placement &out)
{
    std::string k;
    for (char c : s) {
        if (c == '-' || c == '_' ||
            std::isspace(static_cast<unsigned char>(c)))
            continue;
        k += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (k == "locality") {
        out = Placement::Locality;
    } else if (k == "roundrobin" || k == "rr") {
        out = Placement::RoundRobin;
    } else if (k == "random") {
        out = Placement::Random;
    } else if (k == "leastloaded" || k == "ll") {
        out = Placement::LeastLoaded;
    } else {
        return false;
    }
    return true;
}

std::vector<HostDeath>
parse_host_chaos(const std::string &dsl)
{
    std::vector<HostDeath> out;
    for (const telemetry::Clause &c :
         telemetry::parse_clauses(dsl, "host-chaos")) {
        POSEIDON_REQUIRE(c.kind == "HostDeath",
                         c.where << " is not HostDeath{...}");
        HostDeath d;
        bool sawHost = false;
        bool sawCycle = false;
        for (const auto &[key, val] : c.fields) {
            if (key == "host") {
                d.host = telemetry::parse_integer<std::size_t>(val, c.where);
                sawHost = true;
            } else if (key == "cycle") {
                d.cycle = telemetry::parse_number(val, c.where);
                sawCycle = true;
            } else {
                POSEIDON_THROW(InvalidArgument, c.where
                               << ": unknown key \"" << key << "\"");
            }
        }
        POSEIDON_REQUIRE(sawHost && sawCycle,
                         c.where << ": HostDeath needs host= and cycle=");
        out.push_back(d);
    }
    return out;
}

telemetry::Json
ClusterStats::to_json() const
{
    using telemetry::Json;
    Json j = Json::object();
    j.set("submitted", Json(submitted));
    j.set("completed", Json(completed));
    j.set("failed", Json(failed));
    j.set("expired", Json(expired));
    j.set("shed", Json(shed));
    j.set("rerouted", Json(rerouted));
    j.set("placements", Json(placements));
    j.set("locality_hits", Json(localityHits));
    j.set("locality_hit_rate", Json(locality_hit_rate()));
    j.set("key_transfers", Json(keyTransfers));
    j.set("key_evictions", Json(keyEvictions));
    j.set("key_transfer_bytes", Json(keyTransferBytes));
    j.set("key_transfer_cycles", Json(keyTransferCycles));
    j.set("scale_ups", Json(scaleUps));
    j.set("scale_downs", Json(scaleDowns));
    j.set("host_deaths", Json(hostDeaths));
    j.set("active_hosts", Json(static_cast<u64>(activeHosts)));
    j.set("peak_active_hosts",
          Json(static_cast<u64>(peakActiveHosts)));
    j.set("horizon_cycles", Json(horizonCycles));
    j.set("clock_ghz", Json(clockGHz));
    j.set("p50_latency_cycles", Json(p50LatencyCycles));
    j.set("p99_latency_cycles", Json(p99LatencyCycles));
    j.set("conserved", Json(conserved()));
    Json jt = Json::object();
    for (const auto &[name, t] : tenants) jt.set(name, t.to_json());
    j.set("tenants", std::move(jt));
    Json jh = Json::array();
    for (const HostSummary &h : hosts) {
        Json e = Json::object();
        e.set("spawned", Json(h.spawned));
        e.set("active", Json(h.active));
        e.set("alive", Json(h.alive));
        e.set("draining", Json(h.draining));
        e.set("placed", Json(h.placed));
        e.set("rerouted", Json(h.rerouted));
        e.set("key_transfers", Json(h.keyTransfers));
        e.set("key_transfer_bytes", Json(h.keyTransferBytes));
        e.set("resident_key_bytes", Json(h.residentKeyBytes));
        e.set("engine_completed", Json(h.engine.completed));
        e.set("engine_busy_cycles", Json(h.engine.busyCycles));
        e.set("engine_horizon_cycles", Json(h.engine.horizonCycles));
        jh.push_back(std::move(e));
    }
    j.set("hosts", std::move(jh));
    return j;
}

void
ClusterStats::export_metrics(telemetry::MetricsRegistry &reg) const
{
    reg.gauge("cluster.hosts").set(static_cast<double>(hosts.size()));
    reg.gauge("cluster.active_hosts")
        .set(static_cast<double>(activeHosts));
    reg.gauge("cluster.jobs.submitted")
        .set(static_cast<double>(submitted));
    reg.gauge("cluster.jobs.completed")
        .set(static_cast<double>(completed));
    reg.gauge("cluster.jobs.failed").set(static_cast<double>(failed));
    reg.gauge("cluster.jobs.expired")
        .set(static_cast<double>(expired));
    reg.gauge("cluster.jobs.shed").set(static_cast<double>(shed));
    reg.gauge("cluster.jobs.rerouted")
        .set(static_cast<double>(rerouted));
    reg.gauge("cluster.locality_hit_rate").set(locality_hit_rate());
    reg.gauge("cluster.key_transfer_bytes").set(keyTransferBytes);
    reg.gauge("cluster.horizon_cycles").set(horizonCycles);
    reg.gauge("cluster.p99_latency_cycles").set(p99LatencyCycles);
}

ClusterRouter::ClusterRouter(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      tsdb_(0.0, cfg_.host.tsdbCapacity),
      estimator_(estimator_card(cfg_))
{
    POSEIDON_REQUIRE_T(InvalidArgument, cfg_.hosts >= 1,
                       "cluster needs at least one host");
    POSEIDON_REQUIRE_T(InvalidArgument, cards_per_host(cfg_.host) >= 1,
                       "cluster host template needs at least one card");
    POSEIDON_REQUIRE_T(InvalidArgument,
                       cfg_.keyCacheShare > 0.0 &&
                           cfg_.keyCacheShare <= 1.0,
                       "keyCacheShare must be in (0, 1], got "
                           << cfg_.keyCacheShare);
    hosts_.resize(cfg_.hosts);
    std::size_t startActive = cfg_.hosts;
    if (cfg_.autoscale.enabled) {
        startActive = std::max<std::size_t>(
            1, std::min(cfg_.autoscale.minHosts, cfg_.hosts));
    }
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        hosts_[h].deathCycle = kInf;
        hosts_[h].active = h < startActive;
    }
    peakActiveHosts_ = startActive;
    deaths_ = parse_host_chaos(cfg_.hostChaos);
    for (const HostDeath &d : deaths_) {
        POSEIDON_REQUIRE_T(InvalidArgument, d.host < cfg_.hosts,
                           "HostDeath host " << d.host
                                             << " out of range (fleet "
                                             << cfg_.hosts << ")");
        hosts_[d.host].deathCycle =
            std::min(hosts_[d.host].deathCycle, d.cycle);
    }
    lastAutoscaleCycle_ = -kInf;
    journal_.set_enabled(cfg_.journal);
    journal_.set_meta(cfg_.host.card.clockGHz, cfg_.hosts);
}

ClusterRouter::~ClusterRouter() = default;

double
ClusterRouter::key_bytes(const std::string &tenant) const
{
    auto it = cfg_.tenantKeyBytes.find(tenant);
    return it == cfg_.tenantKeyBytes.end() ? cfg_.defaultKeyBytes
                                           : it->second;
}

double
ClusterRouter::host_key_capacity() const
{
    return static_cast<double>(cards_per_host(cfg_.host)) *
           cfg_.host.card.hbm_capacity_bytes() * cfg_.keyCacheShare;
}

const double*
PriceMemo::find(const isa::Trace &trace, u64 fingerprint) const
{
    auto [lo, hi] = entries_.equal_range(fingerprint);
    for (auto it = lo; it != hi; ++it) {
        if (it->second.instrs == trace.instrs()) return &it->second.cost;
    }
    return nullptr;
}

void
PriceMemo::insert(const isa::Trace &trace, u64 fingerprint, double cost)
{
    if (entries_.size() >= kMaxEntries || find(trace, fingerprint)) {
        return;
    }
    entries_.emplace(fingerprint, Entry{trace.instrs(), cost});
}

double
ClusterRouter::est_cost_cycles(const serve::JobSpec &spec)
{
    const u64 fp = spec.trace.fingerprint();
    if (const double *hit = estimates_.find(spec.trace, fp)) return *hit;
    double cost =
        estimator_.run(spec.trace).cycles + cfg_.host.dispatchCycles;
    estimates_.insert(spec.trace, fp, cost);
    return cost;
}

serve::ServingEngine&
ClusterRouter::ensure_engine(std::size_t h)
{
    Host &host = hosts_[h];
    if (!host.engine) {
        serve::ServeConfig hc = cfg_.host;
        // Per-host fault-seed lineage: equal templates still run
        // independent ECC campaigns on every host.
        hc.card.faults.seed =
            hw::mix_seed(hw::mix_seed(cfg_.seed, 0x486F5374ULL),
                         static_cast<u64>(h)) ^
            hc.card.faults.seed;
        for (hw::HwConfig &c : hc.fleet) {
            c.faults.seed =
                hw::mix_seed(hw::mix_seed(cfg_.seed, 0x486F5374ULL),
                             static_cast<u64>(h)) ^
                c.faults.seed;
        }
        // Host engines publishing serve.* into the one global
        // registry would stomp each other; the cluster exports
        // cluster.* itself and merges host TSDBs instead.
        hc.exportTelemetry = false;
        host.engine =
            std::make_unique<serve::ServingEngine>(std::move(hc));
    }
    return *host.engine;
}

ClusterTicket
ClusterRouter::submit(serve::JobSpec spec)
{
    serve::prepare_job(spec);
    POSEIDON_REQUIRE(key_bytes(spec.tenant) <= host_key_capacity(),
                     "submit: tenant \"" << spec.tenant << "\" needs "
                     << key_bytes(spec.tenant)
                     << " bytes of evaluation keys, more than a host's "
                        "modeled HBM key cache ("
                     << host_key_capacity() << " bytes)");
    Tracked t;
    t.callback = std::move(spec.callback);
    spec.callback = nullptr;
    t.originalArrival = spec.arrivalCycle;
    t.spec = std::move(spec);
    ClusterTicket ticket;
    {
        std::lock_guard<std::mutex> lk(mu_);
        t.id = nextId_++;
        ledger_.submit(t.spec.tenant);
        ticket.id = t.id;
        ticket.result = t.promise.get_future().share();
        ClusterEvent ev;
        ev.kind = ClusterEventKind::Submitted;
        ev.job = t.id;
        ev.cycle = t.spec.arrivalCycle;
        ev.tenant = t.spec.tenant;
        journal_.append(std::move(ev));
        pending_.push_back(std::move(t));
    }
    return ticket;
}

std::size_t
ClusterRouter::in_flight() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return pending_.size() + inFlight_.size();
}

std::size_t
ClusterRouter::active_hosts() const
{
    std::size_t n = 0;
    for (const Host &h : hosts_) {
        if (h.active && !h.draining) ++n;
    }
    return n;
}

const serve::ServingEngine*
ClusterRouter::host_engine(std::size_t host) const
{
    if (host >= hosts_.size()) return nullptr;
    return hosts_[host].engine.get();
}

void
ClusterRouter::charge_key_transfer(std::size_t h,
                                   const std::string &tenant,
                                   ClusterJobId job, double cycle)
{
    Host &host = hosts_[h];
    const double kb = key_bytes(tenant);
    const double cap = host_key_capacity();
    while (host.residentKeyBytes + kb > cap &&
           !host.residentKeys.empty()) {
        auto victim = host.residentKeys.begin();
        for (auto it = host.residentKeys.begin();
             it != host.residentKeys.end(); ++it) {
            if (it->second < victim->second) victim = it;
        }
        double vb = key_bytes(victim->first);
        host.residentKeyBytes =
            std::max(0.0, host.residentKeyBytes - vb);
        ClusterEvent ev;
        ev.kind = ClusterEventKind::KeyEvicted;
        ev.cycle = cycle;
        ev.tenant = victim->first;
        ev.host = h;
        ev.value = vb;
        journal_.append(std::move(ev));
        host.residentKeys.erase(victim);
        ++keyEvictions_;
    }
    host.residentKeys[tenant] = cycle;
    host.residentKeyBytes += kb;
    ++keyTransfers_;
    ++host.keyTransfers;
    keyTransferBytes_ += kb;
    host.keyTransferBytes += kb;
    keyTransferCycles_ += cfg_.host.card.transfer_cycles(kb);
    ClusterEvent ev;
    ev.kind = ClusterEventKind::KeyTransfer;
    ev.job = job;
    ev.cycle = cycle;
    ev.tenant = tenant;
    ev.host = h;
    ev.value = kb;
    journal_.append(std::move(ev));
}

std::size_t
ClusterRouter::pick_host(const Tracked &t, double arrival,
                         double estCost, bool &localityHit,
                         bool &needTransfer)
{
    localityHit = false;
    needTransfer = false;
    std::vector<std::size_t> elig;
    elig.reserve(hosts_.size());
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        const Host &x = hosts_[h];
        if (x.active && !x.draining && arrival < x.deathCycle)
            elig.push_back(h);
    }
    if (elig.empty()) return ClusterEvent::kNoHost;

    const double kb = key_bytes(t.spec.tenant);
    const double cards = static_cast<double>(cards_per_host(cfg_.host));
    std::size_t chosen = elig.front();
    switch (cfg_.placement) {
      case Placement::RoundRobin:
        chosen = elig[rrNext_++ % elig.size()];
        break;
      case Placement::Random:
        chosen = elig[hw::mix_seed(cfg_.seed, t.id) % elig.size()];
        break;
      case Placement::LeastLoaded: {
        for (std::size_t h : elig) {
            if (hosts_[h].freeAtCycle < hosts_[chosen].freeAtCycle)
                chosen = h;
        }
        break;
      }
      case Placement::Locality: {
        double best = kInf;
        for (std::size_t h : elig) {
            const Host &x = hosts_[h];
            double eff = std::max(arrival, x.readyAtCycle);
            if (x.residentKeys.find(t.spec.tenant) ==
                x.residentKeys.end()) {
                eff += cfg_.host.card.transfer_cycles(kb);
            }
            double finish =
                std::max(x.freeAtCycle, eff) + estCost / cards;
            if (finish < best) {
                best = finish;
                chosen = h;
            }
        }
        break;
      }
    }
    bool resident =
        hosts_[chosen].residentKeys.find(t.spec.tenant) !=
        hosts_[chosen].residentKeys.end();
    localityHit = resident;
    needTransfer = !resident;
    return chosen;
}

void
ClusterRouter::autoscale_step(double cycle)
{
    const AutoscaleConfig &as = cfg_.autoscale;
    if (!as.enabled) return;
    double sum = 0.0;
    std::size_t active = 0;
    for (const Host &x : hosts_) {
        if (!x.active || x.draining || cycle >= x.deathCycle) continue;
        ++active;
        double backlog = std::max(0.0, x.freeAtCycle - cycle);
        sum += std::min(1.0, backlog / std::max(1.0, as.windowCycles));
    }
    lastPressure_ = active == 0 ? 1.0 : sum / static_cast<double>(active);
    if (cycle - lastAutoscaleCycle_ < as.cooldownCycles) return;
    if (lastPressure_ > as.scaleUpPressure) {
        for (std::size_t h = 0; h < hosts_.size(); ++h) {
            Host &x = hosts_[h];
            if (cycle >= x.deathCycle) continue;
            bool revivable = x.active && x.draining;
            bool parked = !x.active && x.alive;
            if (!revivable && !parked) continue;
            if (revivable) {
                x.draining = false;
            } else {
                x.active = true;
                x.readyAtCycle = cycle + as.spinUpCycles;
                x.freeAtCycle =
                    std::max(x.freeAtCycle, x.readyAtCycle);
            }
            ++scaleUps_;
            lastAutoscaleCycle_ = cycle;
            peakActiveHosts_ =
                std::max(peakActiveHosts_, active_hosts());
            ClusterEvent ev;
            ev.kind = ClusterEventKind::ScaleUp;
            ev.cycle = cycle;
            ev.host = h;
            ev.value = lastPressure_;
            journal_.append(std::move(ev));
            return;
        }
        return;
    }
    if (lastPressure_ < as.scaleDownPressure &&
        active > std::max<std::size_t>(1, as.minHosts)) {
        std::size_t victim = hosts_.size();
        for (std::size_t h = 0; h < hosts_.size(); ++h) {
            const Host &x = hosts_[h];
            if (!x.active || x.draining || cycle >= x.deathCycle)
                continue;
            if (victim == hosts_.size() ||
                x.freeAtCycle < hosts_[victim].freeAtCycle) {
                victim = h;
            }
        }
        if (victim == hosts_.size()) return;
        hosts_[victim].draining = true;
        ++scaleDowns_;
        lastAutoscaleCycle_ = cycle;
        ClusterEvent ev;
        ev.kind = ClusterEventKind::ScaleDown;
        ev.cycle = cycle;
        ev.host = victim;
        ev.value = lastPressure_;
        journal_.append(std::move(ev));
    }
}

void
ClusterRouter::process_deaths(double clusterClock)
{
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        Host &x = hosts_[h];
        if (x.deathLogged || x.deathCycle > clusterClock) continue;
        x.deathLogged = true;
        x.alive = false;
        x.active = false;
        x.draining = false;
        ++hostDeaths_;
        ClusterEvent dev;
        dev.kind = ClusterEventKind::HostDeath;
        dev.cycle = x.deathCycle;
        dev.host = h;
        journal_.append(std::move(dev));
        for (const auto &kv : x.residentKeys) {
            ++keyEvictions_;
            ClusterEvent ev;
            ev.kind = ClusterEventKind::KeyEvicted;
            ev.cycle = x.deathCycle;
            ev.tenant = kv.first;
            ev.host = h;
            ev.value = key_bytes(kv.first);
            ev.detail = "host-death";
            journal_.append(std::move(ev));
        }
        x.residentKeys.clear();
        x.residentKeyBytes = 0.0;
    }
}

void
ClusterRouter::resolve(Tracked t, serve::JobResult r)
{
    r.id = t.id;
    r.tenant = t.spec.tenant;
    if (r.name.empty()) r.name = t.spec.name;
    r.arrivalCycle = t.originalArrival;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ledger_.finish(r);
    }
    ClusterEvent ev;
    ev.kind = ClusterEventKind::Resolved;
    ev.job = t.id;
    ev.cycle = r.finishCycle;
    ev.tenant = t.spec.tenant;
    ev.host = t.host;
    ev.value = r.latency_cycles();
    ev.detail = serve::to_string(r.state);
    journal_.append(std::move(ev));
    t.promise.set_value(r);
    if (t.callback) t.callback(r);
}

void
ClusterRouter::place(Tracked t)
{
    const double arrival = t.spec.arrivalCycle;
    autoscale_step(arrival);

    bool hit = false;
    bool transfer = false;
    const double estCost = est_cost_cycles(t.spec);
    std::size_t h = pick_host(t, arrival, estCost, hit, transfer);
    if (h == ClusterEvent::kNoHost) {
        serve::JobResult r;
        r.state = serve::JobState::Failed;
        r.errorCode = ErrorCode::kFaultDetected;
        r.error = "no live host accepts placements";
        r.finishCycle = arrival;
        resolve(std::move(t), std::move(r));
        return;
    }

    Host &host = hosts_[h];
    double eff = std::max(arrival, host.readyAtCycle);
    if (transfer) {
        charge_key_transfer(h, t.spec.tenant, t.id, arrival);
        eff += cfg_.host.card.transfer_cycles(key_bytes(t.spec.tenant));
    } else {
        host.residentKeys[t.spec.tenant] = arrival;
    }
    ++placements_;
    if (hit) ++localityHits_;
    ++host.placed;
    ClusterEvent ev;
    ev.kind = ClusterEventKind::Placed;
    ev.job = t.id;
    ev.cycle = arrival;
    ev.tenant = t.spec.tenant;
    ev.host = h;
    ev.value = estCost;
    ev.detail = hit ? "locality-hit" : "locality-miss";
    journal_.append(std::move(ev));

    host.freeAtCycle = std::max(host.freeAtCycle, eff) +
                       estCost / static_cast<double>(
                                     cards_per_host(cfg_.host));
    t.host = h;

    serve::JobSpec spec = t.spec;
    spec.arrivalCycle = eff;
    spec.callback = [this, id = t.id](const serve::JobResult &r) {
        roundResults_.emplace_back(id, r);
    };
    ensure_engine(h).submit(std::move(spec));
    {
        std::lock_guard<std::mutex> lk(mu_);
        inFlight_.emplace(t.id, std::move(t));
    }
}

void
ClusterRouter::sample_round(double clusterClock)
{
    roundClock_ = std::max(roundClock_, clusterClock);
    const double c = roundClock_;
    std::size_t inflight;
    {
        std::lock_guard<std::mutex> lk(mu_);
        inflight = pending_.size() + inFlight_.size();
    }
    std::size_t alive = 0;
    for (const Host &x : hosts_) {
        if (x.alive) ++alive;
    }
    tsdb_.record("cluster.in_flight", c,
                 static_cast<double>(inflight));
    tsdb_.record("cluster.active_hosts", c,
                 static_cast<double>(active_hosts()));
    tsdb_.record("cluster.alive_hosts", c,
                 static_cast<double>(alive));
    const serve::Outcomes &o = ledger_.totals();
    tsdb_.record("cluster.jobs.completed", c,
                 static_cast<double>(o.completed));
    tsdb_.record("cluster.jobs.failed", c,
                 static_cast<double>(o.failed));
    tsdb_.record("cluster.jobs.expired", c,
                 static_cast<double>(o.expired));
    tsdb_.record("cluster.jobs.shed", c, static_cast<double>(o.shed));
    tsdb_.record("cluster.jobs.rerouted", c,
                 static_cast<double>(rerouted_));
    tsdb_.record("cluster.placements", c,
                 static_cast<double>(placements_));
    tsdb_.record("cluster.locality_hits", c,
                 static_cast<double>(localityHits_));
    tsdb_.record("cluster.key_transfers", c,
                 static_cast<double>(keyTransfers_));
    tsdb_.record("cluster.key_transfer_bytes", c, keyTransferBytes_);
    tsdb_.record("cluster.autoscale.pressure", c, lastPressure_);
}

void
ClusterRouter::drain()
{
    while (true) {
        std::vector<Tracked> batch;
        {
            std::lock_guard<std::mutex> lk(mu_);
            while (!pending_.empty()) {
                batch.push_back(std::move(pending_.front()));
                pending_.pop_front();
            }
        }
        if (batch.empty()) break;
        std::stable_sort(
            batch.begin(), batch.end(),
            [](const Tracked &a, const Tracked &b) {
                if (a.spec.arrivalCycle != b.spec.arrivalCycle)
                    return a.spec.arrivalCycle < b.spec.arrivalCycle;
                return a.id < b.id;
            });
        double clock = roundClock_;
        for (Tracked &t : batch) {
            clock = std::max(clock, t.spec.arrivalCycle);
            place(std::move(t));
        }
        for (Host &x : hosts_) {
            if (x.engine) x.engine->drain();
        }
        for (const auto &pr : roundResults_) {
            clock = std::max(clock, pr.second.finishCycle);
        }
        process_deaths(clock);
        std::vector<std::pair<ClusterJobId, serve::JobResult>>
            results = std::move(roundResults_);
        roundResults_.clear();
        for (auto &pr : results) {
            Tracked t;
            {
                std::lock_guard<std::mutex> lk(mu_);
                auto it = inFlight_.find(pr.first);
                if (it == inFlight_.end()) continue;
                t = std::move(it->second);
                inFlight_.erase(it);
            }
            Host &hh = hosts_[t.host];
            const bool lost = std::isfinite(hh.deathCycle) &&
                              pr.second.finishCycle > hh.deathCycle;
            if (!lost) {
                resolve(std::move(t), std::move(pr.second));
                continue;
            }
            if (t.reroutes < kRerouteBudget) {
                ++t.reroutes;
                ++rerouted_;
                ++hh.rerouted;
                double rearrival =
                    std::max(t.spec.arrivalCycle, hh.deathCycle) +
                    kRerouteDelayCycles;
                t.spec.arrivalCycle = rearrival;
                ClusterEvent ev;
                ev.kind = ClusterEventKind::Rerouted;
                ev.job = t.id;
                ev.cycle = rearrival;
                ev.tenant = t.spec.tenant;
                ev.host = t.host;
                ev.value = static_cast<double>(t.reroutes);
                ev.detail = "host died before finish";
                journal_.append(std::move(ev));
                t.host = ClusterEvent::kNoHost;
                std::lock_guard<std::mutex> lk(mu_);
                pending_.push_back(std::move(t));
            } else {
                serve::JobResult r;
                r.state = serve::JobState::Failed;
                r.errorCode = ErrorCode::kFaultDetected;
                r.error = "host died; reroute budget exhausted";
                r.finishCycle =
                    std::max(t.spec.arrivalCycle, hh.deathCycle) +
                    kRerouteDelayCycles;
                resolve(std::move(t), std::move(r));
            }
        }
        sample_round(clock);
    }
    if (cfg_.exportTelemetry && telemetry::enabled()) {
        stats().export_metrics(telemetry::MetricsRegistry::global());
    }
}

ClusterStats
ClusterRouter::stats() const
{
    ClusterStats s;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ledger_.fill(s);
        s.p50LatencyCycles = ledger_.latency_quantile(0.50);
        s.p99LatencyCycles = ledger_.latency_quantile(0.99);
        s.rerouted = rerouted_;
        s.placements = placements_;
        s.localityHits = localityHits_;
        s.keyTransfers = keyTransfers_;
        s.keyEvictions = keyEvictions_;
        s.keyTransferBytes = keyTransferBytes_;
        s.keyTransferCycles = keyTransferCycles_;
        s.scaleUps = scaleUps_;
        s.scaleDowns = scaleDowns_;
        s.hostDeaths = hostDeaths_;
        s.peakActiveHosts = peakActiveHosts_;
        s.clockGHz = cfg_.host.card.clockGHz;
    }
    s.activeHosts = active_hosts();
    s.hosts.reserve(hosts_.size());
    for (const Host &x : hosts_) {
        HostSummary h;
        h.spawned = static_cast<bool>(x.engine);
        h.active = x.active && !x.draining;
        h.alive = x.alive;
        h.draining = x.draining;
        h.readyAtCycle = x.readyAtCycle;
        h.placed = x.placed;
        h.rerouted = x.rerouted;
        h.keyTransfers = x.keyTransfers;
        h.keyTransferBytes = x.keyTransferBytes;
        h.residentKeyBytes = x.residentKeyBytes;
        if (x.engine) h.engine = x.engine->stats();
        for (const auto &[tenant, ht] : h.engine.tenants) {
            s.tenants[tenant].attainedCycles += ht.attainedCycles;
        }
        s.hosts.push_back(std::move(h));
    }
    return s;
}

telemetry::Tsdb
ClusterRouter::cluster_tsdb() const
{
    telemetry::Tsdb out(cfg_.host.tsdbCadenceCycles,
                        cfg_.host.tsdbCapacity);
    for (const auto &sp : tsdb_.series()) {
        for (std::size_t i = 0; i < sp->size(); ++i) {
            const telemetry::Sample &smp = sp->at(i);
            out.record(sp->name(), smp.cycle, smp.value);
        }
    }
    for (const telemetry::Annotation &a : tsdb_.annotations()) {
        out.annotate(a);
    }
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (!hosts_[h].engine) continue;
        const telemetry::Tsdb &ht = hosts_[h].engine->tsdb();
        const std::string prefix = "host" + std::to_string(h) + ".";
        for (const auto &sp : ht.series()) {
            for (std::size_t i = 0; i < sp->size(); ++i) {
                const telemetry::Sample &smp = sp->at(i);
                out.record(prefix + sp->name(), smp.cycle, smp.value);
            }
        }
        for (const auto &hs : ht.histogram_series()) {
            // Rebuild the cumulative source from the stored interval
            // deltas so record_histogram() re-derives the same
            // intervals under the host-prefixed name.
            telemetry::Histogram cum(hs->bounds());
            for (std::size_t i = 0; i < hs->size(); ++i) {
                const telemetry::HistogramInterval &iv = hs->at(i);
                cum.merge(telemetry::Histogram::from_buckets(
                    hs->bounds(), iv.buckets, iv.sum));
                out.record_histogram(prefix + hs->name(), iv.cycle,
                                     cum);
            }
        }
        for (telemetry::Annotation a : ht.annotations()) {
            a.name = prefix + a.name;
            out.annotate(std::move(a));
        }
    }
    return out;
}

} // namespace poseidon::cluster
