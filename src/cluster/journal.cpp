#include "cluster/journal.h"

#include <utility>

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::cluster {

const char*
to_string(ClusterEventKind k)
{
    switch (k) {
      case ClusterEventKind::Submitted: return "Submitted";
      case ClusterEventKind::Rejected: return "Rejected";
      case ClusterEventKind::ShedCluster: return "ShedCluster";
      case ClusterEventKind::Placed: return "Placed";
      case ClusterEventKind::KeyTransfer: return "KeyTransfer";
      case ClusterEventKind::KeyEvicted: return "KeyEvicted";
      case ClusterEventKind::Rerouted: return "Rerouted";
      case ClusterEventKind::Resolved: return "Resolved";
      case ClusterEventKind::HostDeath: return "HostDeath";
      case ClusterEventKind::ScaleUp: return "ScaleUp";
      case ClusterEventKind::ScaleDown: return "ScaleDown";
    }
    return "?";
}

bool
cluster_kind_from_string(const std::string &s, ClusterEventKind &out)
{
    // Kinds are numbered 0..ScaleDown in declaration order.
    constexpr auto kLast = static_cast<unsigned>(ClusterEventKind::ScaleDown);
    for (unsigned i = 0; i <= kLast; ++i) {
        if (s == to_string(static_cast<ClusterEventKind>(i))) {
            out = static_cast<ClusterEventKind>(i);
            return true;
        }
    }
    return false;
}

telemetry::Json
ClusterEvent::to_json() const
{
    using telemetry::Json;
    // Fixed key order + default-suppressed fields: the serialized
    // line is a pure function of the event, which is what the
    // byte-identical determinism guarantee rests on.
    Json j = Json::object();
    j.set("ev", Json(to_string(kind)));
    j.set("job", Json(job));
    j.set("cycle", Json(cycle));
    if (!tenant.empty()) j.set("tenant", Json(tenant));
    if (host != kNoHost) j.set("host", Json(static_cast<u64>(host)));
    if (value != 0.0) j.set("value", Json(value));
    if (!detail.empty()) j.set("detail", Json(detail));
    return j;
}

ClusterEvent
ClusterEvent::from_json(const telemetry::Json &j)
{
    POSEIDON_REQUIRE_T(ParseError, j.is_object(),
                       "cluster event is not a JSON object");
    ClusterEvent ev;
    POSEIDON_REQUIRE_T(ParseError,
                       j.contains("ev") && j.contains("job") &&
                           j.contains("cycle"),
                       "cluster event misses ev/job/cycle");
    POSEIDON_REQUIRE_T(
        ParseError,
        cluster_kind_from_string(j.at("ev").as_string(), ev.kind),
        "unknown cluster event kind \"" << j.at("ev").as_string()
                                        << "\"");
    ev.job = telemetry::json_int(j.at("job"), "job");
    ev.cycle = j.at("cycle").as_number();
    if (j.contains("tenant")) ev.tenant = j.at("tenant").as_string();
    if (j.contains("host")) {
        ev.host = telemetry::json_int(j.at("host"), "host");
    }
    if (j.contains("value")) ev.value = j.at("value").as_number();
    if (j.contains("detail")) ev.detail = j.at("detail").as_string();
    return ev;
}

ClusterJournal::ClusterJournal(ClusterJournal &&o) noexcept
    : enabled_(o.enabled_),
      clockGHz_(o.clockGHz_),
      hosts_(o.hosts_),
      events_(std::move(o.events_))
{
}

ClusterJournal&
ClusterJournal::operator=(ClusterJournal &&o) noexcept
{
    if (this != &o) {
        enabled_ = o.enabled_;
        clockGHz_ = o.clockGHz_;
        hosts_ = o.hosts_;
        events_ = std::move(o.events_);
    }
    return *this;
}

void
ClusterJournal::set_meta(double clockGHz, std::size_t hosts)
{
    clockGHz_ = clockGHz;
    hosts_ = hosts;
}

void
ClusterJournal::append(ClusterEvent ev)
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(std::move(ev));
}

std::size_t
ClusterJournal::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return events_.size();
}

namespace {

const telemetry::JsonlSchema kDocument{ClusterJournal::kSchemaName,
                                       ClusterJournal::kSchemaVersion,
                                       "cluster journal",
                                       {"events"}};

} // namespace

std::string
ClusterJournal::to_jsonl() const
{
    using telemetry::Json;
    std::lock_guard<std::mutex> lk(mu_);
    Json header = telemetry::jsonl_header(kDocument);
    header.set("clock_ghz", Json(clockGHz_));
    header.set("hosts", Json(static_cast<u64>(hosts_)));
    header.set("events", Json(static_cast<u64>(events_.size())));
    telemetry::JsonlWriter out(header);
    for (const ClusterEvent &ev : events_) out.line(ev.to_json());
    return out.take();
}

ClusterJournal
ClusterJournal::parse_jsonl(const std::string &text)
{
    using telemetry::Json;
    ClusterJournal jr;
    telemetry::read_jsonl(
        text, kDocument,
        [&jr](const Json &h) {
            jr.clockGHz_ = h.at("clock_ghz").as_number();
            jr.hosts_ = static_cast<std::size_t>(
                telemetry::json_int(h.at("hosts"), "hosts"));
        },
        [&jr](const Json &line) -> std::size_t {
            jr.events_.push_back(ClusterEvent::from_json(line));
            return 0;
        });
    return jr;
}

} // namespace poseidon::cluster
