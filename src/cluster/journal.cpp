#include "cluster/journal.h"

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::cluster {

const char*
to_string(ClusterEventKind k)
{
    switch (k) {
      case ClusterEventKind::Submitted: return "Submitted";
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

} // namespace poseidon::cluster
