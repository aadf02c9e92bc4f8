#include "serve/journal.h"

#include <climits>

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::serve {

const char*
to_string(JournalEventKind k)
{
    switch (k) {
      case JournalEventKind::Submitted: return "Submitted";
      case JournalEventKind::Admitted: return "Admitted";
      case JournalEventKind::Enqueued: return "Enqueued";
      case JournalEventKind::BatchFormed: return "BatchFormed";
      case JournalEventKind::Dispatched: return "Dispatched";
      case JournalEventKind::AttemptStart: return "AttemptStart";
      case JournalEventKind::AttemptEnd: return "AttemptEnd";
      case JournalEventKind::FaultRetry: return "FaultRetry";
      case JournalEventKind::BackoffScheduled: return "BackoffScheduled";
      case JournalEventKind::ProbeInteraction: return "ProbeInteraction";
      case JournalEventKind::Completed: return "Completed";
      case JournalEventKind::Failed: return "Failed";
      case JournalEventKind::Expired: return "Expired";
      case JournalEventKind::Shed: return "Shed";
    }
    return "?";
}

bool
journal_kind_from_string(const std::string &s, JournalEventKind &out)
{
    // Kinds are numbered 0..Shed in declaration order.
    constexpr auto kLast = static_cast<unsigned>(JournalEventKind::Shed);
    for (unsigned i = 0; i <= kLast; ++i) {
        if (s == to_string(static_cast<JournalEventKind>(i))) {
            out = static_cast<JournalEventKind>(i);
            return true;
        }
    }
    return false;
}

telemetry::Json
JournalEvent::to_json() const
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
    if (!name.empty()) j.set("name", Json(name));
    if (priority != 0) j.set("prio", Json(priority));
    if (card != kNoCard) {
        j.set("card", Json(static_cast<u64>(card)));
    }
    if (attempt != 0) j.set("attempt", Json(attempt));
    if (batch != 0) j.set("batch", Json(batch));
    if (batchSize != 0) j.set("size", Json(batchSize));
    if (value != 0.0) j.set("value", Json(value));
    if (failed) j.set("failed", Json(true));
    if (!detail.empty()) j.set("detail", Json(detail));
    return j;
}

JournalEvent
JournalEvent::from_json(const telemetry::Json &j)
{
    using telemetry::json_int;
    POSEIDON_REQUIRE_T(ParseError, j.is_object(),
                       "journal event is not a JSON object");
    JournalEvent ev;
    POSEIDON_REQUIRE_T(ParseError,
                       j.contains("ev") && j.contains("job") &&
                           j.contains("cycle"),
                       "journal event misses ev/job/cycle");
    POSEIDON_REQUIRE_T(
        ParseError,
        journal_kind_from_string(j.at("ev").as_string(), ev.kind),
        "unknown journal event kind \"" << j.at("ev").as_string()
                                        << "\"");
    ev.job = json_int(j.at("job"), "job");
    ev.cycle = j.at("cycle").as_number();
    if (j.contains("tenant")) ev.tenant = j.at("tenant").as_string();
    if (j.contains("name")) ev.name = j.at("name").as_string();
    if (j.contains("prio")) {
        ev.priority = static_cast<int>(
            json_int(j.at("prio"), "prio", INT_MIN, INT_MAX));
    }
    if (j.contains("card")) ev.card = json_int(j.at("card"), "card");
    if (j.contains("attempt")) {
        ev.attempt = json_int(j.at("attempt"), "attempt");
    }
    if (j.contains("batch")) ev.batch = json_int(j.at("batch"), "batch");
    if (j.contains("size")) ev.batchSize = json_int(j.at("size"), "size");
    if (j.contains("value")) ev.value = j.at("value").as_number();
    if (j.contains("failed")) ev.failed = j.at("failed").as_bool();
    if (j.contains("detail")) ev.detail = j.at("detail").as_string();
    return ev;
}

} // namespace poseidon::serve
