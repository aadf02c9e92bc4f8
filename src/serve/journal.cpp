#include "serve/journal.h"

#include <climits>
#include <utility>

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
      case JournalEventKind::AlertTransition: return "AlertTransition";
    }
    return "?";
}

bool
journal_kind_from_string(const std::string &s, JournalEventKind &out)
{
    // Kinds are numbered 0..AlertTransition in declaration order.
    constexpr auto kLast = static_cast<unsigned>(
        JournalEventKind::AlertTransition);
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

Journal::Journal(Journal &&o) noexcept
    : enabled_(o.enabled_),
      clockGHz_(o.clockGHz_),
      cards_(o.cards_),
      nextBatch_(o.nextBatch_),
      events_(std::move(o.events_))
{
}

Journal&
Journal::operator=(Journal &&o) noexcept
{
    if (this != &o) {
        enabled_ = o.enabled_;
        clockGHz_ = o.clockGHz_;
        cards_ = o.cards_;
        nextBatch_ = o.nextBatch_;
        events_ = std::move(o.events_);
    }
    return *this;
}

void
Journal::set_meta(double clockGHz, std::size_t cards)
{
    clockGHz_ = clockGHz;
    cards_ = cards;
}

void
Journal::append(JournalEvent ev)
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(std::move(ev));
}

u64
Journal::next_batch_id()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextBatch_++;
}

std::size_t
Journal::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return events_.size();
}

namespace {

const telemetry::JsonlSchema kDocument{Journal::kSchemaName,
                                       Journal::kSchemaVersion,
                                       "journal",
                                       {"events"}};

} // namespace

std::string
Journal::to_jsonl() const
{
    using telemetry::Json;
    std::lock_guard<std::mutex> lk(mu_);
    Json header = telemetry::jsonl_header(kDocument);
    header.set("clock_ghz", Json(clockGHz_));
    header.set("cards", Json(static_cast<u64>(cards_)));
    header.set("events", Json(static_cast<u64>(events_.size())));
    telemetry::JsonlWriter out(header);
    for (const JournalEvent &ev : events_) out.line(ev.to_json());
    return out.take();
}

Journal
Journal::parse_jsonl(const std::string &text)
{
    using telemetry::Json;
    Journal jr;
    telemetry::read_jsonl(
        text, kDocument,
        [&jr](const Json &h) {
            jr.clockGHz_ = h.at("clock_ghz").as_number();
            jr.cards_ = static_cast<std::size_t>(
                telemetry::json_int(h.at("cards"), "cards"));
        },
        [&jr](const Json &line) -> std::size_t {
            jr.events_.push_back(JournalEvent::from_json(line));
            return 0;
        });
    return jr;
}

Journal
Journal::load_jsonl(const std::string &path)
{
    return parse_jsonl(telemetry::read_text_file(path, "journal"));
}

} // namespace poseidon::serve
