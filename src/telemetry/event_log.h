#ifndef POSEIDON_TELEMETRY_EVENT_LOG_H_
#define POSEIDON_TELEMETRY_EVENT_LOG_H_

/**
 * @file
 * The one append-only event log behind the serving journal
 * (serve/journal.h) and the cluster journal (cluster/journal.h).
 *
 * EventLog owns the recording switch, the append lock and the JSONL
 * framing; the event type owns its document identity and its line
 * format. `Event` supplies
 *
 *   static constexpr const char *kSchemaName; // header "schema"
 *   static constexpr int kSchemaVersion;
 *   static constexpr const char *kNoun;       // error-message prefix
 *   static constexpr const char *kFleetKey;   // "cards" or "hosts"
 *   telemetry::Json to_json() const;
 *   static Event from_json(const telemetry::Json &);
 *
 * **Serialized form** (DESIGN.md §17): a header carrying schema,
 * schema_version, clock_ghz, the fleet count under kFleetKey and the
 * event count, then one compact JSON object per event. Appends are
 * mutex-guarded (submit() runs on client threads); reads are meant for
 * between-drain analysis.
 */

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/text_format.h"

namespace poseidon::telemetry {

template <class Event>
class EventLog
{
  public:
    static constexpr const char *kSchemaName = Event::kSchemaName;

    EventLog() = default;
    EventLog(const EventLog&) = delete;
    EventLog& operator=(const EventLog&) = delete;

    /// Recording switch; a disabled log drops appends (the owners'
    /// `journal` config flags map to this).
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /// Fleet facts stamped into the JSONL header (the explain tool
    /// needs the clock to print microseconds).
    void set_meta(double clockGHz, std::size_t fleet)
    {
        clockGHz_ = clockGHz;
        fleet_ = fleet;
    }
    double clock_ghz() const { return clockGHz_; }

    /// The header's fleet count, under the name its document uses.
    std::size_t cards() const
        requires(std::string_view(Event::kFleetKey) == "cards")
    {
        return fleet_;
    }
    std::size_t hosts() const
        requires(std::string_view(Event::kFleetKey) == "hosts")
    {
        return fleet_;
    }

    void append(Event ev)
    {
        if (!enabled_) return;
        std::lock_guard<std::mutex> lk(mu_);
        events_.push_back(std::move(ev));
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return events_.size();
    }
    bool empty() const { return size() == 0; }
    const std::vector<Event>& events() const { return events_; }

    /// Header line + one compact JSON object per event.
    std::string to_jsonl() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Json header = jsonl_header(schema());
        header.set("clock_ghz", Json(clockGHz_));
        header.set(Event::kFleetKey,
                   Json(static_cast<std::uint64_t>(fleet_)));
        header.set("events",
                   Json(static_cast<std::uint64_t>(events_.size())));
        JsonlWriter out(header);
        for (const Event &ev : events_) out.line(ev.to_json());
        return out.take();
    }

    /// Parse a log back from its JSONL form; any malformed line throws
    /// a line-numbered poseidon::ParseError. to_jsonl() round-trips.
    static EventLog parse_jsonl(const std::string &text)
    {
        double clockGHz = 0.0;
        std::size_t fleet = 0;
        std::vector<Event> events;
        read_jsonl(
            text, schema(),
            [&](const Json &h) {
                clockGHz = h.at("clock_ghz").as_number();
                fleet = static_cast<std::size_t>(
                    json_int(h.at(Event::kFleetKey), Event::kFleetKey));
            },
            [&events](const Json &line) -> std::size_t {
                events.push_back(Event::from_json(line));
                return 0;
            });
        return EventLog(clockGHz, fleet, std::move(events));
    }

    /// Read + parse_jsonl a file (throws ParseError, also on I/O).
    static EventLog load_jsonl(const std::string &path)
    {
        return parse_jsonl(read_text_file(path, Event::kNoun));
    }

  private:
    EventLog(double clockGHz, std::size_t fleet,
             std::vector<Event> events)
        : clockGHz_(clockGHz), fleet_(fleet), events_(std::move(events))
    {
    }

    static const JsonlSchema& schema()
    {
        static const JsonlSchema s{Event::kSchemaName,
                                   Event::kSchemaVersion, Event::kNoun,
                                   {"events"}};
        return s;
    }

    bool enabled_ = true;
    double clockGHz_ = 0.0;
    std::size_t fleet_ = 0;
    mutable std::mutex mu_;
    std::vector<Event> events_;
};

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_EVENT_LOG_H_
