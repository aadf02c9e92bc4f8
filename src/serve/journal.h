#ifndef POSEIDON_SERVE_JOURNAL_H_
#define POSEIDON_SERVE_JOURNAL_H_

/**
 * @file
 * Per-job lifecycle journal of the serving engine.
 *
 * Every decision the engine makes about a job — acceptance, queueing,
 * batch formation, dispatch, each priced attempt, fault retries and
 * their backoff, and the terminal verdict — is recorded as one typed
 * event stamped with the *simulated* fleet clock. Because the engine
 * is deterministic on that clock (DESIGN.md §10) and every append
 * happens either under the submission lock or in drain()'s
 * single-threaded bookkeeping phases, the journal is bit-identical at
 * every POSEIDON_THREADS: serializing two runs of the same load
 * yields byte-for-byte equal JSONL.
 *
 * The journal is the serving layer's flight recorder and a
 * *sufficient statistic* for its latency reporting: the
 * latency-decomposition layer (serve/latency_breakdown.h) and the
 * `poseidon_explain` CLI reconstruct every per-tenant p50/p99 the
 * engine reports — and a per-phase waterfall the engine does not —
 * from the event stream alone.
 *
 * **Serialized form**: a `poseidon-journal` JSONL document
 * (telemetry/text_format.h, DESIGN.md §17) whose header carries
 * clock_ghz, cards and the event count; then one event per line:
 *
 *   {"ev":"Submitted","job":1,"cycle":0,"tenant":"alice",...}
 *   {"ev":"AttemptEnd","job":1,"cycle":84210,"card":0,...}
 */

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "serve/job.h"
#include "telemetry/json.h"

namespace poseidon::serve {

/// Lifecycle event types, in the order a job encounters them.
enum class JournalEventKind : unsigned {
    Submitted,        ///< accepted by submit(); cycle = arrival
    Admitted,         ///< ingested by drain() into the scheduler
    Enqueued,         ///< entered a tenant queue (fresh or retry)
    BatchFormed,      ///< scheduler coalesced a dispatch (per batch)
    Dispatched,       ///< job left the queue for a card (per job)
    AttemptStart,     ///< execution began on the card
    AttemptEnd,       ///< execution finished (value = sim cycles)
    FaultRetry,       ///< attempt failed; the job will be requeued
    BackoffScheduled, ///< retry arrival pushed out (value = arrival)
    ProbeInteraction, ///< health probe occupied a card (job = 0)
    Completed,        ///< terminal: success (value = latency)
    Failed,           ///< terminal: retries exhausted or skipped
    Expired,          ///< terminal: missed its dispatch deadline
    Shed,             ///< terminal: dropped by admission control
    AlertTransition,  ///< alert rule changed state (job = 0; name =
                      ///< rule text, detail = edge, value = metric)
};

/// Short stable name ("Submitted", "AttemptEnd", ...).
const char* to_string(JournalEventKind k);

/// Inverse of to_string; returns false on an unknown name.
bool journal_kind_from_string(const std::string &s,
                              JournalEventKind &out);

/// One journal record. Only the fields a kind uses are serialized;
/// everything else keeps its default (see to_json()).
struct JournalEvent
{
    /// "no card" marker (queue-side events).
    static constexpr std::size_t kNoCard = static_cast<std::size_t>(-1);

    JournalEventKind kind = JournalEventKind::Submitted;
    JobId job = 0;      ///< 0 = fleet-level event (health probes)
    double cycle = 0.0; ///< simulated fleet-clock stamp

    std::string tenant; ///< Submitted + terminal events
    std::string name;   ///< Submitted
    int priority = 0;   ///< Submitted / Enqueued
    std::size_t card = kNoCard; ///< dispatch/attempt/probe events
    u64 attempt = 0;    ///< attempts consumed when the event fired
    u64 batch = 0;      ///< dispatch sequence id (BatchFormed/Dispatched)
    u64 batchSize = 0;  ///< BatchFormed
    /// Kind-specific payload: AttemptEnd = modeled execution cycles;
    /// BackoffScheduled = retry arrival cycle; Completed = reported
    /// latency (finish - last arrival); ProbeInteraction = busy cycles.
    double value = 0.0;
    bool failed = false; ///< AttemptEnd fault verdict / probe verdict
    std::string detail;  ///< human-readable reason (retries, terminals)

    telemetry::Json to_json() const;
    static JournalEvent from_json(const telemetry::Json &j);
};

/// Append-only event log with JSONL (de)serialization. Appends are
/// mutex-guarded (submit() runs on client threads); reads are meant
/// for between-drain analysis, like ServingEngine::stats().
class Journal
{
  public:
    static constexpr int kSchemaVersion = 1;
    static constexpr const char *kSchemaName = "poseidon-journal";

    Journal() = default;
    /// Movable so parse/load can return by value; moving is for
    /// single-threaded contexts only (the mutex itself is not moved).
    Journal(Journal &&o) noexcept;
    Journal& operator=(Journal &&o) noexcept;
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /// Recording switch; a disabled journal drops appends (the
    /// engine's ServeConfig::journal maps to this).
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /// Fleet facts stamped into the JSONL header (the explain tool
    /// needs the clock to print microseconds).
    void set_meta(double clockGHz, std::size_t cards);
    double clock_ghz() const { return clockGHz_; }
    std::size_t cards() const { return cards_; }

    void append(JournalEvent ev);

    /// Monotone dispatch ids for BatchFormed/Dispatched correlation.
    u64 next_batch_id();

    std::size_t size() const;
    bool empty() const { return size() == 0; }
    const std::vector<JournalEvent>& events() const { return events_; }

    /// Header line + one compact JSON object per event.
    std::string to_jsonl() const;

    /// Parse a journal back from its JSONL form; any malformed line
    /// throws a line-numbered poseidon::ParseError.
    static Journal parse_jsonl(const std::string &text);

    /// Read + parse_jsonl a file (throws ParseError, also on I/O).
    static Journal load_jsonl(const std::string &path);

  private:
    bool enabled_ = true;
    double clockGHz_ = 0.0;
    std::size_t cards_ = 0;
    u64 nextBatch_ = 1;
    mutable std::mutex mu_;
    std::vector<JournalEvent> events_;
};

} // namespace poseidon::serve

#endif // POSEIDON_SERVE_JOURNAL_H_
