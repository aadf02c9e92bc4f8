#ifndef POSEIDON_CLUSTER_JOURNAL_H_
#define POSEIDON_CLUSTER_JOURNAL_H_

/**
 * @file
 * Cluster-level lifecycle journal of the two-level router.
 *
 * The per-host serve::Journal records what happens to a job *inside*
 * one engine (queueing, batching, attempts). This journal records the
 * level above: what the global router decided — admission or shedding,
 * the placement verdict and whether it hit the tenant's key cache, the
 * modeled key transfers it charged, host deaths and the re-routes they
 * forced, autoscale transitions, and one terminal Resolved event per
 * cluster job.
 *
 * The determinism contract carries up from the engine (DESIGN.md §16):
 * every append happens in the router's single-threaded placement and
 * resolution phases, in an order that is a pure function of the
 * submitted job set, so to_jsonl() of the same cluster run is
 * byte-identical at every POSEIDON_THREADS.
 *
 * **Serialized form**: a `poseidon-cluster-journal` JSONL document
 * (telemetry/text_format.h, DESIGN.md §17) whose header carries
 * clock_ghz, hosts and the event count; then one event per line:
 *
 *   {"ev":"Submitted","job":1,"cycle":0,"tenant":"alice"}
 *   {"ev":"Placed","job":1,"cycle":0,"host":3,"value":812345,
 *    "detail":"locality-hit"}
 */

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "serve/job.h"
#include "telemetry/json.h"

namespace poseidon::cluster {

/// Cluster job identifier (1-based; 0 is invalid), assigned by the
/// router, independent of the per-host engine job ids.
using ClusterJobId = u64;

/// Router event types, in the order a job encounters them.
enum class ClusterEventKind : unsigned {
    Submitted,   ///< accepted by submit(); cycle = arrival
    Rejected,    ///< infeasible (keys exceed every host's HBM cache)
    ShedCluster, ///< dropped by cluster admission control
    Placed,      ///< assigned to a host (value = estimated cost)
    KeyTransfer, ///< keys uploaded to the host (value = bytes)
    KeyEvicted,  ///< tenant keys evicted from a host's cache (job = 0)
    Rerouted,    ///< host died before finish; job resubmitted
    Resolved,    ///< terminal verdict (detail = final JobState name)
    HostDeath,   ///< a host left the fleet for good (job = 0)
    ScaleUp,     ///< autoscaler activated a parked host (job = 0)
    ScaleDown,   ///< autoscaler began draining a host (job = 0)
};

/// Short stable name ("Submitted", "Placed", ...).
const char* to_string(ClusterEventKind k);

/// Inverse of to_string; returns false on an unknown name.
bool cluster_kind_from_string(const std::string &s,
                              ClusterEventKind &out);

/// One cluster journal record. Only the fields a kind uses are
/// serialized; everything else keeps its default (see to_json()).
struct ClusterEvent
{
    /// "no host" marker (admission-side events).
    static constexpr std::size_t kNoHost = static_cast<std::size_t>(-1);

    ClusterEventKind kind = ClusterEventKind::Submitted;
    ClusterJobId job = 0; ///< 0 = fleet-level event (deaths, scaling)
    double cycle = 0.0;   ///< simulated cluster-clock stamp

    std::string tenant;   ///< Submitted / key + terminal events
    std::size_t host = kNoHost; ///< placement/host-side events
    /// Kind-specific payload: Placed = estimated cost cycles;
    /// KeyTransfer/KeyEvicted = key bytes; Rerouted = reroute count;
    /// Resolved = reported latency cycles.
    double value = 0.0;
    std::string detail;   ///< human-readable reason / verdict

    telemetry::Json to_json() const;
    static ClusterEvent from_json(const telemetry::Json &j);
};

/// Append-only event log with JSONL (de)serialization, mirroring
/// serve::Journal. Appends are mutex-guarded (submit() may run on
/// client threads); reads are meant for after-run analysis.
class ClusterJournal
{
  public:
    static constexpr int kSchemaVersion = 1;
    static constexpr const char *kSchemaName = "poseidon-cluster-journal";

    ClusterJournal() = default;
    ClusterJournal(ClusterJournal &&o) noexcept;
    ClusterJournal& operator=(ClusterJournal &&o) noexcept;
    ClusterJournal(const ClusterJournal&) = delete;
    ClusterJournal& operator=(const ClusterJournal&) = delete;

    /// Recording switch; a disabled journal drops appends
    /// (ClusterConfig::journal maps to this).
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /// Fleet facts stamped into the JSONL header.
    void set_meta(double clockGHz, std::size_t hosts);
    double clock_ghz() const { return clockGHz_; }
    std::size_t hosts() const { return hosts_; }

    void append(ClusterEvent ev);

    std::size_t size() const;
    bool empty() const { return size() == 0; }
    const std::vector<ClusterEvent>& events() const { return events_; }

    /// Header line + one compact JSON object per event.
    std::string to_jsonl() const;

    /// Parse a journal back from its JSONL form (a line-numbered
    /// ParseError on any malformed line); to_jsonl() round-trips.
    static ClusterJournal parse_jsonl(const std::string &text);

  private:
    bool enabled_ = true;
    double clockGHz_ = 0.0;
    std::size_t hosts_ = 0;
    mutable std::mutex mu_;
    std::vector<ClusterEvent> events_;
};

} // namespace poseidon::cluster

#endif // POSEIDON_CLUSTER_JOURNAL_H_
