#ifndef POSEIDON_CLUSTER_JOURNAL_H_
#define POSEIDON_CLUSTER_JOURNAL_H_

/**
 * @file
 * Cluster-level lifecycle journal of the two-level router.
 *
 * The per-host serve::Journal records what happens to a job *inside*
 * one engine (queueing, batching, attempts). This journal records the
 * level above: what the global router decided — the placement verdict
 * and whether it hit the tenant's key cache, the modeled key transfers
 * it charged, host deaths and the re-routes they forced, autoscale
 * transitions, and one terminal Resolved event per cluster job.
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
#include <string>

#include "serve/job.h"
#include "telemetry/event_log.h"
#include "telemetry/json.h"

namespace poseidon::cluster {

/// Cluster job identifier (1-based; 0 is invalid), assigned by the
/// router, independent of the per-host engine job ids.
using ClusterJobId = u64;

/// Router event types, in the order a job encounters them.
enum class ClusterEventKind : unsigned {
    Submitted,   ///< accepted by submit(); cycle = arrival
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
    static constexpr const char *kSchemaName = "poseidon-cluster-journal";
    static constexpr int kSchemaVersion = 1;
    static constexpr const char *kNoun = "cluster journal";
    static constexpr const char *kFleetKey = "hosts";

    /// "no host" marker (router-side events).
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

/// The router's journal: the shared event log over ClusterEvent
/// (telemetry/event_log.h), the same class as serve::Journal.
using ClusterJournal = telemetry::EventLog<ClusterEvent>;

} // namespace poseidon::cluster

#endif // POSEIDON_CLUSTER_JOURNAL_H_
