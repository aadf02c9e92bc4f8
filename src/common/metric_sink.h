#ifndef POSEIDON_COMMON_METRIC_SINK_H_
#define POSEIDON_COMMON_METRIC_SINK_H_

/**
 * @file
 * Dependency inversion for low-layer instrumentation.
 *
 * `common` sits below `telemetry` in the library graph, so code living
 * here (the parallel execution engine, the NTT table cache) cannot call
 * the metrics registry directly. Instead it emits through this sink: a
 * plain function pointer that the telemetry library installs once at
 * startup (see MetricsRegistry::global()). Until a sink is installed
 * every emission is a no-op, so common stays dependency-free and
 * telemetry-off builds pay nothing.
 *
 * The installed sink is published through an atomic pointer to an
 * immutable struct, so concurrent readers (pool workers) never race
 * with installation.
 */

#include <cstdint>

namespace poseidon {

/// Which instrument an emission updates.
enum class MetricKind : std::uint8_t {
    Counter,   ///< add the value
    Gauge,     ///< set the value
    Histogram, ///< observe the value
};

/// A caller-owned slot caching the instrument an emission resolved.
/// The sink fills it on first use and again whenever the registry's
/// generation has moved (MetricsRegistry::reset()); a default handle
/// is always stale. Not thread-safe: keep one per thread.
struct MetricHandle
{
    void *instrument = nullptr;
    std::uint64_t generation = 0;
};

/// Instrument callback. A null member means no sink is installed.
struct MetricSink
{
    /// Update the instrument of `kind` named `prefix` + `name` by `v`
    /// when telemetry is enabled, resolving it into `h` only when `h`
    /// is stale, so a kept handle costs no name lookup.
    void (*emit)(MetricKind kind, MetricHandle &h, const char *prefix,
                 const char *name, double v) = nullptr;
};

/// Install the process-wide sink (first install wins; later calls are
/// ignored so a test cannot accidentally swap telemetry out mid-run).
void install_metric_sink(const MetricSink &sink);

/// The installed sink, or a struct of null pointers when none is.
const MetricSink& metric_sink();

/// Cold-path emission by name: resolves the instrument on every call.
inline void
emit_metric(MetricKind kind, const char *name, double v)
{
    const MetricSink &sink = metric_sink();
    if (sink.emit) {
        MetricHandle h;
        sink.emit(kind, h, name, "", v);
    }
}

} // namespace poseidon

#endif // POSEIDON_COMMON_METRIC_SINK_H_
