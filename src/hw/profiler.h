#ifndef POSEIDON_HW_PROFILER_H_
#define POSEIDON_HW_PROFILER_H_

/**
 * @file
 * Bottleneck-attribution profiler over the accelerator model.
 *
 * The simulator answers "how long": SimResult totals. This pass
 * answers "why": every modeled cycle of every segment is attributed to
 * exactly one of three exposure buckets derived from the segment law
 * T = max(C, M) + (1 - ov) * min(C, M), ov = PoseidonSim::kOverlap:
 *
 *   overlapped       = ov * min(C, M)    both engines busy, hidden
 *   compute-exposed  = C - overlapped    only the compute side runs
 *   memory-exposed   = M - overlapped    only the HBM side runs
 *
 * Cycle conservation is an invariant, not a hope: per segment the
 * profiler recomputes the duration with the simulator's own
 * expression, max(C, M) + (1 - ov) * min(C, M), on the same doubles —
 * so the attributed total equals SimResult.cycles bit-exactly, and the
 * per-tag attributed seconds (accumulated with the simulator's own
 * segSeconds expression, in segment order) equal SimResult.tagSeconds
 * bit-exactly. profile() checks this and throws InternalError on any
 * drift.
 *
 * On top of the split, per tag and for the whole run:
 *  - vector-lane occupancy: MA/MM element-cycles / (lanes * cycles);
 *  - NTT-core and automorphism-core occupancy (busy-cycle share);
 *  - HBM bandwidth utilization (extends tag_bandwidth_utilization);
 *  - scratchpad high-water footprint and spill-traffic cycle share;
 *  - ECC-retry overhead share (from the fault injector);
 *  - a roofline point: arithmetic intensity (compute elements per HBM
 *    byte) vs achieved element throughput, against the machine's
 *    compute roof (lanes * clock) and bandwidth roof (peak * eff),
 *    whose ratio is the ridge intensity.
 *
 * The report renders as an ASCII table (to_text), a JSON document
 * (to_json, schema_version 1), and MetricsRegistry gauges
 * (export_metrics: "sim.util.*", "sim.roofline.*").
 */

#include <array>
#include <string>
#include <vector>

#include "hw/sim.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace poseidon::hw {

/// Where every attributed cycle of one tag (or the whole run) went.
struct ExposureBuckets
{
    double cycles = 0.0;  ///< attributed total (== sim segment cycles)
    double seconds = 0.0; ///< mirrors the simulator's tagSeconds sums
    double computeExposed = 0.0;
    double memExposed = 0.0;
    double overlapped = 0.0;

    double computeCycles = 0.0; ///< raw compute work inside segments
    double memCycles = 0.0;     ///< memory work after spill + retries
    double spillCycles = 0.0;   ///< memory cycles due to respilling
    double retryCycles = 0.0;   ///< memory cycles due to ECC replays
    double bytes = 0.0;         ///< HBM traffic
    /// MA+MM+NTT+INTT+AUTO elements. SBT is excluded: it is fused
    /// into the producing pipelines at zero marginal cycles, so its
    /// elements are not additional throughput.
    double computeElems = 0.0;
    double laneElems = 0.0;     ///< MA+MM elements (vector datapath)
    double nttCycles = 0.0;     ///< NTT+INTT busy cycles
    double autoCycles = 0.0;    ///< automorphism busy cycles
    u64 segments = 0;           ///< segment count

    // Shares of the attributed total (0 when cycles == 0).
    double compute_exposed_share() const;
    double mem_exposed_share() const;
    double overlapped_share() const;

    /// MA/MM element-cycles over the lane-cycle budget.
    double lane_occupancy(const HwConfig &cfg) const;
    /// Busy-cycle share of the NTT / automorphism cores.
    double ntt_occupancy() const;
    double auto_occupancy() const;
    /// Achieved HBM bandwidth / peak over the attributed time.
    double bandwidth_utilization(const HwConfig &cfg) const;
    /// Spill / retry cycles as a share of all memory cycles.
    double spill_share() const;
    double retry_share() const;

    /// Roofline coordinates: compute elements per HBM byte, and
    /// achieved compute-element throughput (elements / second).
    double arithmetic_intensity() const;
    double achieved_elems_per_sec() const;
};

/// Which resource bounds a tag, per the exposure split.
enum class Bound { Compute, Memory, Balanced };

const char* to_string(Bound b);

/// One basic operation's slice of the attribution.
struct TagProfile
{
    isa::BasicOp tag;
    ExposureBuckets b;

    /// Memory-bound when memory-exposed time dominates compute-exposed
    /// time by more than 10% of the tag's cycles (and vice versa);
    /// Balanced inside that band.
    Bound bound() const;
};

/// The machine's roofline, derived from HwConfig.
struct RooflineModel
{
    double peakElemsPerSec = 0.0; ///< lanes * clock
    double peakBytesPerSec = 0.0; ///< HBM peak * streaming efficiency
    /// Intensity where the two roofs cross (elements per byte).
    double ridgeElemsPerByte = 0.0;

    /// Attainable throughput at intensity `ai` (min of both roofs).
    double attainable_elems_per_sec(double ai) const;

    static RooflineModel from_config(const HwConfig &cfg);
};

/// Full attribution of one simulator run.
struct ProfileReport
{
    std::string workload; ///< optional label (poseidon_prof sets it)
    HwConfig cfg;
    ExposureBuckets total;
    std::vector<TagProfile> tags; ///< sorted by attributed cycles, desc

    /// Copied verbatim from SimResult (per-kind busy cycles).
    std::array<double, 8> kindCycles = {};
    FaultStats faults;

    /// Largest resident-tile footprint of any segment, in bytes,
    /// against the configured capacity.
    double scratchpadHighWaterBytes = 0.0;
    double scratchpadCapacityBytes = 0.0;

    RooflineModel roofline;

    const TagProfile* find_tag(isa::BasicOp tag) const;

    /// One-line diagnosis of the dominant bottleneck, e.g.
    /// "Bootstrapping is 72% memory-exposed (34% of it scratchpad
    /// respill): grow scratchpadMB".
    std::string verdict() const;

    /// ASCII attribution table + roofline table + verdict.
    std::string to_text() const;

    /// JSON report (schema_version 1): workload, hw, totals, tags[],
    /// roofline, scratchpad, verdict.
    telemetry::Json to_json() const;

    /// Publish gauges into `reg`: "sim.util.*" occupancies/shares and
    /// per-kind cycles, "sim.roofline.*" points and roofs.
    void export_metrics(telemetry::MetricsRegistry &reg) const;
};

/**
 * Attribute one run. `tl` must come from the same PoseidonSim::run
 * call that produced `r` (run with a non-null timeline); `cfg` must be
 * the config that priced it. Throws poseidon::InternalError if the
 * attributed cycles fail to reproduce SimResult bit-exactly.
 */
ProfileReport profile(const SimTimeline &tl, const SimResult &r,
                      const HwConfig &cfg, std::string workload = "");

} // namespace poseidon::hw

#endif // POSEIDON_HW_PROFILER_H_
