#include "hw/sim.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "hw/sim_telemetry.h"
#include "ntt/fusion.h"
#include "telemetry/metrics.h"

namespace poseidon::hw {

using isa::BasicOp;
using isa::Instr;
using isa::OpKind;
using isa::Trace;

namespace {

/// Pipeline fill latencies (cycles) per core type.
constexpr double kFillMA = 8;
constexpr double kFillMM = 24;
constexpr double kFillNTT = 64;
constexpr double kFillAuto = 16;

} // namespace

PoseidonSim::PoseidonSim(HwConfig cfg)
    : cfg_(cfg)
{
    POSEIDON_REQUIRE(cfg_.lanes >= 1, "PoseidonSim: lanes must be >= 1");
    POSEIDON_REQUIRE(cfg_.nttRadixLog2 >= 1 && cfg_.nttRadixLog2 <= 6,
                     "PoseidonSim: k out of range [1,6]");
}

double
PoseidonSim::ntt_poly_cycles(u64 degree) const
{
    unsigned k = cfg_.nttRadixLog2;
    double phases = static_cast<double>(FusionCostModel::phases(degree, k));
    // Beyond k=3 the fused block needs (2^k - 1) multipliers per output
    // lane; the design's shared DSP pool is sized for 7 (k=3), so wider
    // radices serialize proportionally.
    double multsPerLane = static_cast<double>((u64(1) << k) - 1);
    double serialization = std::max(1.0, multsPerLane / 7.0);
    double perPass = static_cast<double>(degree) /
                     static_cast<double>(cfg_.lanes);
    return phases * perPass * serialization + kFillNTT;
}

double
PoseidonSim::auto_poly_cycles(u64 degree) const
{
    if (cfg_.hfauto) {
        double c = static_cast<double>(cfg_.hfautoSubvec);
        return 4.0 * static_cast<double>(degree) / c + kFillAuto;
    }
    // Naive automorphism: one index mapping per cycle.
    return static_cast<double>(degree);
}

double
PoseidonSim::compute_cycles(const Instr &in) const
{
    double lanes = static_cast<double>(cfg_.lanes);
    double elems = static_cast<double>(in.elems);
    switch (in.kind) {
      case OpKind::MA:
        return elems / lanes + kFillMA;
      case OpKind::MM:
        return elems / lanes + kFillMM;
      case OpKind::NTT:
      case OpKind::INTT: {
        POSEIDON_REQUIRE(in.degree >= 2, "NTT instr needs a degree");
        double polys = elems / static_cast<double>(in.degree);
        return polys * ntt_poly_cycles(in.degree);
      }
      case OpKind::AUTO: {
        POSEIDON_REQUIRE(in.degree >= 2, "AUTO instr needs a degree");
        double polys = elems / static_cast<double>(in.degree);
        return polys * auto_poly_cycles(in.degree);
      }
      case OpKind::SBT:
        // Shared Barrett reduction is fused into the producing MM/NTT
        // pipeline stages; no marginal cycles.
        return 0.0;
      case OpKind::HBM_RD:
      case OpKind::HBM_WR:
        return 0.0;
    }
    return 0.0;
}

double
PoseidonSim::memory_cycles(const Instr &in) const
{
    if (in.kind != OpKind::HBM_RD && in.kind != OpKind::HBM_WR) {
        return 0.0;
    }
    double bytes = static_cast<double>(in.elems) * cfg_.wordBytes;
    return bytes / (cfg_.bytes_per_cycle() * cfg_.hbmEfficiency);
}

SimResult
PoseidonSim::run(const Trace &trace, SimTimeline *timeline) const
{
    SimResult r;
    trace.validate();
    if (timeline) timeline->segments.clear();
    const auto &ins = trace.instrs();

    // Fault injection is strictly off at BER = 0: no injector call is
    // made, so the cycle arithmetic below is bit-identical to the
    // reliable-memory model. (Construction still validates the config.)
    const bool injectFaults = cfg_.faults.ber > 0.0;
    FaultInjector injector(cfg_.faults);

    std::size_t i = 0;
    while (i < ins.size()) {
        BasicOp tag = ins[i].tag;
        double segCompute = 0.0, segMem = 0.0, segBytes = 0.0;
        double segRetry = 0.0;
        u64 segDegree = 0;
        SegmentTiming seg;
        std::vector<double> instrRetry; // parallels seg.instrs
        while (i < ins.size() && ins[i].tag == tag) {
            const Instr &in = ins[i];
            double c = compute_cycles(in);
            double m = memory_cycles(in);
            double retry = 0.0;
            segCompute += c;
            segMem += m;
            segDegree = std::max(segDegree, in.degree);
            r.kindCycles[static_cast<int>(in.kind)] += c;
            u64 bytes = 0;
            if (in.kind == OpKind::HBM_RD) {
                bytes = in.elems * cfg_.wordBytes;
                r.bytesRead += bytes;
                segBytes += static_cast<double>(bytes);
            } else if (in.kind == OpKind::HBM_WR) {
                bytes = in.elems * cfg_.wordBytes;
                r.bytesWritten += bytes;
                segBytes += static_cast<double>(bytes);
            }
            if (injectFaults && (in.kind == OpKind::HBM_RD ||
                                 in.kind == OpKind::HBM_WR)) {
                FaultStats fs = injector.transfer(in.elems);
                retry = fs.retryCycles;
                segRetry += retry;
                r.faults += fs;
            }
            if (timeline) {
                // memCycles holds the raw value for now; spill scaling
                // and retries land below once the segment's spill
                // factor is known.
                seg.instrs.push_back(
                    InstrTiming{in.kind, c, m, bytes, in.elems});
                instrRetry.push_back(retry);
            }
            ++i;
        }
        // Double-buffered pipeline: the longer of compute and memory
        // sets the pace; a (1 - kOverlap) fraction of the shorter one
        // fails to hide (dependency stalls, phase boundaries).
        // Scratchpad pressure: if the resident limb-tiles don't fit,
        // they respill through HBM, inflating memory time.
        double requiredBytes = scratchpad_bytes(cfg_, segDegree);
        double capacity = cfg_.scratchpadMB * 1024.0 * 1024.0;
        double spill = std::max(1.0, requiredBytes / capacity);
        // ECC replay traffic is re-streamed as-is; it does not grow
        // with scratchpad pressure.
        double segRawMem = segMem;
        segMem = segMem * spill + segRetry;

        double segCycles = segment_cycles(segCompute, segMem);
        if (timeline) {
            for (std::size_t j = 0; j < seg.instrs.size(); ++j) {
                seg.instrs[j].memCycles =
                    seg.instrs[j].memCycles * spill + instrRetry[j];
            }
            seg.tag = tag;
            seg.startCycle = r.cycles;
            seg.cycles = segCycles;
            seg.computeCycles = segCompute;
            seg.memCycles = segMem;
            seg.rawMemCycles = segRawMem;
            seg.retryCycles = segRetry;
            seg.spillFactor = spill;
            seg.maxDegree = segDegree;
            timeline->segments.push_back(std::move(seg));
        }
        r.cycles += segCycles;
        r.computeCycles += segCompute;
        r.memCycles += segMem;
        double segSeconds = segCycles / (cfg_.clockGHz * 1e9);
        r.tagSeconds.add(tag, segSeconds);
        r.tagBytes.add(tag, segBytes);
    }
    r.seconds = r.cycles / (cfg_.clockGHz * 1e9);

    if (telemetry::enabled()) {
        record_sim_metrics(telemetry::MetricsRegistry::global(), r, cfg_);
    }
    return r;
}

double
SimResult::bandwidth_utilization(const HwConfig &cfg) const
{
    if (seconds <= 0.0) return 0.0;
    double bytes = static_cast<double>(bytesRead + bytesWritten);
    return bytes / (seconds * cfg.hbmPeakGBps * 1e9);
}

double
SimResult::tag_bandwidth_utilization(const HwConfig &cfg,
                                     isa::BasicOp tag) const
{
    if (!tagSeconds.contains(tag) || tagSeconds[tag] <= 0.0) return 0.0;
    return tagBytes[tag] / (tagSeconds[tag] * cfg.hbmPeakGBps * 1e9);
}

} // namespace poseidon::hw
