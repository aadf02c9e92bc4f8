#include "hw/profiler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace poseidon::hw {

using isa::BasicOp;
using isa::OpKind;
using telemetry::Json;

// ------------------------------------------------- ExposureBuckets

double
ExposureBuckets::compute_exposed_share() const
{
    return cycles > 0.0 ? computeExposed / cycles : 0.0;
}

double
ExposureBuckets::mem_exposed_share() const
{
    return cycles > 0.0 ? memExposed / cycles : 0.0;
}

double
ExposureBuckets::overlapped_share() const
{
    return cycles > 0.0 ? overlapped / cycles : 0.0;
}

double
ExposureBuckets::lane_occupancy(const HwConfig &cfg) const
{
    if (cycles <= 0.0) return 0.0;
    return laneElems / (static_cast<double>(cfg.lanes) * cycles);
}

double
ExposureBuckets::ntt_occupancy() const
{
    return cycles > 0.0 ? nttCycles / cycles : 0.0;
}

double
ExposureBuckets::auto_occupancy() const
{
    return cycles > 0.0 ? autoCycles / cycles : 0.0;
}

double
ExposureBuckets::bandwidth_utilization(const HwConfig &cfg) const
{
    if (seconds <= 0.0) return 0.0;
    return bytes / (seconds * cfg.hbmPeakGBps * 1e9);
}

double
ExposureBuckets::spill_share() const
{
    return memCycles > 0.0 ? spillCycles / memCycles : 0.0;
}

double
ExposureBuckets::retry_share() const
{
    return memCycles > 0.0 ? retryCycles / memCycles : 0.0;
}

double
ExposureBuckets::arithmetic_intensity() const
{
    if (bytes <= 0.0) {
        return computeElems > 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0;
    }
    return computeElems / bytes;
}

double
ExposureBuckets::achieved_elems_per_sec() const
{
    return seconds > 0.0 ? computeElems / seconds : 0.0;
}

// ------------------------------------------------------ TagProfile

const char*
to_string(Bound b)
{
    switch (b) {
      case Bound::Compute: return "compute";
      case Bound::Memory: return "memory";
      case Bound::Balanced: return "balanced";
    }
    return "?";
}

Bound
TagProfile::bound() const
{
    if (b.cycles <= 0.0) return Bound::Balanced;
    double lead = (b.memExposed - b.computeExposed) / b.cycles;
    if (lead > 0.10) return Bound::Memory;
    if (lead < -0.10) return Bound::Compute;
    return Bound::Balanced;
}

// --------------------------------------------------- RooflineModel

RooflineModel
RooflineModel::from_config(const HwConfig &cfg)
{
    RooflineModel m;
    m.peakElemsPerSec =
        static_cast<double>(cfg.lanes) * cfg.clockGHz * 1e9;
    m.peakBytesPerSec = cfg.hbmPeakGBps * 1e9 * cfg.hbmEfficiency;
    m.ridgeElemsPerByte =
        m.peakBytesPerSec > 0.0 ? m.peakElemsPerSec / m.peakBytesPerSec
                                : 0.0;
    return m;
}

double
RooflineModel::attainable_elems_per_sec(double ai) const
{
    if (!std::isfinite(ai)) return peakElemsPerSec;
    return std::min(peakElemsPerSec, ai * peakBytesPerSec);
}

// --------------------------------------------------------- profile

ProfileReport
profile(const SimTimeline &tl, const SimResult &r, const HwConfig &cfg,
        std::string workload)
{
    ProfileReport rep;
    rep.workload = std::move(workload);
    rep.cfg = cfg;
    rep.kindCycles = r.kindCycles;
    rep.faults = r.faults;
    rep.roofline = RooflineModel::from_config(cfg);
    rep.scratchpadCapacityBytes = cfg.scratchpadMB * 1024.0 * 1024.0;

    std::map<BasicOp, ExposureBuckets> byTag;
    const double ov = PoseidonSim::kOverlap;

    for (const SegmentTiming &seg : tl.segments) {
        const double c = seg.computeCycles;
        const double m = seg.memCycles;
        // The simulator's own segment law on the same doubles: the
        // recomputed duration is bit-identical to seg.cycles, so
        // accumulating it conserves cycles exactly.
        double attributed = std::max(c, m) + (1.0 - ov) * std::min(c, m);
        POSEIDON_CHECK(attributed == seg.cycles,
                       "profiler: segment law drifted from the "
                       "simulator ("
                           << attributed << " != " << seg.cycles << ")");
        double overlapped = ov * std::min(c, m);
        double computeExposed = c - overlapped;
        double memExposed = m - overlapped;
        // Mirrors the simulator's segSeconds expression (tagSeconds).
        double seconds = seg.cycles / (cfg.clockGHz * 1e9);

        ExposureBuckets &tb = byTag[seg.tag];
        for (ExposureBuckets *b : {&rep.total, &tb}) {
            b->cycles += attributed;
            b->seconds += seconds;
            b->computeExposed += computeExposed;
            b->memExposed += memExposed;
            b->overlapped += overlapped;
            b->computeCycles += c;
            b->memCycles += m;
            b->spillCycles += seg.rawMemCycles * seg.spillFactor -
                              seg.rawMemCycles;
            b->retryCycles += seg.retryCycles;
            b->segments += 1;
        }
        for (const InstrTiming &it : seg.instrs) {
            double elems = static_cast<double>(it.elems);
            double bytes = static_cast<double>(it.bytes);
            bool isLane = it.kind == OpKind::MA || it.kind == OpKind::MM;
            bool isNtt =
                it.kind == OpKind::NTT || it.kind == OpKind::INTT;
            for (ExposureBuckets *b : {&rep.total, &tb}) {
                b->bytes += bytes;
                if (it.kind == OpKind::HBM_RD ||
                    it.kind == OpKind::HBM_WR ||
                    it.kind == OpKind::SBT) {
                    // HBM moves no compute elements; SBT is fused
                    // into the MM/NTT pipelines at zero marginal
                    // cycles, so its elements are not throughput.
                    continue;
                }
                b->computeElems += elems;
                if (isLane) b->laneElems += elems;
                if (isNtt) b->nttCycles += it.computeCycles;
                if (it.kind == OpKind::AUTO) {
                    b->autoCycles += it.computeCycles;
                }
            }
        }
        double footprint = cfg.scratchpadTiles *
                           static_cast<double>(seg.maxDegree) *
                           cfg.wordBytes;
        rep.scratchpadHighWaterBytes =
            std::max(rep.scratchpadHighWaterBytes, footprint);
    }

    // Conservation against the aggregate result. The totals accumulate
    // per-segment values in segment order — the simulator's own
    // accumulation order — so equality is exact, not approximate.
    POSEIDON_CHECK(rep.total.cycles == r.cycles,
                   "profiler: attributed cycles "
                       << rep.total.cycles
                       << " != SimResult.cycles " << r.cycles);
    for (const auto &kv : byTag) {
        POSEIDON_CHECK(r.tagSeconds.contains(kv.first) &&
                           kv.second.seconds == r.tagSeconds[kv.first],
                       "profiler: tag " << isa::to_string(kv.first)
                                        << " seconds drifted from "
                                           "SimResult.tagSeconds");
    }

    rep.tags.reserve(byTag.size());
    for (auto &kv : byTag) rep.tags.push_back({kv.first, kv.second});
    std::sort(rep.tags.begin(), rep.tags.end(),
              [](const TagProfile &a, const TagProfile &b) {
                  return a.b.cycles > b.b.cycles;
              });
    return rep;
}

// --------------------------------------------------- ProfileReport

const TagProfile*
ProfileReport::find_tag(isa::BasicOp tag) const
{
    for (const TagProfile &t : tags) {
        if (t.tag == tag) return &t;
    }
    return nullptr;
}

namespace {

std::string
pct(double share)
{
    return AsciiTable::num(100.0 * share, 1);
}

} // namespace

std::string
ProfileReport::verdict() const
{
    if (tags.empty() || total.cycles <= 0.0) {
        return "empty run: nothing to attribute";
    }
    const TagProfile &top = tags.front();
    double share = top.b.cycles / total.cycles;
    std::ostringstream os;
    os << isa::to_string(top.tag) << " dominates ("
       << AsciiTable::num(100.0 * share, 0) << "% of "
       << (workload.empty() ? std::string("the run") : workload)
       << ") and is " << AsciiTable::num(100.0 * top.b.mem_exposed_share(), 0)
       << "% memory-exposed / "
       << AsciiTable::num(100.0 * top.b.compute_exposed_share(), 0)
       << "% compute-exposed: ";
    switch (top.bound()) {
      case Bound::Memory:
        if (top.b.spill_share() > 0.10) {
            os << "scratchpad respill is "
               << AsciiTable::num(100.0 * top.b.spill_share(), 0)
               << "% of its HBM time — grow scratchpadMB (or cut "
                  "scratchpadTiles) before adding bandwidth";
        } else if (top.b.retry_share() > 0.10) {
            os << "ECC replays are "
               << AsciiTable::num(100.0 * top.b.retry_share(), 0)
               << "% of its HBM time — the fault model, not the "
                  "dataflow, is the bottleneck";
        } else {
            os << "raise HBM bandwidth; lanes are idle waiting on "
                  "transfers";
        }
        break;
      case Bound::Compute:
        if (top.b.nttCycles >= top.b.laneElems /
                                   static_cast<double>(cfg.lanes) &&
            top.b.nttCycles >= top.b.autoCycles) {
            os << "NTT cores are the critical resource — more NTT "
                  "throughput (cores or radix) pays off first";
        } else if (top.b.autoCycles > top.b.nttCycles) {
            os << "the automorphism core is the critical resource — "
                  "HFAuto width pays off first";
        } else {
            os << "the vector lanes are the critical resource — more "
                  "lanes pay off first";
        }
        break;
      case Bound::Balanced:
        os << "compute and memory are balanced — only raising both "
              "roofs together helps";
        break;
    }
    return os.str();
}

std::string
ProfileReport::to_text() const
{
    std::ostringstream os;
    std::string title = "Cycle attribution";
    if (!workload.empty()) title += " — " + workload;
    AsciiTable t(title);
    t.header({"Tag", "cycles", "share%", "cmp-exp%", "mem-exp%",
              "ovlp%", "lane-occ%", "ntt-occ%", "auto-occ%", "bw-util%",
              "spill%", "bound"});
    auto add_row = [&](const std::string &name,
                       const ExposureBuckets &b, const char *bound) {
        double share = total.cycles > 0.0 ? b.cycles / total.cycles
                                          : 0.0;
        t.row({name, AsciiTable::num(b.cycles, 0), pct(share),
               pct(b.compute_exposed_share()),
               pct(b.mem_exposed_share()), pct(b.overlapped_share()),
               pct(b.lane_occupancy(cfg)), pct(b.ntt_occupancy()),
               pct(b.auto_occupancy()),
               pct(b.bandwidth_utilization(cfg)), pct(b.spill_share()),
               bound});
    };
    for (const TagProfile &tp : tags) {
        add_row(isa::to_string(tp.tag), tp.b, to_string(tp.bound()));
    }
    add_row("TOTAL", total, "-");
    os << t.str();

    AsciiTable rf("Roofline (ridge at " +
                  AsciiTable::num(roofline.ridgeElemsPerByte, 3) +
                  " elems/byte)");
    rf.header({"Tag", "AI (elems/B)", "achieved Gelems/s",
               "attainable Gelems/s", "roof%", "side"});
    for (const TagProfile &tp : tags) {
        double ai = tp.b.arithmetic_intensity();
        double ach = tp.b.achieved_elems_per_sec();
        double att = roofline.attainable_elems_per_sec(ai);
        rf.row({isa::to_string(tp.tag),
                std::isfinite(ai) ? AsciiTable::num(ai, 3) : "inf",
                AsciiTable::num(ach / 1e9, 3),
                AsciiTable::num(att / 1e9, 3),
                pct(att > 0.0 ? ach / att : 0.0),
                ai < roofline.ridgeElemsPerByte ? "memory" : "compute"});
    }
    os << rf.str();

    os << "scratchpad: high-water "
       << AsciiTable::num(scratchpadHighWaterBytes / (1024.0 * 1024.0),
                          2)
       << " MB of "
       << AsciiTable::num(scratchpadCapacityBytes / (1024.0 * 1024.0),
                          2)
       << " MB; spill " << pct(total.spill_share())
       << "% of memory cycles\n";
    if (faults.wordsTransferred > 0 && faults.retryCycles > 0.0) {
        os << "ECC: " << faults.detected << " replayed words, "
           << AsciiTable::num(faults.retryCycles, 0)
           << " retry cycles (" << pct(total.retry_share())
           << "% of memory cycles)\n";
    }
    os << "verdict: " << verdict() << "\n";
    return os.str();
}

namespace {

Json
buckets_json(const ExposureBuckets &b, const HwConfig &cfg)
{
    Json j = Json::object();
    j.set("cycles", Json(b.cycles));
    j.set("seconds", Json(b.seconds));
    j.set("compute_exposed", Json(b.computeExposed));
    j.set("mem_exposed", Json(b.memExposed));
    j.set("overlapped", Json(b.overlapped));
    j.set("compute_cycles", Json(b.computeCycles));
    j.set("mem_cycles", Json(b.memCycles));
    j.set("spill_cycles", Json(b.spillCycles));
    j.set("retry_cycles", Json(b.retryCycles));
    j.set("bytes", Json(b.bytes));
    j.set("compute_elems", Json(b.computeElems));
    j.set("segments", Json(b.segments));
    j.set("lane_occupancy", Json(b.lane_occupancy(cfg)));
    j.set("ntt_occupancy", Json(b.ntt_occupancy()));
    j.set("auto_occupancy", Json(b.auto_occupancy()));
    j.set("bandwidth_utilization", Json(b.bandwidth_utilization(cfg)));
    j.set("spill_share", Json(b.spill_share()));
    j.set("retry_share", Json(b.retry_share()));
    double ai = b.arithmetic_intensity();
    j.set("arithmetic_intensity",
          std::isfinite(ai) ? Json(ai) : Json("inf"));
    j.set("achieved_elems_per_sec", Json(b.achieved_elems_per_sec()));
    return j;
}

} // namespace

Json
ProfileReport::to_json() const
{
    Json root = Json::object();
    root.set("schema_version", Json(1));
    root.set("kind", Json("poseidon_profile"));
    root.set("workload", Json(workload));

    Json hw = Json::object();
    hw.set("lanes", Json(static_cast<u64>(cfg.lanes)));
    hw.set("clock_ghz", Json(cfg.clockGHz));
    hw.set("ntt_radix_log2", Json(cfg.nttRadixLog2));
    hw.set("hbm_peak_gbps", Json(cfg.hbmPeakGBps));
    hw.set("hbm_efficiency", Json(cfg.hbmEfficiency));
    hw.set("scratchpad_mb", Json(cfg.scratchpadMB));
    hw.set("overlap", Json(PoseidonSim::kOverlap));
    root.set("hw", hw);

    root.set("total", buckets_json(total, cfg));

    Json tagsJson = Json::array();
    for (const TagProfile &tp : tags) {
        Json t = buckets_json(tp.b, cfg);
        t.set("tag", Json(isa::to_string(tp.tag)));
        t.set("share", Json(total.cycles > 0.0
                                ? tp.b.cycles / total.cycles
                                : 0.0));
        t.set("bound", Json(to_string(tp.bound())));
        tagsJson.push_back(std::move(t));
    }
    root.set("tags", tagsJson);

    Json kinds = Json::object();
    for (int k = 0; k < 8; ++k) {
        kinds.set(isa::to_string(static_cast<OpKind>(k)),
                  Json(kindCycles[static_cast<std::size_t>(k)]));
    }
    root.set("kind_cycles", kinds);

    Json roof = Json::object();
    roof.set("peak_elems_per_sec", Json(roofline.peakElemsPerSec));
    roof.set("peak_bytes_per_sec", Json(roofline.peakBytesPerSec));
    roof.set("ridge_elems_per_byte", Json(roofline.ridgeElemsPerByte));
    root.set("roofline", roof);

    Json sp = Json::object();
    sp.set("high_water_bytes", Json(scratchpadHighWaterBytes));
    sp.set("capacity_bytes", Json(scratchpadCapacityBytes));
    root.set("scratchpad", sp);

    Json fj = Json::object();
    fj.set("words_transferred",
           Json(static_cast<double>(faults.wordsTransferred)));
    fj.set("detected", Json(static_cast<double>(faults.detected)));
    fj.set("retry_cycles", Json(faults.retryCycles));
    root.set("faults", fj);

    root.set("verdict", Json(verdict()));
    return root;
}

void
ProfileReport::export_metrics(telemetry::MetricsRegistry &reg) const
{
    reg.gauge("sim.util.lane_occupancy").set(total.lane_occupancy(cfg));
    reg.gauge("sim.util.ntt_occupancy").set(total.ntt_occupancy());
    reg.gauge("sim.util.auto_occupancy").set(total.auto_occupancy());
    reg.gauge("sim.util.bandwidth_utilization")
        .set(total.bandwidth_utilization(cfg));
    reg.gauge("sim.util.compute_exposed_share")
        .set(total.compute_exposed_share());
    reg.gauge("sim.util.mem_exposed_share")
        .set(total.mem_exposed_share());
    reg.gauge("sim.util.overlapped_share")
        .set(total.overlapped_share());
    reg.gauge("sim.util.spill_share").set(total.spill_share());
    reg.gauge("sim.util.retry_share").set(total.retry_share());
    reg.gauge("sim.util.scratchpad_high_water_bytes")
        .set(scratchpadHighWaterBytes);
    for (int k = 0; k < 8; ++k) {
        reg.gauge(std::string("sim.util.kind_cycles.") +
                  isa::to_string(static_cast<OpKind>(k)))
            .set(kindCycles[static_cast<std::size_t>(k)]);
    }
    for (const TagProfile &tp : tags) {
        std::string base =
            std::string("sim.util.tag.") + isa::to_string(tp.tag);
        reg.gauge(base + ".mem_exposed_share")
            .set(tp.b.mem_exposed_share());
        reg.gauge(base + ".bandwidth_utilization")
            .set(tp.b.bandwidth_utilization(cfg));
        double ai = tp.b.arithmetic_intensity();
        reg.gauge(std::string("sim.roofline.tag.") +
                  isa::to_string(tp.tag) + ".intensity")
            .set(std::isfinite(ai) ? ai : -1.0);
        reg.gauge(std::string("sim.roofline.tag.") +
                  isa::to_string(tp.tag) + ".achieved_elems_per_sec")
            .set(tp.b.achieved_elems_per_sec());
    }
    reg.gauge("sim.roofline.ridge_elems_per_byte")
        .set(roofline.ridgeElemsPerByte);
    reg.gauge("sim.roofline.peak_elems_per_sec")
        .set(roofline.peakElemsPerSec);
    reg.gauge("sim.roofline.peak_bytes_per_sec")
        .set(roofline.peakBytesPerSec);
}

} // namespace poseidon::hw
