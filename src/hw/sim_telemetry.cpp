#include "hw/sim_telemetry.h"

#include <array>
#include <string>

namespace poseidon::hw {

using telemetry::Json;
using telemetry::TraceEvent;
using telemetry::Tracer;

namespace {

/// The instruments record_sim_metrics updates, resolved in the order
/// it updates them (telemetry::resolved caches one set per thread).
struct SimInstruments
{
    telemetry::Counter *runs, *cycles, *computeCycles, *memCycles;
    std::array<telemetry::Counter *, 8> kindCycles;
    telemetry::Counter *bytesRead, *bytesWritten;
    telemetry::Gauge *bandwidth;
    telemetry::Counter *wordsTransferred, *bitFlips, *corrected,
        *detected, *silent, *retryCycles;

    explicit SimInstruments(telemetry::MetricsRegistry &reg)
        : runs(&reg.counter("sim.runs")),
          cycles(&reg.counter("sim.cycles")),
          computeCycles(&reg.counter("sim.compute_cycles")),
          memCycles(&reg.counter("sim.mem_cycles"))
    {
        for (int k = 0; k < 8; ++k) {
            kindCycles[static_cast<std::size_t>(k)] =
                &reg.counter(std::string("sim.kind_cycles.") +
                             isa::to_string(static_cast<isa::OpKind>(k)));
        }
        bytesRead = &reg.counter("sim.hbm.bytes_read");
        bytesWritten = &reg.counter("sim.hbm.bytes_written");
        bandwidth = &reg.gauge("sim.bandwidth_utilization");
        wordsTransferred = &reg.counter("sim.faults.words_transferred");
        bitFlips = &reg.counter("sim.faults.bit_flips");
        corrected = &reg.counter("sim.faults.corrected");
        detected = &reg.counter("sim.faults.detected");
        silent = &reg.counter("sim.faults.silent");
        retryCycles = &reg.counter("sim.faults.retry_cycles");
    }
};

} // namespace

void
record_sim_metrics(telemetry::MetricsRegistry &reg, const SimResult &r,
                   const HwConfig &cfg)
{
    const SimInstruments &m = telemetry::resolved<SimInstruments>(reg);
    m.runs->increment();
    m.cycles->add(r.cycles);
    m.computeCycles->add(r.computeCycles);
    m.memCycles->add(r.memCycles);
    for (std::size_t k = 0; k < m.kindCycles.size(); ++k) {
        m.kindCycles[k]->add(r.kindCycles[k]);
    }
    m.bytesRead->add(static_cast<double>(r.bytesRead));
    m.bytesWritten->add(static_cast<double>(r.bytesWritten));
    m.bandwidth->set(r.bandwidth_utilization(cfg));

    m.wordsTransferred->add(
        static_cast<double>(r.faults.wordsTransferred));
    m.bitFlips->add(static_cast<double>(r.faults.bitFlips));
    m.corrected->add(static_cast<double>(r.faults.corrected));
    m.detected->add(static_cast<double>(r.faults.detected));
    m.silent->add(static_cast<double>(r.faults.silent));
    m.retryCycles->add(r.faults.retryCycles);
}

namespace {

/// Row layout of the synthesized process.
constexpr int kTidBasicOps = 1;
constexpr int kTidCompute = 2;
constexpr int kTidHbm = 3;

} // namespace

void
append_sim_track(telemetry::Tracer &tracer, const SimTimeline &tl,
                 const HwConfig &cfg, double offsetUs)
{
    if (!tracer.active()) return;
    tracer.set_process_name(Tracer::kSimPid,
                            "Poseidon accelerator (simulated cycles)");
    tracer.set_thread_name(Tracer::kSimPid, kTidBasicOps, "basic ops");
    tracer.set_thread_name(Tracer::kSimPid, kTidCompute, "compute");
    tracer.set_thread_name(Tracer::kSimPid, kTidHbm, "HBM");

    const double cyclesPerUs = cfg.clockGHz * 1e3;
    auto to_us = [&](double cycles) { return cycles / cyclesPerUs; };

    for (const SegmentTiming &seg : tl.segments) {
        TraceEvent e;
        e.name = isa::to_string(seg.tag);
        e.pid = Tracer::kSimPid;
        e.tid = kTidBasicOps;
        e.tsUs = offsetUs + to_us(seg.startCycle);
        e.durUs = to_us(seg.cycles);
        e.args.emplace_back("cycles", Json(seg.cycles));
        e.args.emplace_back("compute_cycles", Json(seg.computeCycles));
        e.args.emplace_back("mem_cycles", Json(seg.memCycles));
        tracer.complete_event(std::move(e));

        // Inside a segment compute and memory overlap; each row lays
        // its own instructions out back-to-back from the segment
        // start, which preserves per-instruction durations (the
        // quantity the model prices) rather than issue order.
        double computeCursor = seg.startCycle;
        double memCursor = seg.startCycle;
        for (const InstrTiming &it : seg.instrs) {
            if (it.computeCycles > 0.0) {
                TraceEvent c;
                c.name = isa::to_string(it.kind);
                c.pid = Tracer::kSimPid;
                c.tid = kTidCompute;
                c.tsUs = offsetUs + to_us(computeCursor);
                c.durUs = to_us(it.computeCycles);
                c.args.emplace_back("cycles", Json(it.computeCycles));
                tracer.complete_event(std::move(c));
                computeCursor += it.computeCycles;
            }
            if (it.memCycles > 0.0) {
                TraceEvent m;
                m.name = isa::to_string(it.kind);
                m.pid = Tracer::kSimPid;
                m.tid = kTidHbm;
                m.tsUs = offsetUs + to_us(memCursor);
                m.durUs = to_us(it.memCycles);
                m.args.emplace_back("cycles", Json(it.memCycles));
                m.args.emplace_back("bytes",
                                    Json(static_cast<double>(it.bytes)));
                tracer.complete_event(std::move(m));
                memCursor += it.memCycles;
            }
        }
    }
}

} // namespace poseidon::hw
