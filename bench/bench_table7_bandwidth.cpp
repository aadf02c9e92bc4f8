// Reproduces Table VII: HBM bandwidth utilization of each basic
// operation and of the whole benchmarks. Expected shape (paper):
// simple streaming operations (HAdd, PMult) run near peak (~98%);
// Rescale is lowest (~26-30%) because it reuses scratchpad-resident
// data; benchmark averages land mid-range.

#include <cstdio>

#include "bench/bench_harness.h"
#include "common/table.h"
#include "hw/sim.h"
#include "workloads/workloads.h"

using namespace poseidon;
using isa::BasicOp;
using isa::OpShape;
using isa::Trace;

int
main(int argc, char **argv)
{
    bench::Harness h("table7_bandwidth", argc, argv);
    hw::PoseidonSim sim;
    OpShape s = workloads::paper_shape();
    s.dnum = 0; // basic ops at digit-per-prime keyswitching
    s.K = 1;
    h.config("n", telemetry::Json(s.n));
    h.config("limbs", telemetry::Json(s.limbs));

    AsciiTable t1(
        "Table VII (top): bandwidth utilization of basic operations");
    t1.header({"Operation", "Utilization (%)", "HBM traffic (MB)",
               "time (ms)"});

    auto row = [&](const char *name, Trace &t) {
        auto r = sim.run(t);
        h.metric(std::string(name) + ".bandwidth_util",
                 r.bandwidth_utilization(sim.config()));
        double mb = static_cast<double>(r.bytesRead + r.bytesWritten) /
                    1e6;
        t1.row({name,
                AsciiTable::num(100.0 * r.bandwidth_utilization(
                                            sim.config()),
                                2),
                AsciiTable::num(mb, 1),
                AsciiTable::num(r.seconds * 1e3, 3)});
    };

    {
        Trace t;
        isa::emit_hadd(t, s);
        row("HAdd", t);
    }
    {
        Trace t;
        isa::emit_pmult(t, s);
        row("PMult", t);
    }
    {
        Trace t;
        isa::emit_cmult(t, s);
        row("CMult", t);
    }
    {
        Trace t;
        isa::emit_keyswitch(t, s);
        row("Keyswitch", t);
    }
    {
        Trace t;
        isa::emit_rotation(t, s);
        row("Rotation", t);
    }
    {
        Trace t;
        isa::emit_rescale(t, s);
        row("Rescale", t);
    }
    {
        Trace t;
        isa::OpShape top = workloads::paper_shape();
        isa::emit_bootstrap(t, top, top.n / 2);
        row("Bootstrapping", t);
    }
    t1.print();

    AsciiTable t2(
        "Table VII (bottom): average bandwidth utilization of whole "
        "benchmarks");
    t2.header({"Benchmark", "Utilization (%)", "HBM traffic (GB)",
               "time (ms)"});
    for (const auto &w : workloads::paper_benchmarks()) {
        auto r = sim.run(w.trace);
        h.record_sim(w.name, r, sim.config());
        t2.row({w.name,
                AsciiTable::num(100.0 * r.bandwidth_utilization(
                                            sim.config()),
                                2),
                AsciiTable::num(static_cast<double>(r.bytesRead +
                                                    r.bytesWritten) /
                                    1e9,
                                1),
                AsciiTable::num(r.seconds * 1e3, 1)});
    }
    t2.print();

    std::printf("\nPaper shape check: HAdd/PMult ~98%% (streaming), "
                "Rescale lowest (~26-30%%), benchmarks mid-range.\n");
    return h.finish();
}
