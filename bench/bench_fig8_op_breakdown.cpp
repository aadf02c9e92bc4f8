// Reproduces Fig. 8: per-benchmark execution time broken down by FHE
// basic operation. Shape (paper): Keyswitch-bearing operations
// (CMult, Rotation) and Bootstrapping occupy the largest share.

#include <cstdio>

#include "bench/bench_harness.h"

#include "common/table.h"
#include "hw/sim.h"
#include "workloads/workloads.h"

using namespace poseidon;
using isa::BasicOp;

int
main(int argc, char **argv)
{
    bench::Harness h("fig8_op_breakdown", argc, argv);
    hw::PoseidonSim sim;

    const BasicOp cols[] = {BasicOp::HAdd, BasicOp::PMult,
                            BasicOp::CMult, BasicOp::Rotation,
                            BasicOp::Rescale, BasicOp::Bootstrapping};

    AsciiTable t("Fig. 8: basic-operation time breakdown per benchmark "
                 "(percent of execution time)");
    std::vector<std::string> hdr = {"Benchmark", "total (ms)"};
    for (BasicOp b : cols) hdr.push_back(isa::to_string(b));
    t.header(hdr);

    for (const auto &w : workloads::paper_benchmarks()) {
        auto r = sim.run(w.trace);
        h.record_sim(w.name, r, sim.config());
        std::vector<std::string> row = {
            w.name, AsciiTable::num(r.seconds * 1e3, 1)};
        for (BasicOp b : cols) {
            double sec = r.tagSeconds[b];
            h.metric(w.name + "." + isa::to_string(b) + "_pct",
                     100.0 * sec / r.seconds);
            row.push_back(AsciiTable::num(100.0 * sec / r.seconds, 1));
        }
        t.row(row);
    }
    t.print();

    std::printf("\nShape check (paper): Keyswitch-heavy operations "
                "(CMult, Rotation) and Bootstrapping dominate.\n");
    return h.finish();
}
