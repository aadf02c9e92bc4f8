// Reproduces Table IV: throughput of the FHE basic operations
// (ops/second) on CPU vs GPU (over100x) vs HEAX vs Poseidon, plus the
// Poseidon-over-CPU speedup.
//
// CPU: this library measured single-threaded at the paper shape
// (N=2^16, 44 limbs, one special prime, one keyswitch digit per prime),
// the fastest of two runs per op; a run takes about 35 s and 5.4 GB of
// memory, most of it the two switching keys. GPU/HEAX: the published
// numbers the paper compares against. Poseidon: the cycle model at the
// same shape.

#include <cstdio>

#include "bench/bench_harness.h"

#include "baselines/cpu.h"
#include "baselines/published.h"
#include "common/table.h"
#include "hw/sim.h"
#include "workloads/workloads.h"

using namespace poseidon;
using isa::BasicOp;
using isa::OpShape;
using isa::Trace;

namespace {

std::string
rate(double opsPerSec)
{
    if (opsPerSec <= 0) return "/";
    char buf[32];
    if (opsPerSec >= 100) {
        std::snprintf(buf, sizeof(buf), "%.0f", opsPerSec);
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f", opsPerSec);
    }
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("table4_basic_ops", argc, argv);
    // --- CPU baseline: measured at the paper shape. ---
    CkksParams mp;
    mp.logN = 16;
    mp.L = 44;
    mp.scaleBits = 35;
    mp.firstPrimeBits = 45;
    mp.specialPrimeBits = 45;
    std::printf("Measuring CPU baseline at N=2^%u, L=%zu ...\n", mp.logN,
                mp.L);
    auto cpu = baselines::CpuBaseline::measure(mp, /*reps=*/2);

    OpShape paper;
    paper.n = mp.degree();
    paper.limbs = mp.L;
    paper.K = mp.K;
    h.config("n", telemetry::Json(paper.n));
    h.config("limbs", telemetry::Json(paper.limbs));

    // --- Poseidon: cycle model at the paper shape. ---
    hw::PoseidonSim sim;
    auto simulate = [&](void (*emit)(Trace &, const OpShape &, BasicOp),
                        BasicOp tag) {
        Trace t;
        emit(t, paper, tag);
        return 1.0 / sim.run(t).seconds;
    };
    double pHadd = simulate(isa::emit_hadd, BasicOp::HAdd);
    double pPmult = simulate(isa::emit_pmult, BasicOp::PMult);
    double pCmult = simulate(isa::emit_cmult, BasicOp::CMult);
    double pNtt = simulate(isa::emit_ntt_op, BasicOp::NttOnly);
    double pRot = simulate(isa::emit_rotation, BasicOp::Rotation);
    double pResc = simulate(isa::emit_rescale, BasicOp::Rescale);
    Trace tks;
    isa::emit_keyswitch(tks, paper);
    double pKs = 1.0 / sim.run(tks).seconds;

    auto gpu = baselines::gpu_over100x_rates();
    auto heax = baselines::heax_rates();

    AsciiTable table(
        "Table IV: basic operation throughput (operations per second), "
        "N=2^16, 44 limbs");
    table.header({"Operation", "CPU (this lib, 1 thread)",
                  "over100x (GPU, published)", "HEAX (FPGA, published)",
                  "Poseidon (model)", "speedup vs CPU"});

    struct Row
    {
        const char *name;
        double cpu, gpu, heax, poseidon;
    };
    Row rows[] = {
        {"HAdd", 1.0 / cpu.hadd, gpu.hadd, heax.hadd, pHadd},
        {"PMult", 1.0 / cpu.pmult, gpu.pmult, heax.pmult, pPmult},
        {"CMult", 1.0 / cpu.cmult, gpu.cmult, heax.cmult, pCmult},
        {"NTT", 1.0 / cpu.ntt, gpu.ntt, heax.ntt, pNtt},
        {"Keyswitch", 1.0 / cpu.keyswitch, gpu.keyswitch, heax.keyswitch,
         pKs},
        {"Rotation", 1.0 / cpu.rotation, gpu.rotation, heax.rotation,
         pRot},
        {"Rescale", 1.0 / cpu.rescale, gpu.rescale, heax.rescale, pResc},
    };
    for (const auto &r : rows) {
        h.metric(std::string(r.name) + ".poseidon_ops_per_sec",
                 r.poseidon);
        h.metric(std::string(r.name) + ".speedup_vs_cpu",
                 r.poseidon / r.cpu);
        table.row({r.name, rate(r.cpu), rate(r.gpu), rate(r.heax),
                   rate(r.poseidon),
                   AsciiTable::speedup(r.poseidon / r.cpu, 0)});
    }
    table.print();

    std::printf(
        "\nPaper's reported speedups over its Xeon baseline: PMult 349x, "
        "CMult 718x, NTT 1348x,\nKeyswitch 780x, Rotation 774x, Rescale "
        "572x. Expected shape: speedup grows with operation\ncomplexity; "
        "absolute ratios differ because our CPU baseline is this "
        "library, not SEAL on a Xeon.\n");
    return h.finish();
}
