// Reproduces Table IV: throughput of the FHE basic operations
// (ops/second) on CPU vs GPU (over100x) vs HEAX vs Poseidon, plus the
// Poseidon-over-CPU speedup.
//
// CPU: this library at the paper shape (N=2^16, 44 limbs, one special
// prime, one keyswitch digit per prime), the seven ops timed as
// interleaved probes by bench::best_in_window: each op's fastest rep
// in a 45 s window, at least three reps each, printed with the minor
// page faults of that rep. The probes run twice: on one host thread,
// the paper's single-core baseline and the speedup column's
// denominator, and on every host thread. A run takes about 2 minutes
// on a 4-core VM and 5.5 GB of memory, most of it the two switching
// keys. GPU/HEAX: the published numbers the paper compares against.
// Poseidon: the cycle model at the same shape.

#include <algorithm>
#include <cstdio>

#include "bench/bench_harness.h"

#include "baselines/published.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "common/table.h"
#include "hw/sim.h"
#include "workloads/workloads.h"

using namespace poseidon;
using isa::BasicOp;
using isa::OpShape;
using isa::Trace;

namespace {

constexpr double kWindowSeconds = 45.0;
constexpr std::size_t kMinReps = 3;

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
    CkksParams mp;
    mp.logN = 16;
    mp.L = 44;
    mp.scaleBits = 35;
    mp.firstPrimeBits = 45;
    mp.specialPrimeBits = 45;

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
    Trace tks;
    isa::emit_keyswitch(tks, paper);
    double pKs = 1.0 / sim.run(tks).seconds;

    auto gpu = baselines::gpu_over100x_rates();
    auto heax = baselines::heax_rates();

    // --- CPU baseline: this library at the paper shape. ---
    const std::size_t allThreads = parallel::num_threads();
    std::printf("Measuring CPU baseline at N=2^%u, L=%zu on 1 and %zu "
                "host threads ...\n",
                mp.logN, mp.L, allThreads);
    auto ctx = make_ckks_context(mp);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    GaloisKeys gk = keygen.make_galois_keys({1});
    Plaintext pt = encoder.encode(
        std::vector<cdouble>(ctx->slots(), cdouble(0.5, 0.25)), mp.L);
    Ciphertext ct = encryptor.encrypt(pt);
    Ciphertext ct2 = encryptor.encrypt(pt);
    RnsPoly p = ct.c0;
    Ciphertext c = ct;

    struct Row
    {
        bench::Probe cpu;
        double gpu, heax, poseidon;
        double opsPerRep = 1;
    };
    const Row rows[] = {
        {{"HAdd", [&] { (void)eval.add(ct, ct2); }},
         gpu.hadd, heax.hadd, simulate(isa::emit_hadd, BasicOp::HAdd)},
        {{"PMult", [&] { (void)eval.mul_plain(ct, pt); }},
         gpu.pmult, heax.pmult, simulate(isa::emit_pmult, BasicOp::PMult)},
        // mul leaves its product over QP; the ModDown completes the
        // relinearization.
        {{"CMult", [&] { (void)eval.mod_down(eval.mul(ct, ct2, relin)); }},
         gpu.cmult, heax.cmult, simulate(isa::emit_cmult, BasicOp::CMult)},
        // INTT + NTT of a fresh copy: two transforms per rep.
        {{"NTT", [&] { p.to_coeff(); p.to_eval(); }, [&] { p = ct.c0; }},
         gpu.ntt, heax.ntt, simulate(isa::emit_ntt_op, BasicOp::NttOnly),
         2},
        {{"Keyswitch", [&] { (void)eval.keyswitch_core(ct.c1, relin); }},
         gpu.keyswitch, heax.keyswitch, pKs},
        {{"Rotation", [&] { (void)eval.rotate(ct, 1, gk); }},
         gpu.rotation, heax.rotation,
         simulate(isa::emit_rotation, BasicOp::Rotation)},
        {{"Rescale", [&] { eval.rescale_inplace(c); }, [&] { c = ct; }},
         gpu.rescale, heax.rescale,
         simulate(isa::emit_rescale, BasicOp::Rescale)},
    };
    std::vector<bench::Probe> probes;
    for (const Row &r : rows) probes.push_back(r.cpu);
    parallel::set_num_threads(1);
    auto cpu1 = bench::best_in_window(probes, kWindowSeconds, kMinReps);
    parallel::set_num_threads(allThreads);
    auto cpuAll = bench::best_in_window(probes, kWindowSeconds, kMinReps);

    const std::string all = std::to_string(allThreads);
    AsciiTable table(
        "Table IV: basic operation throughput (operations per second), "
        "N=2^16, 44 limbs");
    table.header({"Operation", "CPU 1 thread", "CPU minor faults",
                  "CPU " + all + " threads", "over100x (GPU, published)",
                  "HEAX (FPGA, published)", "Poseidon (model)",
                  "speedup vs CPU 1 thread"});
    std::size_t minReps = cpu1[0].reps, maxReps = cpu1[0].reps;
    for (std::size_t i = 0; i < cpu1.size(); ++i) {
        const Row &r = rows[i];
        double cpuRate = r.opsPerRep / cpu1[i].seconds;
        double allRate = r.opsPerRep / cpuAll[i].seconds;
        for (const auto *res : {&cpu1[i], &cpuAll[i]}) {
            minReps = std::min(minReps, res->reps);
            maxReps = std::max(maxReps, res->reps);
        }
        const std::string &op = r.cpu.name;
        h.metric(op + ".cpu_ops_per_sec", cpuRate);
        h.metric(op + ".cpu_minor_faults",
                 static_cast<double>(cpu1[i].minorFaults));
        h.metric(op + ".cpu_all_threads_ops_per_sec", allRate);
        h.metric(op + ".poseidon_ops_per_sec", r.poseidon);
        h.metric(op + ".speedup_vs_cpu", r.poseidon / cpuRate);
        table.row({op, rate(cpuRate), std::to_string(cpu1[i].minorFaults),
                   rate(allRate), rate(r.gpu), rate(r.heax),
                   rate(r.poseidon),
                   AsciiTable::speedup(r.poseidon / cpuRate, 0)});
    }
    table.print();
    std::printf("\nCPU: each op's fastest of %zu to %zu reps in a %.0f s "
                "window per thread count; minor faults are the 1-thread "
                "rep's.\n",
                minReps, maxReps, kWindowSeconds);

    std::printf(
        "\nPaper's reported speedups over its Xeon baseline: PMult 349x, "
        "CMult 718x, NTT 1348x,\nKeyswitch 780x, Rotation 774x, Rescale "
        "572x. Expected shape: speedup grows with operation\ncomplexity; "
        "absolute ratios differ because our CPU baseline is this "
        "library, not SEAL on a Xeon.\n");
    return h.finish();
}
