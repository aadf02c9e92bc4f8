// Google-benchmark microbenchmarks of the software kernels backing the
// five Poseidon operators: modular arithmetic (MA/MM/SBT), the
// reference and fused NTT, the automorphism implementations, and the
// RNS base conversion at the heart of keyswitching.

#include <benchmark/benchmark.h>

#include <functional>

#include "bench/bench_harness.h"
#include "common/parallel.h"
#include "common/prng.h"
#include "kernels/kernels.h"
#include "ntt/fusion.h"
#include "poly/automorphism.h"
#include "poly/hfauto.h"
#include "poly/poly.h"
#include "rns/conv.h"
#include "rns/primes.h"

namespace poseidon {
namespace {

constexpr u64 kPrime31 = 2146959361; // 31-bit NTT prime (q = 1 mod 2^17)

void
BM_MulMod128(benchmark::State &state)
{
    Prng prng(1);
    u64 a = prng.uniform(kPrime31), b = prng.uniform(kPrime31);
    for (auto _ : state) {
        a = mul_mod(a ^ b, b | 1, kPrime31);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulMod128);

void
BM_BarrettMul(benchmark::State &state)
{
    Barrett64 br(kPrime31);
    Prng prng(2);
    u64 a = prng.uniform(kPrime31), b = prng.uniform(kPrime31);
    for (auto _ : state) {
        a = br.mul(a ^ b, b | 1);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_BarrettMul);

void
BM_ShoupMul(benchmark::State &state)
{
    Prng prng(3);
    ShoupMul m(prng.uniform(kPrime31), kPrime31);
    u64 a = prng.uniform(kPrime31);
    for (auto _ : state) {
        a = m.mul(a | 1);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ShoupMul);

// ---- Dispatched SIMD kernel layer (src/kernels). ----
//
// Each benchmark runs once per *supported* level so a single run on
// an AVX-512 host produces the scalar/avx2/avx512 comparison rows.

void
supported_levels(benchmark::internal::Benchmark *b)
{
    for (int l = 0; l <= 2; ++l) {
        auto lvl = static_cast<kernels::SimdLevel>(l);
        if (kernels::level_supported(lvl)) b->Arg(l);
    }
}

void
BM_KernelMulModN(benchmark::State &state)
{
    auto lvl = static_cast<kernels::SimdLevel>(state.range(0));
    const kernels::KernelTable &t = kernels::table(lvl);
    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    Prng prng(10);
    std::vector<u64> a(n), b(n), out(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto &v : b) v = prng.uniform(q);
    for (auto _ : state) {
        t.mul_mod_n(out.data(), a.data(), b.data(), n, q);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernels::level_name(lvl));
}
BENCHMARK(BM_KernelMulModN)->Apply(supported_levels);

/// A dot product of `terms` terms with operands canonical mod q:
/// vector times vector (the key product's shape) or, with
/// scalarWeights, vector times constant (base conversion's). Shared
/// by the dot rows and the report.
struct DotBench
{
    std::vector<std::vector<u64>> a, b;
    std::vector<const u64 *> ap, bp;
    std::vector<u64> w, out;

    DotBench(std::size_t terms, std::size_t n, u64 q, bool scalarWeights)
        : a(terms, std::vector<u64>(n)), b(terms, std::vector<u64>(n)),
          w(terms), out(n)
    {
        Prng prng(11);
        for (std::size_t k = 0; k < terms; ++k) {
            for (auto &v : a[k]) v = prng.uniform(q);
            for (auto &v : b[k]) v = prng.uniform(q);
            w[k] = prng.uniform(q);
            ap.push_back(a[k].data());
            bp.push_back(scalarWeights ? nullptr : b[k].data());
        }
    }

    void
    run(const kernels::KernelTable &t, u64 q)
    {
        t.dot_mod_n(out.data(), ap.data(), bp.data(), w.data(), ap.size(),
                    out.size(), q, q);
    }
};

void
BM_KernelDot(benchmark::State &state)
{
    auto lvl = static_cast<kernels::SimdLevel>(state.range(0));
    auto terms = static_cast<std::size_t>(state.range(1));
    const kernels::KernelTable &t = kernels::table(lvl);
    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    DotBench d(terms, n, q, /*scalarWeights=*/false);
    for (auto _ : state) {
        d.run(t, q);
        benchmark::DoNotOptimize(d.out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * terms);
    state.SetLabel(kernels::level_name(lvl));
}

/// Every supported level at 3, 8 and 25 terms.
void
dot_args(benchmark::internal::Benchmark *b)
{
    for (int l = 0; l <= 2; ++l) {
        auto lvl = static_cast<kernels::SimdLevel>(l);
        if (!kernels::level_supported(lvl)) continue;
        for (int terms : {3, 8, 25}) b->Args({l, terms});
    }
}
BENCHMARK(BM_KernelDot)->Apply(dot_args);

void
BM_KernelScalarMulShoup(benchmark::State &state)
{
    auto lvl = static_cast<kernels::SimdLevel>(state.range(0));
    const kernels::KernelTable &t = kernels::table(lvl);
    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    Prng prng(12);
    u64 w = prng.uniform(q);
    u64 ws = static_cast<u64>((u128(w) << 64) / q);
    std::vector<u64> a(n), out(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto _ : state) {
        t.scalar_mul_shoup_n(out.data(), a.data(), n, w, ws, q);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernels::level_name(lvl));
}
BENCHMARK(BM_KernelScalarMulShoup)->Apply(supported_levels);

void
BM_KernelNttForward(benchmark::State &state)
{
    auto lvl = static_cast<kernels::SimdLevel>(state.range(0));
    const kernels::KernelTable &t = kernels::table(lvl);
    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    NttTable table(n, q);
    Prng prng(13);
    std::vector<u64> a(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto _ : state) {
        t.ntt_forward(a.data(), n, table.log_degree(),
                      table.psi_br().data(),
                      table.psi_br_shoup().data(), q);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernels::level_name(lvl));
}
BENCHMARK(BM_KernelNttForward)->Apply(supported_levels);

void
BM_KernelNttInverse(benchmark::State &state)
{
    auto lvl = static_cast<kernels::SimdLevel>(state.range(0));
    const kernels::KernelTable &t = kernels::table(lvl);
    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    NttTable table(n, q);
    Prng prng(14);
    std::vector<u64> a(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto _ : state) {
        t.ntt_inverse(a.data(), n, table.log_degree(),
                      table.ipsi_br().data(),
                      table.ipsi_br_shoup().data(), table.n_inv(),
                      table.n_inv_shoup(), q);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(kernels::level_name(lvl));
}
BENCHMARK(BM_KernelNttInverse)->Apply(supported_levels);

void
BM_NttForward(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    u64 q = generate_ntt_primes(n, 31, 1)[0];
    NttTable table(n, q);
    Prng prng(4);
    std::vector<u64> a(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto _ : state) {
        table.forward(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttForward)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void
BM_NttFusedForward(benchmark::State &state)
{
    std::size_t n = 1 << 14;
    unsigned k = static_cast<unsigned>(state.range(0));
    u64 q = generate_ntt_primes(n, 31, 1)[0];
    NttTable table(n, q);
    NttFused fused(table, k);
    Prng prng(5);
    std::vector<u64> a(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto _ : state) {
        fused.forward(a.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttFusedForward)->DenseRange(1, 6);

void
BM_AutomorphismReference(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    u64 q = generate_ntt_primes(n, 31, 1)[0];
    Prng prng(6);
    std::vector<u64> a(n), out(n);
    for (auto &v : a) v = prng.uniform(q);
    u64 g = galois_element_for_step(n, 3);
    for (auto _ : state) {
        automorphism_coeff_limb(a.data(), out.data(), n, g, q);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AutomorphismReference)->Arg(1 << 14)->Arg(1 << 16);

void
BM_HFAuto(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    u64 q = generate_ntt_primes(n, 31, 1)[0];
    HFAuto hf(n, 512);
    Prng prng(7);
    std::vector<u64> a(n), out(n);
    for (auto &v : a) v = prng.uniform(q);
    u64 g = galois_element_for_step(n, 3);
    for (auto _ : state) {
        hf.apply_limb(a.data(), out.data(), g, q);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HFAuto)->Arg(1 << 14)->Arg(1 << 16);

void
BM_RnsConv(benchmark::State &state)
{
    std::size_t n = 1 << 12;
    std::size_t limbs = static_cast<std::size_t>(state.range(0));
    auto primes = generate_ntt_primes(n, 31, limbs + 1);
    RnsBasis src(std::vector<u64>(primes.begin(), primes.end() - 1));
    RnsBasis dst(std::vector<u64>{primes.back()});
    RnsConv conv(src, dst);
    Prng prng(8);
    std::vector<std::vector<u64>> data(limbs, std::vector<u64>(n));
    for (std::size_t i = 0; i < limbs; ++i) {
        for (auto &v : data[i]) v = prng.uniform(src.modulus(i));
    }
    std::vector<u64> out(n);
    std::vector<const u64*> in(limbs);
    for (std::size_t i = 0; i < limbs; ++i) in[i] = data[i].data();
    for (auto _ : state) {
        conv.row(conv.operands(in, n), 0, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * limbs);
}
BENCHMARK(BM_RnsConv)->Arg(4)->Arg(8)->Arg(16);

void
BM_NttBatchParallel(benchmark::State &state)
{
    std::size_t n = 1 << 14;
    std::size_t limbs = 12;
    std::size_t threads = static_cast<std::size_t>(state.range(0));
    auto primes = generate_ntt_primes(n, 45, limbs);
    auto ring = std::make_shared<const RingContext>(n, primes);
    Sampler sampler(9);
    std::vector<i64> coeffs = sampler.gaussian(n, 1000.0);
    RnsPoly poly = RnsPoly::ct(ring, limbs, Domain::Coeff);
    poly.assign_signed(coeffs);

    parallel::set_num_threads(threads);
    for (auto _ : state) {
        RnsPoly p = poly;
        p.to_eval();
        benchmark::DoNotOptimize(p.limb(0));
    }
    parallel::set_num_threads(0);
    state.SetItemsProcessed(state.iterations() * n * limbs);
}
BENCHMARK(BM_NttBatchParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/// Console output as usual, plus every timing into the bench harness
/// (metric `<benchmark>.ns_per_iter`) so the run lands in
/// BENCH_micro_kernels.json like the table benches.
class HarnessReporter : public benchmark::ConsoleReporter
{
  public:
    explicit HarnessReporter(bench::Harness &h) : h_(h) {}

    void ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.error_occurred) continue;
            h_.metric(run.benchmark_name() + ".ns_per_iter",
                      run.GetAdjustedRealTime());
        }
        ConsoleReporter::ReportRuns(reports);
    }

  private:
    bench::Harness &h_;
};

// ---- Dispatch report + speedup gate. ----
//
// Google-benchmark timings are great comparison rows but too noisy to
// gate on directly, so the gate re-times each kernel itself: the
// scalar and the active level as interleaved probes of
// bench::best_in_window, ratio of their fastest calls. The ratios
// land in BENCH_micro_kernels.json as `kernels.speedup.*` (the only
// metrics in the committed baseline — pruned so the absolute
// ns_per_iter rows never gate) and, when an AVX level is dispatched,
// the binary exits nonzero unless the floors hold: >= 1.5x
// elementwise mulmod and >= 1.3x forward NTT at N = 2^14. The dot
// product ratios are reported only.

/// Fastest scalar call over fastest active call, both timed in one
/// window so that frequency scaling or a noisy co-tenant mid-run
/// biases neither side.
double
speedup_vs(const std::function<void()> &base,
           const std::function<void()> &opt)
{
    auto r = bench::best_in_window({{"scalar", base}, {"active", opt}},
                                   /*seconds=*/0.25, /*minReps=*/15);
    return r[0].seconds / r[1].seconds;
}

bool
report_dispatch_and_gate(bench::Harness &h)
{
    using kernels::SimdLevel;
    SimdLevel active = kernels::active_level();
    // The IFMA butterflies run in the AVX-512 NTT passes, and the IFMA
    // accumulation in its dot product, for q < 2^50.
    bool ifma = active == SimdLevel::Avx512 && kernels::ifma_supported();
    std::printf("\nkernel dispatch: level=%s (avx2 %s, avx512 %s, "
                "ifma ntt butterflies %s, ifma dot %s)\n",
                kernels::level_name(active),
                kernels::level_supported(SimdLevel::Avx2) ? "yes"
                                                          : "no",
                kernels::level_supported(SimdLevel::Avx512) ? "yes"
                                                            : "no",
                ifma ? "yes" : "no", ifma ? "yes" : "no");
    h.metric("kernels.dispatch.level", static_cast<double>(active));

    std::size_t n = 1 << 14;
    u64 q = generate_ntt_primes(n, 50, 1)[0];
    NttTable table(n, q);
    Prng prng(20);
    std::vector<u64> a(n), b(n), out(n), work(n);
    for (auto &v : a) v = prng.uniform(q);
    for (auto &v : b) v = prng.uniform(q);

    const kernels::KernelTable &sc = kernels::table(SimdLevel::Scalar);
    const kernels::KernelTable &ac = kernels::table(active);

    double mulSpeedup = speedup_vs(
        [&] { sc.mul_mod_n(out.data(), a.data(), b.data(), n, q); },
        [&] { ac.mul_mod_n(out.data(), a.data(), b.data(), n, q); });
    work = a;
    double nttSpeedup = speedup_vs(
        [&] {
            sc.ntt_forward(work.data(), n, table.log_degree(),
                           table.psi_br().data(),
                           table.psi_br_shoup().data(), q);
        },
        [&] {
            ac.ntt_forward(work.data(), n, table.log_degree(),
                           table.psi_br().data(),
                           table.psi_br_shoup().data(), q);
        });
    // Report-only: not in the committed baseline, so never gated.
    DotBench vec(8, n, q, /*scalarWeights=*/false);
    DotBench scl(8, n, q, /*scalarWeights=*/true);
    double dotVecSpeedup = speedup_vs([&] { vec.run(sc, q); },
                                      [&] { vec.run(ac, q); });
    double dotScalarSpeedup = speedup_vs([&] { scl.run(sc, q); },
                                         [&] { scl.run(ac, q); });
    h.metric("kernels.speedup.mulmod_16384", mulSpeedup);
    h.metric("kernels.speedup.ntt_fwd_16384", nttSpeedup);
    h.metric("kernels.speedup.dot_vec8_16384", dotVecSpeedup);
    h.metric("kernels.speedup.dot_scalar8_16384", dotScalarSpeedup);
    std::printf("kernel speedup vs scalar (N=2^14, 50-bit prime): "
                "mulmod %.2fx, ntt_fwd %.2fx, dot 8 terms %.2fx "
                "(scalar weights %.2fx)\n",
                mulSpeedup, nttSpeedup, dotVecSpeedup, dotScalarSpeedup);

    if (active == SimdLevel::Scalar) return true;
    bool ok = mulSpeedup >= 1.5 && nttSpeedup >= 1.3;
    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: %s dispatch below speedup floor "
                     "(mulmod %.2fx < 1.5x or ntt %.2fx < 1.3x)\n",
                     kernels::level_name(active), mulSpeedup,
                     nttSpeedup);
    }
    return ok;
}

} // namespace
} // namespace poseidon

int
main(int argc, char **argv)
{
    poseidon::bench::Harness h("micro_kernels", argc, argv);
    // Strip the harness's flag before google-benchmark sees it.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--no-json") argv[kept++] = argv[i];
    }
    argc = kept;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    poseidon::HarnessReporter reporter(h);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    bool gateOk = poseidon::report_dispatch_and_gate(h);
    return h.finish(gateOk ? 0 : 1);
}
