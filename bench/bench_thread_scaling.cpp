// Host thread-scaling sweep for the parallel execution engine
// (common/parallel.h): a forward-NTT limb batch and the library's
// keyswitch (CkksEvaluator::keyswitch_core: ModUp, key products and
// ModDown, with hostbench's dnum=3 hybrid decomposition) — the host
// work Poseidon's 512-lane datapath accelerates — measured at
// 1/2/4/8 threads. Alongside wall-clock speedups the sweep checksums
// every output so a scheduling bug that broke bit-identical
// determinism would fail the bench, not just slow it down.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_harness.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"

namespace {

using namespace poseidon;

constexpr std::size_t kLogN = 14;
constexpr std::size_t kLimbs = 12;
constexpr std::size_t kDnum = 3;
constexpr std::size_t kSpecial = (kLimbs + kDnum - 1) / kDnum;
constexpr double kWindowSeconds = 0.04;
constexpr std::size_t kMinReps = 20;

/// Fold every residue of `p` into `h` (FNV-1a style).
u64
checksum(const RnsPoly &p, u64 h = 0x9E3779B97F4A7C15ULL)
{
    for (std::size_t k = 0; k < p.num_limbs(); ++k) {
        const u64 *v = p.limb(k);
        for (std::size_t t = 0; t < p.degree(); ++t) {
            h = (h ^ v[t]) * 0x100000001B3ULL;
        }
    }
    return h;
}

struct Run
{
    double nttMs = 0;
    double ksMs = 0;
    u64 nttSum = 0;
    u64 ksSum = 0;
};

Run
run_at(std::size_t threads, const CkksEvaluator &eval,
       const RnsPoly &input, const KSwitchKey &key)
{
    parallel::set_num_threads(threads);

    // Forward-NTT a full limb batch per rep (input is Eval-domain;
    // each rep starts from its coefficient form).
    RnsPoly coeff = input;
    coeff.to_coeff();
    RnsPoly p = coeff;
    std::pair<RnsPoly, RnsPoly> ks;

    auto best = bench::best_in_window(
        {{"ntt", [&] { p.to_eval(); }, [&] { p = coeff; }},
         {"keyswitch", [&] { ks = eval.keyswitch_core(input, key); }}},
        kWindowSeconds, kMinReps);
    Run r;
    r.nttMs = 1e3 * best[0].seconds;
    r.ksMs = 1e3 * best[1].seconds;
    r.nttSum = checksum(p);
    r.ksSum = checksum(ks.second, checksum(ks.first));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using poseidon::bench::Harness;
    Harness h("thread_scaling", argc, argv);

    CkksParams params;
    params.logN = kLogN;
    params.L = kLimbs;
    params.dnum = kDnum;
    params.K = kSpecial;
    auto ctx = make_ckks_context(params);
    KeyGenerator keygen(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    CkksEncoder encoder(ctx);
    Plaintext pt = encoder.encode(
        std::vector<cdouble>(ctx->slots(), cdouble(0.5, 0.25)), kLimbs);
    // A fresh ciphertext's c1: Eval-domain over all kLimbs primes.
    RnsPoly input = encryptor.encrypt(pt).c1;

    h.config("logN", telemetry::Json(static_cast<double>(kLogN)));
    h.config("limbs", telemetry::Json(static_cast<double>(kLimbs)));
    h.config("dnum", telemetry::Json(static_cast<double>(kDnum)));
    h.config("special_primes",
             telemetry::Json(static_cast<double>(kSpecial)));
    h.config("window_s_per_point", telemetry::Json(kWindowSeconds));
    h.config("hardware_threads",
             telemetry::Json(static_cast<double>(
                 std::thread::hardware_concurrency())));

    const std::size_t sweep[] = {1, 2, 4, 8};
    Run base;
    bool checksumsOk = true;

    std::printf("Host thread scaling (N=2^%zu, %zu limbs, best in a "
                "%.0f ms window)\n",
                kLogN, kLimbs, 1e3 * kWindowSeconds);
    std::printf("%8s %14s %10s %14s %10s\n", "threads", "NTT ms",
                "speedup", "Keyswitch ms", "speedup");
    for (std::size_t threads : sweep) {
        Run r = run_at(threads, eval, input, relin);
        if (threads == 1) {
            base = r;
        } else {
            checksumsOk = checksumsOk && r.nttSum == base.nttSum &&
                          r.ksSum == base.ksSum;
        }
        double suNtt = base.nttMs / r.nttMs;
        double suKs = base.ksMs / r.ksMs;
        std::printf("%8zu %14.3f %9.2fx %14.3f %9.2fx\n", threads,
                    r.nttMs, suNtt, r.ksMs, suKs);

        std::string t = std::to_string(threads);
        h.metric("ntt_ms.t" + t, r.nttMs);
        h.metric("keyswitch_ms.t" + t, r.ksMs);
        h.metric("ntt_speedup.t" + t, suNtt);
        h.metric("keyswitch_speedup.t" + t, suKs);
    }
    parallel::set_num_threads(0);

    h.metric("deterministic", checksumsOk ? 1.0 : 0.0);
    if (!checksumsOk) {
        std::fprintf(stderr,
                     "FAIL: results differ across thread counts\n");
        return h.finish(1);
    }
    return h.finish();
}
