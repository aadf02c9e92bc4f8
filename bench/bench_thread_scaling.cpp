// Host thread-scaling sweep for the parallel execution engine
// (common/parallel.h): forward-NTT limb batches and ModUp base
// extension — the two host kernels Poseidon's 512-lane datapath
// accelerates — measured at 1/2/4/8 threads. Alongside wall-clock
// speedups the sweep checksums every output so a scheduling bug that
// broke bit-identical determinism would fail the bench, not just
// slow it down.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_harness.h"
#include "common/parallel.h"
#include "common/prng.h"
#include "ntt/table_cache.h"
#include "poly/ring.h"
#include "poly/poly.h"
#include "rns/basis.h"
#include "rns/conv.h"
#include "rns/primes.h"

namespace {

using namespace poseidon;

constexpr std::size_t kLogN = 14;
constexpr std::size_t kN = std::size_t(1) << kLogN;
constexpr std::size_t kLimbs = 12;
constexpr std::size_t kSpecial = 2;
constexpr int kIters = 20;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

u64
checksum(const RnsPoly &p)
{
    u64 h = 0x9E3779B97F4A7C15ULL;
    for (std::size_t k = 0; k < p.num_limbs(); ++k) {
        const u64 *v = p.limb(k);
        for (std::size_t t = 0; t < p.degree(); ++t) {
            h = (h ^ v[t]) * 0x100000001B3ULL;
        }
    }
    return h;
}

u64
checksum_limbs(const std::vector<std::vector<u64>> &limbs)
{
    u64 h = 0x9E3779B97F4A7C15ULL;
    for (const auto &l : limbs) {
        for (u64 v : l) h = (h ^ v) * 0x100000001B3ULL;
    }
    return h;
}

struct Run
{
    double nttMs = 0;
    double modupMs = 0;
    u64 nttSum = 0;
    u64 modupSum = 0;
};

Run
run_at(std::size_t threads, const RnsPoly &input, const RnsConv &conv)
{
    parallel::set_num_threads(threads);
    Run r;

    // Forward-NTT a full limb batch per iteration.
    {
        double best = 1e300;
        for (int it = 0; it < kIters; ++it) {
            RnsPoly p = input;
            double t0 = now_ms();
            p.to_eval();
            best = std::min(best, now_ms() - t0);
            r.nttSum = checksum(p);
        }
        r.nttMs = best;
    }

    // ModUp: extend the ciphertext limbs onto the special primes.
    {
        std::vector<const u64 *> src(kLimbs);
        for (std::size_t k = 0; k < kLimbs; ++k) src[k] = input.limb(k);
        std::vector<std::vector<u64>> out(kSpecial,
                                          std::vector<u64>(kN));
        std::vector<u64 *> dst(kSpecial);
        for (std::size_t j = 0; j < kSpecial; ++j) dst[j] = out[j].data();

        double best = 1e300;
        for (int it = 0; it < kIters; ++it) {
            double t0 = now_ms();
            conv.convert(src, dst, kN);
            best = std::min(best, now_ms() - t0);
            r.modupSum = checksum_limbs(out);
        }
        r.modupMs = best;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using poseidon::bench::Harness;
    Harness h("thread_scaling", argc, argv);

    std::vector<u64> primes =
        generate_ntt_primes(kN, 45, kLimbs + kSpecial);
    auto ring = std::make_shared<const RingContext>(kN, primes, kSpecial);

    RnsPoly input = RnsPoly::ct(ring, kLimbs, Domain::Coeff);
    {
        Sampler sampler(7);
        std::vector<i64> coeffs(kN);
        auto g = sampler.gaussian(kN, 1000.0);
        for (std::size_t t = 0; t < kN; ++t) coeffs[t] = g[t];
        input.assign_signed(coeffs);
    }
    RnsConv conv(ring->ct_basis(kLimbs), ring->special_basis());

    h.config("logN", telemetry::Json(static_cast<double>(kLogN)));
    h.config("limbs", telemetry::Json(static_cast<double>(kLimbs)));
    h.config("special_primes",
             telemetry::Json(static_cast<double>(kSpecial)));
    h.config("iters_per_point",
             telemetry::Json(static_cast<double>(kIters)));
    h.config("hardware_threads",
             telemetry::Json(static_cast<double>(
                 std::thread::hardware_concurrency())));

    const std::size_t sweep[] = {1, 2, 4, 8};
    Run base;
    bool checksumsOk = true;

    std::printf("Host thread scaling (N=2^%zu, %zu limbs, best of %d)\n",
                kLogN, kLimbs, kIters);
    std::printf("%8s %14s %10s %14s %10s\n", "threads", "NTT ms",
                "speedup", "ModUp ms", "speedup");
    for (std::size_t threads : sweep) {
        Run r = run_at(threads, input, conv);
        if (threads == 1) {
            base = r;
        } else {
            checksumsOk = checksumsOk && r.nttSum == base.nttSum &&
                          r.modupSum == base.modupSum;
        }
        double suNtt = base.nttMs / r.nttMs;
        double suMod = base.modupMs / r.modupMs;
        std::printf("%8zu %14.3f %9.2fx %14.3f %9.2fx\n", threads,
                    r.nttMs, suNtt, r.modupMs, suMod);

        std::string t = std::to_string(threads);
        h.metric("ntt_ms.t" + t, r.nttMs);
        h.metric("modup_ms.t" + t, r.modupMs);
        h.metric("ntt_speedup.t" + t, suNtt);
        h.metric("modup_speedup.t" + t, suMod);
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
