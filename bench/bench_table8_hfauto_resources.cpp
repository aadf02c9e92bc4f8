// Reproduces Table VIII: resource and latency comparison of the naive
// automorphism core vs HFAuto, plus a software cross-check that the
// 4-stage HFAuto algorithm is bit-exact with the reference map and a
// wall-clock comparison of the two software implementations (each
// one's fastest rep in a 3 ms window).

#include <cstdio>

#include "bench/bench_harness.h"

#include "common/prng.h"
#include "common/table.h"
#include "hw/resource.h"
#include "poly/automorphism.h"
#include "poly/hfauto.h"
#include "rns/primes.h"

using namespace poseidon;

int
main(int argc, char **argv)
{
    bench::Harness h("table8_hfauto_resources", argc, argv);
    AsciiTable t(
        "Table VIII: automorphism core — naive Auto vs HFAuto "
        "(N = 2^16, C = 512)");
    t.header({"Design", "FF", "DSP", "LUT", "BRAM", "Latency (cycles)"});
    for (bool hf : {false, true}) {
        auto r = hw::ResourceModel::auto_single(hf, 512);
        u64 lat = hw::ResourceModel::auto_latency_cycles(u64(1) << 16,
                                                         hf, 512);
        std::string pre = hf ? "hfauto" : "naive";
        h.metric(pre + ".lut", static_cast<double>(r.lut));
        h.metric(pre + ".latency_cycles", static_cast<double>(lat));
        t.row({r.name, std::to_string(r.ff), std::to_string(r.dsp),
               std::to_string(r.lut), std::to_string(r.bram),
               std::to_string(lat)});
    }
    t.print();
    std::printf("\nHFAuto trades ~%ux more LUTs for a %ux latency "
                "reduction (4*N/C vs N cycles).\n",
                122u, 128u);

    // Software validation: bit-exactness + timing at N=2^16.
    std::size_t n = std::size_t(1) << 16;
    u64 q = generate_ntt_primes(n, 31, 1)[0];
    Prng prng(3);
    std::vector<u64> a(n), ref(n), got(n);
    for (auto &v : a) v = prng.uniform(q);
    HFAuto hf(n, 512);
    u64 g = galois_element_for_step(n, 17);

    auto best = bench::best_in_window(
        {{"reference",
          [&] { automorphism_coeff_limb(a.data(), ref.data(), n, g, q); }},
         {"hfauto", [&] { hf.apply_limb(a.data(), got.data(), g, q); }}},
        /*seconds=*/0.003, /*minReps=*/1);

    bool exact = ref == got;
    h.metric("bit_exact", exact ? 1.0 : 0.0);
    std::printf("\nSoftware cross-check at N=2^16, g=5^17: HFAuto %s "
                "the reference map.\n",
                exact ? "is bit-exact with" : "DIFFERS FROM");
    std::printf("Software walltime (fastest rep): reference %.3f ms, "
                "4-stage HFAuto %.3f ms (stage buffers cost in "
                "software,\npay off in hardware where stages pipeline at "
                "C elems/cycle).\n",
                best[0].seconds * 1e3, best[1].seconds * 1e3);
    return h.finish(exact ? 0 : 1);
}
