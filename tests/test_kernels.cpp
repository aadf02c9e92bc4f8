/**
 * @file
 * Differential tests for the runtime-dispatched SIMD kernel layer:
 * every compiled-and-supported backend must produce byte-identical
 * canonical outputs to the scalar reference, across 28-60-bit NTT
 * primes, lengths that are not multiples of any vector width, exact
 * in/out aliasing, and chunked (parallel_for-shaped) invocation.
 *
 * The two explicitly-lazy kernels (mul_mod_acc_lazy_n and
 * scalar_mul_mod_acc_n) only promise canonical bytes after
 * normalize_n, so those comparisons normalize both sides first —
 * exactly what routed call sites do before results escape.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kernels/kernels.h"
#include "ntt/ntt.h"
#include "rns/primes.h"

namespace poseidon {
namespace {

using kernels::KernelTable;
using kernels::SimdLevel;

std::vector<SimdLevel>
non_scalar_levels()
{
    std::vector<SimdLevel> out;
    for (SimdLevel lvl : {SimdLevel::Avx2, SimdLevel::Avx512}) {
        if (kernels::level_supported(lvl)) out.push_back(lvl);
    }
    return out;
}

/// One NTT prime per requested bit width (all == 1 mod 2*8192 so the
/// same list serves the NTT tests). 61 bits is the widest
/// generate_ntt_primes accepts, where the forward NTT's lazy 4q < 2^64
/// bound is tightest. On an IFMA host the AVX-512 NTT takes the 52-bit
/// butterflies for the primes below 2^50: the 50-bit one is their
/// tightest case (4q just under 2^52). The 59-61-bit primes take the
/// 64-bit fallback.
std::vector<u64>
test_primes()
{
    std::vector<u64> primes;
    for (unsigned bits : {28u, 35u, 45u, 50u, 59u, 60u, 61u}) {
        std::vector<u64> p = generate_ntt_primes(8192, bits, 1, primes);
        primes.push_back(p[0]);
    }
    return primes;
}

const std::size_t kLens[] = {1, 3, 4, 7, 8, 13, 31, 32, 100, 1021};

std::vector<u64>
random_canonical(Prng &prng, std::size_t n, u64 q)
{
    std::vector<u64> v(n);
    for (auto &x : v) x = prng.uniform(q);
    return v;
}

std::vector<u64>
random_raw(Prng &prng, std::size_t n)
{
    std::vector<u64> v(n);
    for (auto &x : v) x = prng.next();
    return v;
}

u64
shoup_of(u64 w, u64 q)
{
    return static_cast<u64>((u128(w) << 64) / q);
}

TEST(KernelsDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernels::level_compiled(SimdLevel::Scalar));
    EXPECT_TRUE(kernels::level_supported(SimdLevel::Scalar));
    EXPECT_STREQ("scalar", kernels::level_name(SimdLevel::Scalar));
    EXPECT_STREQ("avx2", kernels::level_name(SimdLevel::Avx2));
    EXPECT_STREQ("avx512", kernels::level_name(SimdLevel::Avx512));
}

TEST(KernelsDispatch, ActiveLevelIsSupported)
{
    EXPECT_TRUE(kernels::level_supported(kernels::active_level()));
}

TEST(KernelsDispatch, EveryTableIsFullyPopulated)
{
    for (SimdLevel lvl :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
        const KernelTable &t = kernels::table(lvl);
        EXPECT_NE(nullptr, t.add_mod_n);
        EXPECT_NE(nullptr, t.sub_mod_n);
        EXPECT_NE(nullptr, t.neg_mod_n);
        EXPECT_NE(nullptr, t.add_scalar_mod_n);
        EXPECT_NE(nullptr, t.sub_scalar_mod_n);
        EXPECT_NE(nullptr, t.scalar_mul_shoup_n);
        EXPECT_NE(nullptr, t.scalar_mul_mod_acc_n);
        EXPECT_NE(nullptr, t.mul_mod_n);
        EXPECT_NE(nullptr, t.mul_mod_acc_lazy_n);
        EXPECT_NE(nullptr, t.reduce_mod_n);
        EXPECT_NE(nullptr, t.normalize_n);
        EXPECT_NE(nullptr, t.ntt_forward);
        EXPECT_NE(nullptr, t.ntt_inverse);
    }
}

TEST(KernelsDifferential, BinaryElementwiseMatchesScalar)
{
    const KernelTable &ref = kernels::table(SimdLevel::Scalar);
    Prng prng(1);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            for (std::size_t n : kLens) {
                auto a = random_canonical(prng, n, q);
                auto b = random_canonical(prng, n, q);
                std::vector<u64> want(n), got(n);

                ref.add_mod_n(want.data(), a.data(), b.data(), n, q);
                t.add_mod_n(got.data(), a.data(), b.data(), n, q);
                EXPECT_EQ(want, got) << "add " << q << " n=" << n;

                ref.sub_mod_n(want.data(), a.data(), b.data(), n, q);
                t.sub_mod_n(got.data(), a.data(), b.data(), n, q);
                EXPECT_EQ(want, got) << "sub " << q << " n=" << n;

                ref.mul_mod_n(want.data(), a.data(), b.data(), n, q);
                t.mul_mod_n(got.data(), a.data(), b.data(), n, q);
                EXPECT_EQ(want, got) << "mul " << q << " n=" << n;
            }
        }
    }
}

TEST(KernelsDifferential, UnaryAndScalarOpsMatchScalar)
{
    const KernelTable &ref = kernels::table(SimdLevel::Scalar);
    Prng prng(2);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            for (std::size_t n : kLens) {
                auto a = random_canonical(prng, n, q);
                auto raw = random_raw(prng, n);
                u64 c = prng.uniform(q);
                u64 w = prng.uniform(q);
                u64 ws = shoup_of(w, q);
                std::vector<u64> want(n), got(n);

                ref.neg_mod_n(want.data(), a.data(), n, q);
                t.neg_mod_n(got.data(), a.data(), n, q);
                EXPECT_EQ(want, got) << "neg " << q << " n=" << n;

                ref.add_scalar_mod_n(want.data(), a.data(), n, c, q);
                t.add_scalar_mod_n(got.data(), a.data(), n, c, q);
                EXPECT_EQ(want, got) << "adds " << q << " n=" << n;

                ref.sub_scalar_mod_n(want.data(), a.data(), n, c, q);
                t.sub_scalar_mod_n(got.data(), a.data(), n, c, q);
                EXPECT_EQ(want, got) << "subs " << q << " n=" << n;

                // scalar_mul_shoup accepts unreduced inputs.
                ref.scalar_mul_shoup_n(want.data(), raw.data(), n, w,
                                       ws, q);
                t.scalar_mul_shoup_n(got.data(), raw.data(), n, w, ws,
                                     q);
                EXPECT_EQ(want, got) << "muls " << q << " n=" << n;

                ref.reduce_mod_n(want.data(), raw.data(), n, q);
                t.reduce_mod_n(got.data(), raw.data(), n, q);
                EXPECT_EQ(want, got) << "red " << q << " n=" << n;
            }
        }
    }
}

TEST(KernelsDifferential, LazyAccumulatorsMatchAfterNormalize)
{
    const KernelTable &ref = kernels::table(SimdLevel::Scalar);
    Prng prng(3);
    const int kTerms = 9; // odd digit count, like a keyswitch
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            for (std::size_t n : kLens) {
                std::vector<u64> want(n, 0), got(n, 0);
                for (int k = 0; k < kTerms; ++k) {
                    auto a = random_canonical(prng, n, q);
                    auto b = random_canonical(prng, n, q);
                    ref.mul_mod_acc_lazy_n(want.data(), a.data(),
                                           b.data(), n, q);
                    t.mul_mod_acc_lazy_n(got.data(), a.data(),
                                         b.data(), n, q);
                }
                ref.normalize_n(want.data(), n, q);
                t.normalize_n(got.data(), n, q);
                EXPECT_EQ(want, got) << "acc " << q << " n=" << n;

                std::fill(want.begin(), want.end(), 0);
                std::fill(got.begin(), got.end(), 0);
                for (int k = 0; k < kTerms; ++k) {
                    auto a = random_raw(prng, n); // any 64-bit input
                    u64 w = prng.uniform(q);
                    u64 ws = shoup_of(w, q);
                    ref.scalar_mul_mod_acc_n(want.data(), a.data(), n,
                                             w, ws, q);
                    t.scalar_mul_mod_acc_n(got.data(), a.data(), n, w,
                                           ws, q);
                }
                ref.normalize_n(want.data(), n, q);
                t.normalize_n(got.data(), n, q);
                EXPECT_EQ(want, got) << "sacc " << q << " n=" << n;
            }
        }
    }
}

TEST(KernelsDifferential, ExactAliasingInPlace)
{
    const KernelTable &ref = kernels::table(SimdLevel::Scalar);
    Prng prng(4);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            const std::size_t n = 101;
            auto a = random_canonical(prng, n, q);
            auto b = random_canonical(prng, n, q);

            auto want = a;
            auto got = a;
            ref.add_mod_n(want.data(), want.data(), b.data(), n, q);
            t.add_mod_n(got.data(), got.data(), b.data(), n, q);
            EXPECT_EQ(want, got) << "add out==a, q=" << q;

            want = a;
            got = a;
            ref.mul_mod_n(want.data(), want.data(), want.data(), n, q);
            t.mul_mod_n(got.data(), got.data(), got.data(), n, q);
            EXPECT_EQ(want, got) << "square out==a==b, q=" << q;
        }
    }
}

// Chunked invocation must produce the same bytes as one full-span
// call — this is what makes routed call sites bit-identical at every
// POSEIDON_THREADS setting. Lazy kernels included: their tails
// replicate the vector-lane math exactly.
TEST(KernelsDifferential, ChunkedCallsAreByteStable)
{
    Prng prng(5);
    const std::size_t n = 517;
    const std::size_t splits[] = {1, 2, 3, 101, 511, 516};
    for (SimdLevel lvl : {SimdLevel::Scalar, SimdLevel::Avx2,
                          SimdLevel::Avx512}) {
        if (!kernels::level_supported(lvl)) continue;
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            auto a = random_canonical(prng, n, q);
            auto b = random_canonical(prng, n, q);
            std::vector<u64> whole(n, 0);
            t.mul_mod_acc_lazy_n(whole.data(), a.data(), b.data(), n,
                                 q);
            for (std::size_t k : splits) {
                std::vector<u64> split(n, 0);
                t.mul_mod_acc_lazy_n(split.data(), a.data(), b.data(),
                                     k, q);
                t.mul_mod_acc_lazy_n(split.data() + k, a.data() + k,
                                     b.data() + k, n - k, q);
                EXPECT_EQ(whole, split) << "q=" << q << " k=" << k;
            }

            t.mul_mod_n(whole.data(), a.data(), b.data(), n, q);
            for (std::size_t k : splits) {
                std::vector<u64> split(n, 0);
                t.mul_mod_n(split.data(), a.data(), b.data(), k, q);
                t.mul_mod_n(split.data() + k, a.data() + k,
                            b.data() + k, n - k, q);
                EXPECT_EQ(whole, split) << "q=" << q << " k=" << k;
            }
        }
    }
}

TEST(KernelsNtt, ForwardMatchesScalarBitExact)
{
    Prng prng(6);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        const KernelTable &ref = kernels::table(SimdLevel::Scalar);
        for (std::size_t n : {8u, 16u, 32u, 64u, 1024u, 4096u, 8192u}) {
            for (u64 q : test_primes()) {
                NttTable tbl(n, q);
                auto a = random_canonical(prng, n, q);
                auto want = a;
                auto got = a;
                unsigned logn = tbl.log_degree();
                ref.ntt_forward(want.data(), n, logn,
                                tbl.psi_br().data(),
                                tbl.psi_br_shoup().data(), q);
                t.ntt_forward(got.data(), n, logn,
                              tbl.psi_br().data(),
                              tbl.psi_br_shoup().data(), q);
                EXPECT_EQ(want, got) << "fwd n=" << n << " q=" << q;
            }
        }
    }
}

TEST(KernelsNtt, InverseMatchesScalarBitExact)
{
    Prng prng(7);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        const KernelTable &ref = kernels::table(SimdLevel::Scalar);
        for (std::size_t n : {8u, 16u, 32u, 64u, 1024u, 4096u, 8192u}) {
            for (u64 q : test_primes()) {
                NttTable tbl(n, q);
                auto a = random_canonical(prng, n, q);
                auto want = a;
                auto got = a;
                unsigned logn = tbl.log_degree();
                ref.ntt_inverse(want.data(), n, logn,
                                tbl.ipsi_br().data(),
                                tbl.ipsi_br_shoup().data(),
                                tbl.n_inv(), tbl.n_inv_shoup(), q);
                t.ntt_inverse(got.data(), n, logn,
                              tbl.ipsi_br().data(),
                              tbl.ipsi_br_shoup().data(), tbl.n_inv(),
                              tbl.n_inv_shoup(), q);
                EXPECT_EQ(want, got) << "inv n=" << n << " q=" << q;
            }
        }
    }
}

TEST(KernelsNtt, RoundTripRestoresInput)
{
    Prng prng(8);
    for (SimdLevel lvl : {SimdLevel::Scalar, SimdLevel::Avx2,
                          SimdLevel::Avx512}) {
        if (!kernels::level_supported(lvl)) continue;
        const KernelTable &t = kernels::table(lvl);
        const std::size_t n = 2048;
        for (u64 q : test_primes()) {
            NttTable tbl(n, q);
            auto a = random_canonical(prng, n, q);
            auto x = a;
            t.ntt_forward(x.data(), n, tbl.log_degree(),
                          tbl.psi_br().data(),
                          tbl.psi_br_shoup().data(), q);
            t.ntt_inverse(x.data(), n, tbl.log_degree(),
                          tbl.ipsi_br().data(),
                          tbl.ipsi_br_shoup().data(), tbl.n_inv(),
                          tbl.n_inv_shoup(), q);
            EXPECT_EQ(a, x) << "roundtrip q=" << q;
        }
    }
}

TEST(KernelsNtt, TinyDegreesFallBackCorrectly)
{
    // n < 8 takes the scalar path inside SIMD backends; the AVX-512
    // backend hands n = 8 to the AVX2 passes.
    Prng prng(9);
    const KernelTable &ref = kernels::table(SimdLevel::Scalar);
    for (SimdLevel lvl : non_scalar_levels()) {
        const KernelTable &t = kernels::table(lvl);
        for (std::size_t n : {2u, 4u, 8u}) {
            u64 q = generate_ntt_primes(n, 40, 1)[0];
            NttTable tbl(n, q);
            auto a = random_canonical(prng, n, q);
            auto want = a;
            auto got = a;
            ref.ntt_forward(want.data(), n, tbl.log_degree(),
                            tbl.psi_br().data(),
                            tbl.psi_br_shoup().data(), q);
            t.ntt_forward(got.data(), n, tbl.log_degree(),
                          tbl.psi_br().data(),
                          tbl.psi_br_shoup().data(), q);
            EXPECT_EQ(want, got) << "tiny fwd n=" << n;
            ref.ntt_inverse(want.data(), n, tbl.log_degree(),
                            tbl.ipsi_br().data(),
                            tbl.ipsi_br_shoup().data(), tbl.n_inv(),
                            tbl.n_inv_shoup(), q);
            t.ntt_inverse(got.data(), n, tbl.log_degree(),
                          tbl.ipsi_br().data(),
                          tbl.ipsi_br_shoup().data(), tbl.n_inv(),
                          tbl.n_inv_shoup(), q);
            EXPECT_EQ(want, got) << "tiny inv n=" << n;
        }
    }
}

TEST(KernelsNtt, AgreesWithNaiveNegacyclicMul)
{
    // End-to-end sanity that the dispatched NTT is the right
    // transform, not merely self-consistent: pointwise multiply in
    // the transform domain must equal the schoolbook negacyclic
    // product.
    Prng prng(10);
    const std::size_t n = 64;
    u64 q = test_primes()[2];
    NttTable tbl(n, q);
    auto a = random_canonical(prng, n, q);
    auto b = random_canonical(prng, n, q);
    std::vector<u64> want(n);
    negacyclic_mul_naive(a.data(), b.data(), want.data(), n, q);

    auto fa = a;
    auto fb = b;
    kernels::ntt_forward(fa.data(), n, tbl.log_degree(),
                         tbl.psi_br().data(),
                         tbl.psi_br_shoup().data(), q);
    kernels::ntt_forward(fb.data(), n, tbl.log_degree(),
                         tbl.psi_br().data(),
                         tbl.psi_br_shoup().data(), q);
    std::vector<u64> prod(n);
    kernels::mul_mod_n(prod.data(), fa.data(), fb.data(), n, q);
    kernels::ntt_inverse(prod.data(), n, tbl.log_degree(),
                         tbl.ipsi_br().data(),
                         tbl.ipsi_br_shoup().data(), tbl.n_inv(),
                         tbl.n_inv_shoup(), q);
    EXPECT_EQ(want, prod);
}

} // namespace
} // namespace poseidon
