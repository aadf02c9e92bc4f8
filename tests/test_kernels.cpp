/**
 * @file
 * Differential tests for the runtime-dispatched SIMD kernel layer:
 * every compiled-and-supported backend must produce byte-identical
 * canonical outputs to the scalar reference, across 28-60-bit NTT
 * primes, lengths that are not multiples of any vector width, exact
 * in/out aliasing, and chunked (parallel_for-shaped) invocation.
 *
 * The fused dot product (dot_mod_n) is compared at every level,
 * scalar included, against a reference that reduces each u128
 * product, over every term count the CKKS layer produces.
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
        EXPECT_NE(nullptr, t.scalar_mul_shoup_n);
        EXPECT_NE(nullptr, t.mul_mod_n);
        EXPECT_NE(nullptr, t.dot_mod_n);
        EXPECT_NE(nullptr, t.reduce_mod_n);
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

                // scalar_mul_shoup accepts unreduced inputs. On an IFMA
                // host, q < 2^50 takes the 52-bit product for vectors of
                // operands < 2^52 and the 64-bit one for the rest, so
                // canonical, raw and interleaved inputs all run.
                std::vector<u64> mixed(n);
                for (std::size_t i = 0; i < n; ++i) {
                    mixed[i] = i % 9 == 4 ? raw[i] : a[i];
                }
                for (const auto *in : {&a, &raw, &mixed}) {
                    ref.scalar_mul_shoup_n(want.data(), in->data(), n, w,
                                           ws, q);
                    t.scalar_mul_shoup_n(got.data(), in->data(), n, w, ws,
                                         q);
                    EXPECT_EQ(want, got) << "muls " << q << " n=" << n;
                }

                ref.reduce_mod_n(want.data(), raw.data(), n, q);
                t.reduce_mod_n(got.data(), raw.data(), n, q);
                EXPECT_EQ(want, got) << "red " << q << " n=" << n;
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

const SimdLevel kAllLevels[] = {SimdLevel::Scalar, SimdLevel::Avx2,
                                SimdLevel::Avx512};

// Chunked invocation must produce the same bytes as one full-span
// call — this is what makes routed call sites bit-identical at every
// POSEIDON_THREADS setting.
TEST(KernelsDifferential, ChunkedCallsAreByteStable)
{
    Prng prng(5);
    const std::size_t n = 517;
    const std::size_t splits[] = {1, 2, 3, 101, 511, 516};
    for (SimdLevel lvl : kAllLevels) {
        if (!kernels::level_supported(lvl)) continue;
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            auto a = random_canonical(prng, n, q);
            auto b = random_canonical(prng, n, q);
            std::vector<u64> whole(n, 0);
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

// ---- The fused dot product. ----

/// Term counts the CKKS layer produces, around the IFMA path's 16-term
/// fold and the scalar path's 15-product fold. 45 is classic
/// keyswitching's 44 digits plus P*c at the paper's shape (L = 44).
const std::size_t kDotTerms[] = {1, 2, 3, 8, 15, 16, 17, 25, 45};

enum class DotMode { Vector, Scalar, Mixed };

/// The operands of one dot product: every a[k][t] < aBound; vector
/// terms carry b[k] (< q), scalar terms an empty b[k] and w[k] < q.
struct DotOperands
{
    std::vector<std::vector<u64>> a, b;
    std::vector<u64> w;

    DotOperands(Prng &prng, std::size_t terms, std::size_t n,
                DotMode mode, u64 aBound, u64 q)
        : a(terms), b(terms), w(terms, 0)
    {
        for (std::size_t k = 0; k < terms; ++k) {
            a[k] = random_canonical(prng, n, aBound);
            bool vec = mode == DotMode::Vector ||
                       (mode == DotMode::Mixed && k % 2 == 0);
            if (vec) {
                b[k] = random_canonical(prng, n, q);
            } else {
                w[k] = prng.uniform(q);
            }
        }
    }

    std::vector<const u64 *>
    a_ptrs(std::size_t off) const
    {
        std::vector<const u64 *> p;
        for (const auto &v : a) p.push_back(v.data() + off);
        return p;
    }

    std::vector<const u64 *>
    b_ptrs(std::size_t off) const
    {
        std::vector<const u64 *> p;
        for (const auto &v : b) {
            p.push_back(v.empty() ? nullptr : v.data() + off);
        }
        return p;
    }

    /// Every product reduced from its u128 value, summed mod q.
    std::vector<u64>
    reference(u64 q) const
    {
        std::size_t n = a.front().size();
        std::vector<u64> out(n, 0);
        for (std::size_t k = 0; k < a.size(); ++k) {
            for (std::size_t t = 0; t < n; ++t) {
                u64 y = b[k].empty() ? w[k] : b[k][t];
                u64 p = static_cast<u64>((u128(a[k][t]) * y) % q);
                out[t] = add_mod(out[t], p, q);
            }
        }
        return out;
    }

    std::vector<u64>
    run(const KernelTable &t, u64 aBound, u64 q) const
    {
        std::size_t n = a.front().size();
        std::vector<u64> out(n, 0);
        t.dot_mod_n(out.data(), a_ptrs(0).data(), b_ptrs(0).data(),
                    w.data(), a.size(), n, aBound, q);
        return out;
    }
};

const char *
mode_name(DotMode mode)
{
    switch (mode) {
      case DotMode::Vector: return "vector";
      case DotMode::Scalar: return "scalar";
      case DotMode::Mixed: return "mixed";
    }
    return "?";
}

TEST(KernelsDot, MatchesU128ReferenceAtEveryLevel)
{
    Prng prng(30);
    for (u64 q : test_primes()) {
        for (std::size_t terms : kDotTerms) {
            for (std::size_t n : {8u, 13u, 1024u}) {
                for (DotMode mode : {DotMode::Vector, DotMode::Scalar,
                                     DotMode::Mixed}) {
                    DotOperands ops(prng, terms, n, mode, q, q);
                    auto want = ops.reference(q);
                    for (SimdLevel lvl : kAllLevels) {
                        if (!kernels::level_supported(lvl)) continue;
                        EXPECT_EQ(want,
                                  ops.run(kernels::table(lvl), q, q))
                            << kernels::level_name(lvl) << " q=" << q
                            << " terms=" << terms << " n=" << n << " "
                            << mode_name(mode);
                    }
                }
            }
        }
    }
}

// RNS base conversion feeds operands canonical mod the source primes,
// not mod q: above q (the 64-bit path reduces them before a width
// Barrett product) and at or above 2^50, where the IFMA path would
// truncate them and must not run.
TEST(KernelsDot, ForeignOperandsMatchU128Reference)
{
    Prng prng(31);
    std::vector<u64> primes = test_primes();
    for (u64 q : primes) {
        for (u64 r : primes) {
            if (r == q) continue;
            for (std::size_t terms : kDotTerms) {
                for (std::size_t n : {13u, 1024u}) {
                    for (DotMode mode : {DotMode::Scalar,
                                         DotMode::Mixed}) {
                        DotOperands ops(prng, terms, n, mode, r, q);
                        auto want = ops.reference(q);
                        for (SimdLevel lvl : kAllLevels) {
                            if (!kernels::level_supported(lvl)) continue;
                            EXPECT_EQ(want, ops.run(kernels::table(lvl),
                                                    r, q))
                                << kernels::level_name(lvl)
                                << " q=" << q << " a<" << r
                                << " terms=" << terms << " n=" << n
                                << " " << mode_name(mode);
                        }
                    }
                }
            }
        }
    }
}

// The largest operands each path admits, so every fold runs at its
// bound: a = 2^50 - 1 with the widest prime below 2^50 (IFMA: each
// product just under 2^100, 16 of them plus a folded value just under
// 2^104), and a = b = q - 1 for 61-bit q (scalar: 15 products just
// under 2^122 plus a folded value).
TEST(KernelsDot, ExtremeOperandsAtTheFoldBounds)
{
    u64 q50 = generate_ntt_primes(8192, 50, 1)[0];
    u64 q61 = generate_ntt_primes(8192, 61, 1)[0];
    const std::size_t n = 45;
    struct Case { u64 q, aBound; };
    for (Case c : {Case{q50, u64(1) << 50}, Case{q50, q50},
                   Case{q61, q61}}) {
        for (std::size_t terms : kDotTerms) {
            std::vector<u64> a(n, c.aBound - 1), b(n, c.q - 1);
            std::vector<u64> w(terms, c.q - 1);
            std::vector<const u64 *> ap(terms, a.data());
            std::vector<const u64 *> bp(terms, b.data());
            for (std::size_t k = 2; k < terms; k += 3) bp[k] = nullptr;
            // (aBound - 1)(q - 1) summed `terms` times.
            u64 p = static_cast<u64>((u128(c.aBound - 1) * (c.q - 1)) %
                                     c.q);
            u64 want = static_cast<u64>((u128(p) * terms) % c.q);
            for (SimdLevel lvl : kAllLevels) {
                if (!kernels::level_supported(lvl)) continue;
                std::vector<u64> got(n, 0);
                kernels::table(lvl).dot_mod_n(got.data(), ap.data(),
                                              bp.data(), w.data(), terms,
                                              n, c.aBound, c.q);
                EXPECT_EQ(std::vector<u64>(n, want), got)
                    << kernels::level_name(lvl) << " q=" << c.q
                    << " a<" << c.aBound << " terms=" << terms;
            }
        }
    }
}

TEST(KernelsDot, ChunkedCallsAreByteStable)
{
    Prng prng(32);
    const std::size_t n = 517;
    const std::size_t splits[] = {1, 2, 3, 8, 33, 101, 511, 516};
    for (SimdLevel lvl : kAllLevels) {
        if (!kernels::level_supported(lvl)) continue;
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            for (std::size_t terms : {3u, 17u, 45u}) {
                DotOperands ops(prng, terms, n, DotMode::Mixed, q, q);
                auto whole = ops.run(t, q, q);
                for (std::size_t k : splits) {
                    std::vector<u64> split(n, 0);
                    t.dot_mod_n(split.data(), ops.a_ptrs(0).data(),
                                ops.b_ptrs(0).data(), ops.w.data(),
                                terms, k, q, q);
                    t.dot_mod_n(split.data() + k, ops.a_ptrs(k).data(),
                                ops.b_ptrs(k).data(), ops.w.data(),
                                terms, n - k, q, q);
                    EXPECT_EQ(whole, split)
                        << kernels::level_name(lvl) << " q=" << q
                        << " terms=" << terms << " k=" << k;
                }
            }
        }
    }
}

TEST(KernelsDot, OutputMayAliasAnOperand)
{
    Prng prng(33);
    const std::size_t n = 101;
    for (SimdLevel lvl : kAllLevels) {
        if (!kernels::level_supported(lvl)) continue;
        const KernelTable &t = kernels::table(lvl);
        for (u64 q : test_primes()) {
            DotOperands ops(prng, 17, n, DotMode::Mixed, q, q);
            auto want = ops.reference(q);
            for (bool intoB : {false, true}) {
                DotOperands alias = ops;
                u64 *out = intoB ? alias.b[0].data() : alias.a[0].data();
                t.dot_mod_n(out, alias.a_ptrs(0).data(),
                            alias.b_ptrs(0).data(), alias.w.data(), 17,
                            n, q, q);
                EXPECT_EQ(want, std::vector<u64>(out, out + n))
                    << kernels::level_name(lvl) << " q=" << q
                    << (intoB ? " out==b[0]" : " out==a[0]");
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
