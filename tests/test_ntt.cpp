// Unit and property tests for the reference NTT and the radix-2^k
// fused NTT (the paper's NTT-fusion, Section III-A).

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/prng.h"
#include "ntt/fusion.h"
#include "ntt/ntt.h"
#include "rns/primes.h"

namespace poseidon {
namespace {

std::vector<u64>
random_poly(std::size_t n, u64 q, u64 seed)
{
    Prng prng(seed);
    std::vector<u64> a(n);
    for (auto &v : a) v = prng.uniform(q);
    return a;
}

TEST(Ntt, ForwardInverseRoundTrip)
{
    for (std::size_t n : {8ull, 64ull, 1024ull, 8192ull}) {
        u64 q = generate_ntt_primes(n, 30, 1)[0];
        NttTable table(n, q);
        auto a = random_poly(n, q, n);
        auto orig = a;
        table.forward(a.data());
        table.inverse(a.data());
        EXPECT_EQ(a, orig) << "n=" << n;
    }
}

TEST(Ntt, ConvolutionMatchesNaive)
{
    std::size_t n = 256;
    u64 q = generate_ntt_primes(n, 32, 1)[0];
    NttTable table(n, q);
    auto a = random_poly(n, q, 1);
    auto b = random_poly(n, q, 2);
    std::vector<u64> expect(n);
    negacyclic_mul_naive(a.data(), b.data(), expect.data(), n, q);

    table.forward(a.data());
    table.forward(b.data());
    for (std::size_t i = 0; i < n; ++i) a[i] = mul_mod(a[i], b[i], q);
    table.inverse(a.data());
    EXPECT_EQ(a, expect);
}

TEST(Ntt, MultiplicationByOnePolynomial)
{
    std::size_t n = 128;
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    auto a = random_poly(n, q, 3);
    std::vector<u64> one(n, 0);
    one[0] = 1;
    auto expect = a;
    table.forward(a.data());
    table.forward(one.data());
    for (std::size_t i = 0; i < n; ++i) a[i] = mul_mod(a[i], one[i], q);
    table.inverse(a.data());
    EXPECT_EQ(a, expect);
}

TEST(Ntt, MultiplicationByXWrapsNegacyclically)
{
    // a(X) * X must shift coefficients up with sign flip on wraparound.
    std::size_t n = 64;
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    auto a = random_poly(n, q, 4);
    std::vector<u64> x(n, 0);
    x[1] = 1;
    std::vector<u64> expect(n);
    for (std::size_t i = 0; i < n - 1; ++i) expect[i + 1] = a[i];
    expect[0] = neg_mod(a[n - 1], q);

    auto fa = a;
    table.forward(fa.data());
    table.forward(x.data());
    for (std::size_t i = 0; i < n; ++i) fa[i] = mul_mod(fa[i], x[i], q);
    table.inverse(fa.data());
    EXPECT_EQ(fa, expect);
}

TEST(Ntt, Linearity)
{
    std::size_t n = 512;
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    auto a = random_poly(n, q, 5);
    auto b = random_poly(n, q, 6);
    std::vector<u64> sum(n);
    for (std::size_t i = 0; i < n; ++i) sum[i] = add_mod(a[i], b[i], q);
    table.forward(a.data());
    table.forward(b.data());
    table.forward(sum.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sum[i], add_mod(a[i], b[i], q));
    }
}

TEST(Ntt, RejectsBadParameters)
{
    EXPECT_THROW(NttTable(100, 97), poseidon::Error); // not pow2
    EXPECT_THROW(NttTable(128, 97), poseidon::Error); // q!=1 mod 2N
}

// ---- NTT-fusion ----

struct FusedCase
{
    std::size_t n;
    std::size_t k;
};
// gtest names each case by its raw bytes: padding would leak
// uninitialised memory into the test names.
static_assert(sizeof(FusedCase) == 2 * sizeof(std::size_t),
              "FusedCase must have no padding bytes");

class FusedNttTest : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedNttTest, MatchesReferenceForward)
{
    auto [n, k] = GetParam();
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    NttFused fused(table, k);

    for (u64 seed = 0; seed < 5; ++seed) {
        auto a = random_poly(n, q, 100 + seed);
        auto b = a;
        table.forward(a.data());
        fused.forward(b.data());
        EXPECT_EQ(a, b) << "n=" << n << " k=" << k << " seed=" << seed;
    }
}

TEST_P(FusedNttTest, MatchesReferenceInverse)
{
    auto [n, k] = GetParam();
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    NttFused fused(table, k);

    for (u64 seed = 0; seed < 3; ++seed) {
        auto a = random_poly(n, q, 200 + seed);
        auto b = a;
        table.inverse(a.data());
        fused.inverse(b.data());
        EXPECT_EQ(a, b) << "n=" << n << " k=" << k << " seed=" << seed;
    }
}

TEST_P(FusedNttTest, FusedRoundTrip)
{
    auto [n, k] = GetParam();
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    NttFused fused(table, k);
    auto a = random_poly(n, q, 300);
    auto orig = a;
    fused.forward(a.data());
    fused.inverse(a.data());
    EXPECT_EQ(a, orig) << "n=" << n << " k=" << k;
}

TEST_P(FusedNttTest, PhaseCountMatchesModel)
{
    auto [n, k] = GetParam();
    u64 q = generate_ntt_primes(n, 30, 1)[0];
    NttTable table(n, q);
    NttFused fused(table, k);
    auto a = random_poly(n, q, 7);
    fused.forward(a.data());
    EXPECT_EQ(fused.stats().phases, FusionCostModel::phases(n, k));
    // Total butterflies must equal N/2 * log2(N) regardless of k.
    EXPECT_EQ(fused.stats().butterflies,
              u64(n) / 2 * log2_floor(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedNttTest,
    ::testing::Values(FusedCase{64, 1}, FusedCase{64, 2}, FusedCase{64, 3},
                      FusedCase{256, 2}, FusedCase{256, 3},
                      FusedCase{256, 4}, FusedCase{1024, 3},
                      FusedCase{1024, 5}, FusedCase{4096, 3},
                      FusedCase{4096, 4}, FusedCase{4096, 6},
                      FusedCase{8192, 3}));

TEST(FusionCostModel, ReproducesTableII)
{
    // Table II of the paper.
    struct Row { unsigned k; u64 wUn, wFu, mUn, mFu; };
    const Row rows[] = {
        {2, 2, 2, 8, 12},
        {3, 4, 5, 24, 56},
        {4, 8, 13, 64, 240},
        {5, 16, 34, 160, 992},
    };
    for (const auto &r : rows) {
        FusionCostModel m{r.k};
        EXPECT_EQ(m.twiddles_unfused(), r.wUn) << "k=" << r.k;
        EXPECT_EQ(m.twiddles_fused(), r.wFu) << "k=" << r.k;
        EXPECT_EQ(m.mult_unfused(), r.mUn) << "k=" << r.k;
        EXPECT_EQ(m.mult_fused(), r.mFu) << "k=" << r.k;
    }
    // k=6: paper prints 4160; formula (2^k-1)*2^k gives 4032.
    FusionCostModel m6{6};
    EXPECT_EQ(m6.twiddles_fused(), 85u);
    EXPECT_EQ(m6.mult_unfused(), 384u);
}

TEST(FusionCostModel, ModularReductionSavings)
{
    // "three-phase TAM with 24 modular reductions ... transforms into
    //  one-phase fused TAM with only 8" (k=3).
    FusionCostModel m{3};
    EXPECT_EQ(m.modred_unfused(), 24u);
    EXPECT_EQ(m.modred_fused(), 8u);
}

TEST(FusionCostModel, Phases)
{
    EXPECT_EQ(FusionCostModel::phases(4096, 3), 4u);  // paper example
    EXPECT_EQ(FusionCostModel::phases(4096, 1), 12u);
    EXPECT_EQ(FusionCostModel::phases(65536, 3), 6u); // ceil(16/3)
}

TEST(AccessPattern, TableIIIStrides)
{
    // Paper: N=4096, k=3 — iteration 1 sequential, iteration 2 stride 8,
    // iteration 3 stride 64.
    AccessPattern ap{4096, 3};
    EXPECT_EQ(ap.iterations(), 4u);
    EXPECT_EQ(ap.stride(1), 1u);
    EXPECT_EQ(ap.stride(2), 8u);
    EXPECT_EQ(ap.stride(3), 64u);
    EXPECT_EQ(ap.stride(4), 512u);
    auto blk2 = ap.first_block(2);
    std::vector<u64> expect = {0, 8, 16, 24, 32, 40, 48, 56};
    EXPECT_EQ(blk2, expect);
}

} // namespace
} // namespace poseidon
