// Unit tests for the PRNG and RLWE samplers (common/prng).

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/status.h"
#include "common/prng.h"

namespace poseidon {
namespace {

TEST(Prng, Deterministic)
{
    Prng a(123), b(123), c(124);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        u64 va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next()) anyDiff = true;
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Prng, UniformBounds)
{
    Prng prng(1);
    for (u64 bound : {1ull, 2ull, 3ull, 97ull, 1000000007ull}) {
        for (int i = 0; i < 500; ++i) {
            EXPECT_LT(prng.uniform(bound), bound);
        }
    }
    EXPECT_THROW(prng.uniform(0), poseidon::Error);
}

TEST(Prng, UniformFillMatchesUniformLoop)
{
    // Key material is drawn through uniform_fill; it must reproduce the
    // element-by-element stream exactly, rejections included. 2^63 + 1
    // rejects about half of all raw draws; the 60-bit prime takes the
    // Barrett path.
    for (u64 bound : {1ull, 3ull, 1024ull, 786433ull, 1152921504606830593ull,
                      (1ull << 62) - 1, (1ull << 63) + 1, ~0ull}) {
        Prng a(99), b(99);
        std::vector<u64> want(257), got(257);
        for (u64 &v : want) v = a.uniform(bound);
        b.uniform_fill(got.data(), got.size(), bound);
        EXPECT_EQ(got, want) << "bound " << bound;
        EXPECT_EQ(a.next(), b.next()) << "stream position, bound " << bound;
    }
    Prng prng(1);
    u64 v = 0;
    EXPECT_THROW(prng.uniform_fill(&v, 1, 0), poseidon::Error);
}

TEST(Prng, UniformCoversRange)
{
    Prng prng(2);
    std::map<u64, int> counts;
    for (int i = 0; i < 3000; ++i) counts[prng.uniform(3)]++;
    EXPECT_EQ(counts.size(), 3u);
    for (auto &[v, c] : counts) {
        EXPECT_GT(c, 800) << "value " << v << " badly underrepresented";
    }
}

TEST(Prng, UniformDoubleInUnitInterval)
{
    Prng prng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = prng.uniform_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, GaussianMoments)
{
    Prng prng(4);
    double sum = 0, sumsq = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        double g = prng.gaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.05);
    EXPECT_NEAR(sumsq / trials, 1.0, 0.05);
}

TEST(Sampler, TernaryValues)
{
    Sampler s(5);
    auto v = s.ternary(10000);
    int counts[3] = {0, 0, 0};
    for (i64 x : v) {
        ASSERT_GE(x, -1);
        ASSERT_LE(x, 1);
        counts[x + 1]++;
    }
    for (int c : counts) EXPECT_GT(c, 2800);
}

TEST(Sampler, SparseTernaryWeight)
{
    Sampler s(6);
    auto v = s.sparse_ternary(4096, 64);
    int nonzero = 0;
    for (i64 x : v) {
        ASSERT_GE(x, -1);
        ASSERT_LE(x, 1);
        if (x != 0) ++nonzero;
    }
    EXPECT_EQ(nonzero, 64);
    EXPECT_THROW(s.sparse_ternary(10, 11), poseidon::Error);
}

TEST(Sampler, GaussianSigma)
{
    Sampler s(7);
    auto v = s.gaussian(20000, 3.2);
    double sum = 0, sumsq = 0;
    for (i64 x : v) {
        sum += static_cast<double>(x);
        sumsq += static_cast<double>(x) * x;
    }
    EXPECT_NEAR(sum / v.size(), 0.0, 0.1);
    EXPECT_NEAR(std::sqrt(sumsq / v.size()), 3.2, 0.15);
}

TEST(Sampler, UniformModRange)
{
    Sampler s(8);
    u64 q = 786433;
    auto v = s.uniform_mod(5000, q);
    u64 maxv = 0;
    for (u64 x : v) {
        ASSERT_LT(x, q);
        maxv = std::max(maxv, x);
    }
    EXPECT_GT(maxv, q / 2); // sanity: not all tiny
}

} // namespace
} // namespace poseidon
