// Unit tests for the RNS basis, CRT composition, fast base conversion
// (the paper's RNSconv, Eq. 1) and ModDown (Eq. 2), including its
// evaluation-domain finish.

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.h"
#include "common/prng.h"
#include "ntt/ntt.h"
#include "rns/conv.h"
#include "rns/primes.h"

namespace poseidon {
namespace {

RnsBasis
make_basis(std::size_t n, unsigned bits, std::size_t count,
           const std::vector<u64> &avoid = {})
{
    return RnsBasis(generate_ntt_primes(n, bits, count, avoid));
}

TEST(RnsBasis, RejectsDuplicates)
{
    EXPECT_THROW(RnsBasis(std::vector<u64>{97, 97}), poseidon::Error);
    EXPECT_THROW(RnsBasis(std::vector<u64>{}), poseidon::Error);
}

TEST(RnsBasis, DecomposeComposeRoundTripSigned)
{
    RnsBasis basis = make_basis(1024, 30, 4);
    Prng prng(11);
    std::vector<u64> res(basis.size());
    for (int trial = 0; trial < 200; ++trial) {
        i64 v = static_cast<i64>(prng.next() >> 14); // ~50-bit magnitude
        if (trial % 2) v = -v;
        basis.decompose(v, res.data());
        double back = basis.compose_centered_double(res.data());
        EXPECT_DOUBLE_EQ(back, static_cast<double>(v)) << "v=" << v;
    }
}

TEST(RnsBasis, ComposeMatchesKnownResidues)
{
    RnsBasis basis(std::vector<u64>{97, 101});
    // v = 5000: 5000 mod 97 = 53, 5000 mod 101 = 51
    u64 res[2] = {5000 % 97, 5000 % 101};
    BigUInt v = basis.compose(res);
    EXPECT_EQ(v.mod_u64(97), 53u);
    EXPECT_EQ(v.mod_u64(101), 51u);
    EXPECT_DOUBLE_EQ(v.to_double(), 5000.0);
}

TEST(RnsBasis, SinglePrimeBasis)
{
    RnsBasis basis(std::vector<u64>{7681});
    u64 res = 1234;
    EXPECT_DOUBLE_EQ(basis.compose(&res).to_double(), 1234.0);
    u64 neg = 7681 - 5;
    EXPECT_DOUBLE_EQ(basis.compose_centered_double(&neg), -5.0);
}

TEST(RnsBasis, PrefixAndConcat)
{
    RnsBasis basis = make_basis(1024, 30, 5);
    RnsBasis p3 = basis.prefix(3);
    EXPECT_EQ(p3.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(p3.modulus(i), basis.modulus(i));
    }
    RnsBasis other = make_basis(1024, 31, 2, basis.moduli());
    RnsBasis cat = p3.concat(other);
    EXPECT_EQ(cat.size(), 5u);
    EXPECT_EQ(cat.modulus(3), other.modulus(0));
}

TEST(RnsConv, ConvertsExactValuesBelowQ)
{
    // For |x| < Q/2 the fast base conversion with its overflow
    // correction must return x mod p_j exactly: for a three-prime
    // source basis, and for the single-prime basis every rescale
    // converts from, including x = +-(q-1)/2 where the correction's
    // rounding is closest to a half.
    RnsBasis wide = make_basis(1024, 30, 3);
    RnsBasis single = make_basis(1024, 30, 1);
    for (const RnsBasis *src : {&wide, &single}) {
        RnsBasis dst = make_basis(1024, 31, 2, src->moduli());
        RnsConv conv(*src, dst);

        Prng prng(13);
        const std::size_t n = 64;
        std::vector<std::vector<u64>> srcData(src->size(),
                                              std::vector<u64>(n));
        std::vector<std::vector<u64>> dstData(dst.size(),
                                              std::vector<u64>(n));
        std::vector<i64> values(n);
        u64 q0 = src->modulus(0);
        for (std::size_t t = 0; t < n; ++t) {
            // values fit easily below Q ~ 2^90; use ~60-bit
            // magnitudes. Below q0/2 for the single prime.
            i64 v = static_cast<i64>(prng.next() >> 4);
            if (src->size() == 1) {
                v = t < 2 ? static_cast<i64>(q0 / 2)
                          : static_cast<i64>(static_cast<u64>(v) %
                                             (q0 / 2));
            }
            if (t % 2) v = -v;
            values[t] = v;
            std::vector<u64> res(src->size());
            src->decompose(v, res.data());
            for (std::size_t i = 0; i < src->size(); ++i) {
                srcData[i][t] = res[i];
            }
        }

        std::vector<const u64*> in(src->size());
        std::vector<u64*> out(dst.size());
        for (std::size_t i = 0; i < src->size(); ++i) {
            in[i] = srcData[i].data();
        }
        for (std::size_t j = 0; j < dst.size(); ++j) {
            out[j] = dstData[j].data();
        }
        conv.convert(in, out, n);

        for (std::size_t t = 0; t < n; ++t) {
            std::vector<u64> expect(dst.size());
            dst.decompose(values[t], expect.data());
            for (std::size_t j = 0; j < dst.size(); ++j) {
                EXPECT_EQ(dstData[j][t], expect[j])
                    << "ls=" << src->size() << " t=" << t << " j=" << j
                    << " v=" << values[t];
            }
        }
    }
}

TEST(ModDown, DividesByPAndRounds)
{
    // x held over basis q-cat-p; ModDown must return round-ish(x/P)
    // over q (exact up to small rounding noise of the conversion).
    std::size_t n = 16;
    RnsBasis qb = make_basis(1024, 30, 3);
    RnsBasis pb = make_basis(1024, 31, 1, qb.moduli());
    ModDown md(qb, pb);

    u64 P = pb.modulus(0);
    Prng prng(23);
    std::vector<std::vector<u64>> xq(qb.size(), std::vector<u64>(n));
    std::vector<std::vector<u64>> xp(pb.size(), std::vector<u64>(n));
    std::vector<std::vector<u64>> out(qb.size(), std::vector<u64>(n));
    std::vector<i64> values(n);
    for (std::size_t t = 0; t < n; ++t) {
        i64 v = static_cast<i64>(prng.next() >> 3); // < 2^61
        if (t % 2) v = -v;
        values[t] = v;
        std::vector<u64> rq(qb.size()), rp(pb.size());
        qb.decompose(v, rq.data());
        pb.decompose(v, rp.data());
        for (std::size_t i = 0; i < qb.size(); ++i) xq[i][t] = rq[i];
        for (std::size_t i = 0; i < pb.size(); ++i) xp[i][t] = rp[i];
    }
    std::vector<const u64*> xqp(qb.size()), xpp(pb.size());
    std::vector<u64*> outp(qb.size());
    for (std::size_t i = 0; i < qb.size(); ++i) {
        xqp[i] = xq[i].data();
        outp[i] = out[i].data();
    }
    for (std::size_t i = 0; i < pb.size(); ++i) xpp[i] = xp[i].data();
    md.apply(xqp, xpp, outp, n);

    for (std::size_t t = 0; t < n; ++t) {
        std::vector<u64> res(qb.size());
        for (std::size_t i = 0; i < qb.size(); ++i) res[i] = out[i][t];
        double got = qb.compose_centered_double(res.data());
        double expect = static_cast<double>(values[t]) /
                        static_cast<double>(P);
        // ModDown returns floor-ish division; error bounded by ~1.
        EXPECT_NEAR(got, expect, 2.0) << "t=" << t << " v=" << values[t];
    }
}

TEST(ModDown, FinishInEvalDomainMatchesApply)
{
    // The evaluator runs ModDown's subtract-and-scale on
    // evaluation-domain q-limbs: NTT(apply(x)) must equal
    // finish_row(NTT(x_q), NTT(conv(x_p))) bit for bit.
    const std::size_t n = 64;
    Prng prng(29);
    for (std::size_t K : {1u, 3u}) {
        for (std::size_t limbs : {1u, 5u}) {
            RnsBasis qb = make_basis(n, 40, limbs);
            RnsBasis pb = make_basis(n, 45, K, qb.moduli());
            ModDown md(qb, pb);
            std::vector<NttTable> ntt;
            for (std::size_t i = 0; i < limbs; ++i) {
                ntt.emplace_back(n, qb.modulus(i));
            }

            auto random_limbs = [&](const RnsBasis &b) {
                std::vector<std::vector<u64>> x(b.size(),
                                                std::vector<u64>(n));
                for (std::size_t i = 0; i < b.size(); ++i) {
                    for (u64 &v : x[i]) v = prng.uniform(b.modulus(i));
                }
                return x;
            };
            auto xq = random_limbs(qb);
            auto xp = random_limbs(pb);
            std::vector<std::vector<u64>> want(limbs,
                                               std::vector<u64>(n));
            std::vector<std::vector<u64>> c = want, got = want;
            auto xqE = xq;

            std::vector<const u64*> xqp(limbs), xqEp(limbs), xpp(K),
                cp(limbs);
            std::vector<u64*> wantp(limbs), cw(limbs), gotp(limbs);
            for (std::size_t i = 0; i < limbs; ++i) {
                xqp[i] = xq[i].data();
                xqEp[i] = xqE[i].data();
                cp[i] = cw[i] = c[i].data();
                wantp[i] = want[i].data();
                gotp[i] = got[i].data();
            }
            for (std::size_t j = 0; j < K; ++j) xpp[j] = xp[j].data();

            md.apply(xqp, xpp, wantp, n);
            md.conv().convert(xpp, cw, n);
            for (std::size_t i = 0; i < limbs; ++i) {
                ntt[i].forward(want[i].data());
                ntt[i].forward(xqE[i].data());
                ntt[i].forward(c[i].data());
                md.finish_row(i, gotp[i], xqEp[i], cp[i], n);
            }
            EXPECT_EQ(want, got) << "K=" << K << " limbs=" << limbs;
        }
    }
}

} // namespace
} // namespace poseidon
