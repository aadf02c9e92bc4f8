// End-to-end tests for the CKKS scheme: encoder round trips, encrypt/
// decrypt, and every basic operation of the paper's Section II (HAdd,
// PMult, CMult+relin, Rescale, Keyswitch, Rotation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "common/status.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "poly/automorphism.h"
#include "telemetry/metrics.h"

namespace poseidon {
namespace {

struct Fixture
{
    CkksContextPtr ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator eval;

    explicit Fixture(CkksParams p)
        : ctx(make_ckks_context(p)),
          encoder(ctx),
          keygen(ctx),
          encryptor(ctx, keygen.make_public_key()),
          decryptor(ctx, keygen.secret_key()),
          eval(ctx)
    {}
};

CkksParams
small_params()
{
    CkksParams p;
    p.logN = 11;
    p.L = 5;
    p.scaleBits = 35;
    p.firstPrimeBits = 45;
    p.specialPrimeBits = 45;
    return p;
}

std::vector<cdouble>
test_vector(std::size_t n, u64 seed, double mag = 1.0)
{
    Prng prng(seed);
    std::vector<cdouble> v(n);
    for (auto &x : v) {
        x = cdouble((prng.uniform_double() * 2 - 1) * mag,
                    (prng.uniform_double() * 2 - 1) * mag);
    }
    return v;
}

double
max_err(const std::vector<cdouble> &a, const std::vector<cdouble> &b)
{
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        m = std::max(m, std::abs(a[i] - b[i]));
    }
    return m;
}

bool
same_bytes(const RnsPoly &a, const RnsPoly &b)
{
    if (!a.compatible(b)) return false;
    for (std::size_t k = 0; k < a.num_limbs(); ++k) {
        if (!std::equal(a.limb(k), a.limb(k) + a.degree(), b.limb(k))) {
            return false;
        }
    }
    return true;
}

TEST(CkksEncoder, EncodeDecodeRoundTrip)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 1);
    Plaintext pt = f.encoder.encode(z, f.ctx->params().L);
    auto back = f.encoder.decode(pt);
    EXPECT_LT(max_err(z, back), 1e-6);
}

TEST(CkksEncoder, ScalarAndRealEncode)
{
    Fixture f(small_params());
    Plaintext pt = f.encoder.encode_scalar(cdouble(0.5, -0.25), 2);
    auto back = f.encoder.decode(pt);
    for (auto v : back) {
        EXPECT_NEAR(v.real(), 0.5, 1e-6);
        EXPECT_NEAR(v.imag(), -0.25, 1e-6);
    }

    // The closed form (no FFT, no NTT) has encode()'s exact bytes.
    std::vector<cdouble> values = {cdouble(0.5, 0.0), cdouble(0.5, -0.25),
                                   cdouble(-1.0, 0.0)};
    const cdouble iPow[] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    double fact = 1.0;
    for (unsigned d = 0; d <= 7; ++d) {
        if (d > 0) fact *= d;
        values.push_back(iPow[d % 4] / fact);
    }
    std::size_t slots = f.ctx->slots();
    for (std::size_t limbs : {std::size_t(1), f.ctx->params().L}) {
        for (cdouble v : values) {
            Plaintext a = f.encoder.encode_scalar(v, limbs);
            Plaintext b = f.encoder.encode(
                std::vector<cdouble>(slots, v), limbs);
            EXPECT_TRUE(same_bytes(a.poly, b.poly))
                << "value " << v << " at " << limbs << " limbs";
            EXPECT_EQ(a.scale, b.scale);
        }
    }

    std::vector<double> reals = {1.0, -2.0, 3.0};
    Plaintext pr = f.encoder.encode_real(reals, 2);
    auto rb = f.encoder.decode(pr);
    EXPECT_NEAR(rb[0].real(), 1.0, 1e-6);
    EXPECT_NEAR(rb[1].real(), -2.0, 1e-6);
    EXPECT_NEAR(rb[2].real(), 3.0, 1e-6);
    EXPECT_NEAR(rb[3].real(), 0.0, 1e-6); // zero padding
}

TEST(CkksEncoder, AdditiveHomomorphismOfEncoding)
{
    Fixture f(small_params());
    auto z1 = test_vector(f.ctx->slots(), 2);
    auto z2 = test_vector(f.ctx->slots(), 3);
    Plaintext p1 = f.encoder.encode(z1, 2);
    Plaintext p2 = f.encoder.encode(z2, 2);
    p1.poly.add_inplace(p2.poly);
    auto back = f.encoder.decode(p1);
    std::vector<cdouble> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i) expect[i] = z1[i] + z2[i];
    EXPECT_LT(max_err(expect, back), 1e-5);
}

TEST(Ckks, EncryptDecrypt)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 4);
    Plaintext pt = f.encoder.encode(z, f.ctx->params().L);
    Ciphertext ct = f.encryptor.encrypt(pt);
    EXPECT_EQ(ct.level(), f.ctx->top_level());
    auto back = f.encoder.decode(f.decryptor.decrypt(ct));
    EXPECT_LT(max_err(z, back), 1e-4);
}

TEST(Ckks, HAddCiphertexts)
{
    Fixture f(small_params());
    auto z1 = test_vector(f.ctx->slots(), 5);
    auto z2 = test_vector(f.ctx->slots(), 6);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z1, 3));
    Ciphertext c2 = f.encryptor.encrypt(f.encoder.encode(z2, 3));
    Ciphertext sum = f.eval.add(c1, c2);
    Ciphertext diff = f.eval.sub(c1, c2);
    auto sumBack = f.encoder.decode(f.decryptor.decrypt(sum));
    auto diffBack = f.encoder.decode(f.decryptor.decrypt(diff));
    for (std::size_t i = 0; i < z1.size(); ++i) {
        EXPECT_NEAR(std::abs(sumBack[i] - (z1[i] + z2[i])), 0, 1e-4);
        EXPECT_NEAR(std::abs(diffBack[i] - (z1[i] - z2[i])), 0, 1e-4);
    }
}

TEST(Ckks, HAddPlain)
{
    Fixture f(small_params());
    auto z1 = test_vector(f.ctx->slots(), 7);
    auto z2 = test_vector(f.ctx->slots(), 8);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z1, 3));
    Plaintext p2 = f.encoder.encode(z2, 3);
    auto back = f.encoder.decode(
        f.decryptor.decrypt(f.eval.add_plain(c1, p2)));
    std::vector<cdouble> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i) expect[i] = z1[i] + z2[i];
    EXPECT_LT(max_err(expect, back), 1e-4);
}

TEST(Ckks, NegateAndSubPlain)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 9);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 2));
    auto back = f.encoder.decode(f.decryptor.decrypt(f.eval.negate(c)));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(std::abs(back[i] + z[i]), 0, 1e-4);
    }
}

TEST(Ckks, PMultWithRescale)
{
    Fixture f(small_params());
    auto z1 = test_vector(f.ctx->slots(), 10);
    auto z2 = test_vector(f.ctx->slots(), 11);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z1, 3));
    Plaintext p2 = f.encoder.encode(z2, 3);
    Ciphertext prod = f.eval.mul_plain(c1, p2);
    f.eval.rescale_inplace(prod);
    EXPECT_EQ(prod.num_limbs(), 2u);
    auto back = f.encoder.decode(f.decryptor.decrypt(prod));
    std::vector<cdouble> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i) expect[i] = z1[i] * z2[i];
    EXPECT_LT(max_err(expect, back), 1e-3);
}

TEST(Ckks, MulScalarAndInteger)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 12);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    Ciphertext sc = f.eval.mul_scalar(c, 0.125);
    f.eval.rescale_inplace(sc);
    auto back = f.encoder.decode(f.decryptor.decrypt(sc));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(std::abs(back[i] - 0.125 * z[i]), 0, 1e-3);
    }
    Ciphertext ic = f.eval.mul_integer(c, -3);
    auto iback = f.encoder.decode(f.decryptor.decrypt(ic));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(std::abs(iback[i] + 3.0 * z[i]), 0, 1e-3);
    }
}

TEST(Ckks, CMultWithRelinearization)
{
    Fixture f(small_params());
    KSwitchKey relin = f.keygen.make_relin_key();
    auto z1 = test_vector(f.ctx->slots(), 13);
    auto z2 = test_vector(f.ctx->slots(), 14);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z1, 4));
    Ciphertext c2 = f.encryptor.encrypt(f.encoder.encode(z2, 4));
    Ciphertext prod = f.eval.mul(c1, c2, relin);
    f.eval.rescale_inplace(prod);
    auto back = f.encoder.decode(f.decryptor.decrypt(prod));
    std::vector<cdouble> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i) expect[i] = z1[i] * z2[i];
    EXPECT_LT(max_err(expect, back), 1e-3);
}

TEST(Ckks, FusedRescaleMatchesModDownThenRescale)
{
    // mul leaves its product over QP, and rescale_inplace divides it by
    // P*q_l in one ModDown. mod_down then rescale rounds twice; nested
    // rounding agrees with one rounding except within about 1/q_l of a
    // boundary, so the bytes match. Classic and hybrid keyswitching,
    // at 1 and 4 threads.
    CkksParams hybrid = small_params();
    hybrid.L = 6;
    hybrid.dnum = 2;
    hybrid.K = 3;
    for (const CkksParams &p : {small_params(), hybrid}) {
        Fixture f(p);
        KSwitchKey relin = f.keygen.make_relin_key();
        std::size_t limbs = p.L - 1;
        Ciphertext a = f.encryptor.encrypt(
            f.encoder.encode(test_vector(f.ctx->slots(), 60), limbs));
        Ciphertext b = f.encryptor.encrypt(
            f.encoder.encode(test_vector(f.ctx->slots(), 61), limbs));

        Ciphertext serial;
        for (std::size_t threads : {1, 4}) {
            parallel::set_num_threads(threads);
            SCOPED_TRACE(testing::Message() << "K=" << p.K << " threads "
                         << threads);
            Ciphertext prod = f.eval.mul(a, b, relin);
            ASSERT_EQ(prod.num_limbs(), limbs + p.K);
            Ciphertext fused = f.eval.rescale(prod);
            Ciphertext nested =
                f.eval.rescale(f.eval.mod_down(Ciphertext(prod)));
            EXPECT_EQ(fused.num_limbs(), limbs - 1);
            EXPECT_TRUE(same_bytes(fused.c0, nested.c0));
            EXPECT_TRUE(same_bytes(fused.c1, nested.c1));
            EXPECT_EQ(fused.scale, nested.scale);
            if (threads == 1) {
                serial = fused;
            } else {
                EXPECT_TRUE(same_bytes(fused.c0, serial.c0));
                EXPECT_TRUE(same_bytes(fused.c1, serial.c1));
            }
        }
        parallel::set_num_threads(0); // restore the environment default

        // With one q-limb left there is no q_l to divide by.
        Ciphertext last = a;
        f.eval.drop_to_limbs_inplace(last, 1);
        last = f.eval.square(last, relin);
        EXPECT_THROW(f.eval.rescale_inplace(last), NoiseBudgetExhausted);
    }
}

TEST(Ckks, ExtendedCiphertextRejectedByQBasisOps)
{
    // An extended ciphertext (a mul result before its rescale, or a
    // rotate_ext result) stands for P times a q-basis one. Read as a
    // q-basis ciphertext it decrypts to garbage, so every q-basis-only
    // entry point rejects it.
    Fixture f(small_params());
    KSwitchKey relin = f.keygen.make_relin_key();
    GaloisKeys gk = f.keygen.make_galois_keys({1});
    Ciphertext c = f.encryptor.encrypt(
        f.encoder.encode(test_vector(f.ctx->slots(), 62), 3));
    u64 g = galois_element_for_step(f.ctx->degree(), 1);
    for (const Ciphertext &ext :
         {f.eval.mul(c, c, relin), f.eval.rotate_ext(c, 1, gk)}) {
        ASSERT_EQ(ext.num_limbs(), 3 + f.ctx->params().K);
        EXPECT_THROW(f.decryptor.decrypt(ext), ShapeMismatch);
        EXPECT_THROW(f.eval.mul(ext, ext, relin), ShapeMismatch);
        EXPECT_THROW(f.eval.mul(c, ext, relin), ShapeMismatch);
        EXPECT_THROW(f.eval.square(ext, relin), ShapeMismatch);
        EXPECT_THROW(f.eval.rotate(ext, 1, gk), ShapeMismatch);
        EXPECT_THROW(f.eval.rotate(ext, 0, gk), ShapeMismatch);
        EXPECT_THROW(f.eval.conjugate(ext, gk), ShapeMismatch);
        EXPECT_THROW(f.eval.apply_galois(ext, g, gk.get(g)), ShapeMismatch);
        EXPECT_THROW(f.eval.rotate_ext(ext, 1, gk), ShapeMismatch);
        EXPECT_THROW(f.eval.rotate_hoisted_ext(ext, {0, 1}, gk),
                     ShapeMismatch);
        EXPECT_THROW(f.eval.keyswitch_core(ext.c1, relin), ShapeMismatch);
        Ciphertext dropped = ext;
        EXPECT_THROW(f.eval.drop_to_limbs_inplace(dropped, 2),
                     ShapeMismatch);
        // Its ModDown is an ordinary q-basis ciphertext again.
        Ciphertext down = f.eval.mod_down(Ciphertext(ext));
        EXPECT_NO_THROW(f.decryptor.decrypt(down));
    }
}

TEST(Ckks, MultiplicativeChainConsumesLevels)
{
    Fixture f(small_params());
    KSwitchKey relin = f.keygen.make_relin_key();
    std::size_t slots = f.ctx->slots();
    std::vector<cdouble> z(slots, cdouble(0.9, 0.0));
    Ciphertext c = f.encryptor.encrypt(
        f.encoder.encode(z, f.ctx->params().L));
    double expect = 0.9;
    // Square repeatedly until the chain runs out.
    while (c.num_limbs() > 1) {
        c = f.eval.square(c, relin);
        f.eval.rescale_inplace(c);
        expect *= expect;
        auto back = f.encoder.decode(f.decryptor.decrypt(c));
        EXPECT_NEAR(back[0].real(), expect, 5e-3)
            << "limbs=" << c.num_limbs();
    }
    EXPECT_THROW(f.eval.rescale_inplace(c), poseidon::Error);
}

TEST(Ckks, SquareMatchesMul)
{
    Fixture f(small_params());
    KSwitchKey relin = f.keygen.make_relin_key();
    auto z = test_vector(f.ctx->slots(), 15);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    auto viaMul = f.encoder.decode(
        f.decryptor.decrypt(f.eval.rescale(f.eval.mul(c, c, relin))));
    auto viaSq = f.encoder.decode(
        f.decryptor.decrypt(f.eval.rescale(f.eval.square(c, relin))));
    EXPECT_LT(max_err(viaMul, viaSq), 1e-9);
}

TEST(Ckks, DropToLimbsPreservesMessage)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 16);
    Ciphertext c = f.encryptor.encrypt(
        f.encoder.encode(z, f.ctx->params().L));
    f.eval.drop_to_limbs_inplace(c, 2);
    EXPECT_EQ(c.num_limbs(), 2u);
    auto back = f.encoder.decode(f.decryptor.decrypt(c));
    EXPECT_LT(max_err(z, back), 1e-4);
}

TEST(Ckks, RotationRotatesSlots)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 17);
    GaloisKeys gk = f.keygen.make_galois_keys({1, 2, 5, -1});
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));

    std::size_t ns = f.ctx->slots();
    for (long step : {1L, 2L, 5L, -1L}) {
        Ciphertext r = f.eval.rotate(c, step, gk);
        auto back = f.encoder.decode(f.decryptor.decrypt(r));
        std::vector<cdouble> expect(ns);
        for (std::size_t i = 0; i < ns; ++i) {
            long src = (static_cast<long>(i) + step) %
                       static_cast<long>(ns);
            if (src < 0) src += static_cast<long>(ns);
            expect[i] = z[static_cast<std::size_t>(src)];
        }
        EXPECT_LT(max_err(expect, back), 1e-3) << "step=" << step;
    }
}

TEST(Ckks, RotationByZeroIsIdentity)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 18);
    GaloisKeys gk; // rotate(0) must not need any key
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 2));
    Ciphertext r = f.eval.rotate(c, 0, gk);
    auto back = f.encoder.decode(f.decryptor.decrypt(r));
    EXPECT_LT(max_err(z, back), 1e-4);
}

TEST(Ckks, ConjugationConjugatesSlots)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 19);
    GaloisKeys gk = f.keygen.make_galois_keys({}, true);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    Ciphertext r = f.eval.conjugate(c, gk);
    auto back = f.encoder.decode(f.decryptor.decrypt(r));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(std::abs(back[i] - std::conj(z[i])), 0, 1e-3);
    }
}

TEST(Ckks, RotationComposition)
{
    // rotate(rotate(x, a), b) == rotate(x, a+b)
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 20);
    GaloisKeys gk = f.keygen.make_galois_keys({3, 4, 7});
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 4));
    Ciphertext ab = f.eval.rotate(f.eval.rotate(c, 3, gk), 4, gk);
    Ciphertext direct = f.eval.rotate(c, 7, gk);
    auto b1 = f.encoder.decode(f.decryptor.decrypt(ab));
    auto b2 = f.encoder.decode(f.decryptor.decrypt(direct));
    EXPECT_LT(max_err(b1, b2), 1e-3);
}

TEST(Ckks, ScaleMismatchRejected)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 21);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z, 3));
    Ciphertext c2 = f.encryptor.encrypt(
        f.encoder.encode(z, 3, f.ctx->params().scale() * 2));
    EXPECT_THROW(f.eval.add(c1, c2), poseidon::Error);
}

TEST(Ckks, LevelMismatchRejected)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 22);
    Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z, 3));
    Ciphertext c2 = f.encryptor.encrypt(f.encoder.encode(z, 2));
    EXPECT_THROW(f.eval.add(c1, c2), poseidon::Error);
}

TEST(Ckks, DotPlainMatchesMulPlainChain)
{
    // Exact mod q, so byte-equal at whichever POSEIDON_SIMD level the
    // suite runs under (CI runs it once per level).
    Fixture f(small_params());
    std::size_t slots = f.ctx->slots();
    std::vector<Ciphertext> cts;
    std::vector<Plaintext> pts;
    for (u64 t = 0; t < 32; ++t) {
        if (t < 4) {
            cts.push_back(f.encryptor.encrypt(
                f.encoder.encode(test_vector(slots, 60 + t), 3)));
        }
        pts.push_back(f.encoder.encode(test_vector(slots, 70 + t), 3));
    }
    auto &reg = telemetry::MetricsRegistry::global();
    for (std::size_t terms : {1, 7, 32}) {
        std::vector<const Ciphertext*> cp;
        std::vector<const Plaintext*> pp;
        Ciphertext chain = f.eval.mul_plain(cts[0], pts[0]);
        for (std::size_t t = 0; t < terms; ++t) {
            cp.push_back(&cts[t % cts.size()]);
            pp.push_back(&pts[t]);
            if (t > 0) f.eval.add_inplace(chain,
                                          f.eval.mul_plain(*cp[t], *pp[t]));
        }
        double pm0 = reg.counter_value("ckks.ops.mul_plain");
        Ciphertext dot = f.eval.dot_plain(cp, pp);
        EXPECT_TRUE(same_bytes(dot.c0, chain.c0)) << terms << " terms";
        EXPECT_TRUE(same_bytes(dot.c1, chain.c1)) << terms << " terms";
        EXPECT_EQ(dot.scale, chain.scale);
        if (telemetry::enabled()) {
            EXPECT_EQ(reg.counter_value("ckks.ops.mul_plain") - pm0,
                      static_cast<double>(terms));
        }
    }

    // Every term must share the first term's level and scales.
    Ciphertext low = cts[1];
    f.eval.drop_to_limbs_inplace(low, 2);
    Plaintext lowPt = pts[1];
    f.eval.drop_to_limbs_inplace(lowPt, 2);
    Ciphertext scaled = f.encryptor.encrypt(f.encoder.encode(
        test_vector(slots, 64), 3, f.ctx->params().scale() * 2));
    Plaintext scaledPt = f.encoder.encode(test_vector(slots, 65), 3,
                                          f.ctx->params().scale() * 2);
    using Terms = std::pair<std::vector<const Ciphertext*>,
                            std::vector<const Plaintext*>>;
    for (const Terms &bad :
         {Terms{{&cts[0], &low}, {&pts[0], &pts[1]}},
          Terms{{&cts[0], &cts[1]}, {&pts[0], &lowPt}},
          Terms{{&cts[0], &scaled}, {&pts[0], &pts[1]}},
          Terms{{&cts[0], &cts[1]}, {&pts[0], &scaledPt}},
          Terms{{&cts[0]}, {&pts[0], &pts[1]}}}) {
        EXPECT_THROW(f.eval.dot_plain(bad.first, bad.second),
                     ShapeMismatch);
    }
}

TEST(Ckks, KeyswitchCoreIdentity)
{
    // keyswitch_core(d, key for s') yields u0 + u1*s ~ d*s'. Take
    // s' = s (key from s to s) and verify on a fresh encryption of m:
    // (c0 + u0) + u1*s should still decrypt to ~m where (u0,u1) =
    // keyswitch(c1).
    Fixture f(small_params());
    KSwitchKey selfKey = f.keygen.make_kswitch_key(f.keygen.secret_key().s);
    auto z = test_vector(f.ctx->slots(), 23);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    auto [u0, u1] = f.eval.keyswitch_core(c.c1, selfKey);
    Ciphertext sw;
    sw.c0 = c.c0;
    sw.c0.add_inplace(u0);
    sw.c1 = u1;
    sw.scale = c.scale;
    auto back = f.encoder.decode(f.decryptor.decrypt(sw));
    EXPECT_LT(max_err(z, back), 1e-3);
}

TEST(Ckks, TwoSpecialPrimes)
{
    CkksParams p = small_params();
    p.K = 2;
    Fixture f(p);
    KSwitchKey relin = f.keygen.make_relin_key();
    auto z = test_vector(f.ctx->slots(), 24);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    Ciphertext prod = f.eval.rescale(f.eval.mul(c, c, relin));
    auto back = f.encoder.decode(f.decryptor.decrypt(prod));
    std::vector<cdouble> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expect[i] = z[i] * z[i];
    EXPECT_LT(max_err(expect, back), 1e-3);
}


TEST(Ckks, AdjustScaleEnablesCrossPathAddition)
{
    Fixture f(small_params());
    KSwitchKey relin = f.keygen.make_relin_key();
    auto z = test_vector(f.ctx->slots(), 30);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 4));

    // Path A: x^2 via square+rescale. Path B: x*0.5 via scalar mult.
    Ciphertext a = f.eval.rescale(f.eval.square(c, relin));
    Ciphertext b = f.eval.rescale(f.eval.mul_scalar(c, 0.5));
    // Scales generally differ; equalize and add.
    f.eval.equalize_inplace(a, b);
    Ciphertext sum = f.eval.add(a, b);
    auto back = f.encoder.decode(f.decryptor.decrypt(sum));
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_NEAR(std::abs(back[i] - (z[i] * z[i] + 0.5 * z[i])), 0,
                    1e-2) << i;
    }
}

TEST(Ckks, AdjustScaleHitsTargetExactly)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 31);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 3));
    double target = c.scale * 0.875;
    Ciphertext adj = f.eval.adjust_scale(c, target);
    EXPECT_DOUBLE_EQ(adj.scale, target);
    EXPECT_EQ(adj.num_limbs(), c.num_limbs() - 1);
    auto back = f.encoder.decode(f.decryptor.decrypt(adj));
    EXPECT_LT(max_err(z, back), 1e-3);
}

TEST(Ckks, AdjustScaleRejectsBottomLevel)
{
    Fixture f(small_params());
    auto z = test_vector(f.ctx->slots(), 32);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 1));
    EXPECT_THROW(f.eval.adjust_scale(c, c.scale),
                 poseidon::Error);
}


TEST(Ckks, HybridKeyswitchingDnum)
{
    // dnum digit groups: same correctness as digit-per-prime, smaller
    // switching keys. Sweep a few (dnum, K) combinations.
    for (auto [dnum, K] : {std::pair<std::size_t, std::size_t>{2, 3},
                           {3, 2}, {6, 1}}) {
        CkksParams p = small_params();
        p.L = 6;
        p.dnum = dnum;
        p.K = K;
        Fixture f(p);
        KSwitchKey relin = f.keygen.make_relin_key();
        EXPECT_EQ(relin.pieces.size(),
                  (p.L + f.ctx->alpha() - 1) / f.ctx->alpha());
        GaloisKeys gk = f.keygen.make_galois_keys({3});

        auto z1 = test_vector(f.ctx->slots(), 40);
        auto z2 = test_vector(f.ctx->slots(), 41);
        Ciphertext c1 = f.encryptor.encrypt(f.encoder.encode(z1, 5));
        Ciphertext c2 = f.encryptor.encrypt(f.encoder.encode(z2, 5));

        Ciphertext prod = f.eval.rescale(f.eval.mul(c1, c2, relin));
        auto back = f.encoder.decode(f.decryptor.decrypt(prod));
        std::vector<cdouble> expect(z1.size());
        for (std::size_t i = 0; i < z1.size(); ++i) {
            expect[i] = z1[i] * z2[i];
        }
        EXPECT_LT(max_err(expect, back), 1e-2)
            << "dnum=" << dnum << " K=" << K;

        // Rotation through the hybrid keyswitch.
        Ciphertext r = f.eval.rotate(c1, 3, gk);
        auto rb = f.encoder.decode(f.decryptor.decrypt(r));
        std::vector<cdouble> rexpect(z1.size());
        for (std::size_t i = 0; i < z1.size(); ++i) {
            rexpect[i] = z1[(i + 3) % z1.size()];
        }
        EXPECT_LT(max_err(rexpect, rb), 1e-2)
            << "dnum=" << dnum << " K=" << K;
    }
}

TEST(Ckks, HybridKeyswitchingWorksAtLowerLevels)
{
    // Partial final digit group: at 4 limbs with alpha=3 the second
    // group covers one prime only.
    CkksParams p = small_params();
    p.L = 6;
    p.dnum = 2; // alpha = 3
    p.K = 3;
    Fixture f(p);
    KSwitchKey relin = f.keygen.make_relin_key();
    auto z = test_vector(f.ctx->slots(), 42);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 4));
    Ciphertext prod = f.eval.rescale(f.eval.square(c, relin));
    auto back = f.encoder.decode(f.decryptor.decrypt(prod));
    std::vector<cdouble> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) expect[i] = z[i] * z[i];
    EXPECT_LT(max_err(expect, back), 1e-2);
}

TEST(Ckks, HybridKeyswitchingRejectsTooFewSpecialPrimes)
{
    CkksParams p = small_params();
    p.L = 6;
    p.dnum = 2; // alpha = 3 > K = 1
    p.K = 1;
    EXPECT_THROW(make_ckks_context(p), poseidon::Error);
}


/// Hoisted rotations on the q-basis: ModDown of each nonzero step's
/// rotate_hoisted_ext result, and `a` itself for a zero step.
std::vector<Ciphertext>
rotate_hoisted(const CkksEvaluator &eval, const Ciphertext &a,
               const std::vector<long> &steps, const GaloisKeys &gk)
{
    std::vector<Ciphertext> out = eval.rotate_hoisted_ext(a, steps, gk);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        out[i] = steps[i] == 0 ? a : eval.mod_down(std::move(out[i]));
    }
    return out;
}

TEST(Ckks, HoistedRotationsMatchIndividualRotations)
{
    // Hoisted rotations share one digit decomposition. They are not
    // bit-identical to per-step rotate() (the negacyclic wrap picks a
    // different — equally small — digit representative), but the
    // decrypted values must agree to within keyswitch noise.
    Fixture f(small_params());
    GaloisKeys gk = f.keygen.make_galois_keys({1, 2, 5, -3});
    auto z = test_vector(f.ctx->slots(), 50);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 4));

    std::vector<long> steps = {0, 1, 2, 5, -3};
    auto hoisted = rotate_hoisted(f.eval, c, steps, gk);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        Ciphertext single = f.eval.rotate(c, steps[i], gk);
        auto vh = f.encoder.decode(f.decryptor.decrypt(hoisted[i]));
        auto vs = f.encoder.decode(f.decryptor.decrypt(single));
        EXPECT_LT(max_err(vh, vs), 1e-4) << "step " << steps[i];
        // And both must actually be the rotation of z.
        std::size_t ns = f.ctx->slots();
        std::vector<cdouble> expect(ns);
        for (std::size_t j = 0; j < ns; ++j) {
            long src = (static_cast<long>(j) + steps[i]) %
                       static_cast<long>(ns);
            if (src < 0) src += static_cast<long>(ns);
            expect[j] = z[static_cast<std::size_t>(src)];
        }
        EXPECT_LT(max_err(expect, vh), 1e-3) << "step " << steps[i];
    }
}

TEST(Ckks, HoistedRotationsWithHybridKeyswitch)
{
    CkksParams p = small_params();
    p.L = 6;
    p.dnum = 2;
    p.K = 3;
    Fixture f(p);
    GaloisKeys gk = f.keygen.make_galois_keys({1, 4});
    auto z = test_vector(f.ctx->slots(), 51);
    Ciphertext c = f.encryptor.encrypt(f.encoder.encode(z, 5));
    auto rots = rotate_hoisted(f.eval, c, {1, 4}, gk);
    std::size_t ns = f.ctx->slots();
    for (std::size_t which = 0; which < 2; ++which) {
        long step = which == 0 ? 1 : 4;
        auto back = f.encoder.decode(f.decryptor.decrypt(rots[which]));
        for (std::size_t i = 0; i < ns; ++i) {
            ASSERT_LT(std::abs(back[i] - z[(i + step) % ns]), 1e-2)
                << "step " << step << " slot " << i;
        }
    }
}

TEST(Ckks, ExtendedBasisRotationsMatchRotateHoisted)
{
    // The rotate_hoisted oracle is rotate_hoisted_ext plus one ModDown
    // per nonzero step. P*tau(c0) is zero mod every special prime and
    // exact mod every q_i, so ModDown(P*tau(c0) + acc) =
    // tau(c0) + ModDown(acc): a one-term group with a plaintext of 1,
    // brought down, has the oracle's bytes, and rotate_ext's ModDown
    // has rotate()'s.
    // Classic and hybrid keyswitching, at 1 and 4 threads.
    CkksParams hybrid = small_params();
    hybrid.L = 6;
    hybrid.dnum = 2;
    hybrid.K = 3;
    for (const CkksParams &p : {small_params(), hybrid}) {
        Fixture f(p);
        std::size_t limbs = p.L - 1;
        std::vector<long> steps = {0, 1, 5, -3};
        GaloisKeys gk = f.keygen.make_galois_keys({1, 5, -3});
        Ciphertext c = f.encryptor.encrypt(
            f.encoder.encode(test_vector(f.ctx->slots(), 52), limbs));
        Plaintext one = f.encoder.encode_extended(
            std::vector<cdouble>(f.ctx->slots(), 1.0), limbs, 1.0);
        ASSERT_EQ(one.num_limbs(), limbs + p.K);

        std::vector<Ciphertext> serial;
        for (std::size_t threads : {1, 4}) {
            parallel::set_num_threads(threads);
            auto want = rotate_hoisted(f.eval, c, steps, gk);
            auto ext = f.eval.rotate_hoisted_ext(c, steps, gk);
            ASSERT_EQ(ext.size(), steps.size());
            for (std::size_t i = 0; i < steps.size(); ++i) {
                SCOPED_TRACE(testing::Message() << "K=" << p.K << " step "
                             << steps[i] << " threads " << threads);
                EXPECT_EQ(ext[i].num_limbs(), limbs + p.K);
                Ciphertext got =
                    f.eval.mod_down(f.eval.dot_plain({&ext[i]}, {&one}));
                EXPECT_TRUE(same_bytes(got.c0, want[i].c0));
                EXPECT_TRUE(same_bytes(got.c1, want[i].c1));
                EXPECT_EQ(got.scale, want[i].scale);
                if (threads == 1) {
                    serial.push_back(got);
                } else {
                    EXPECT_TRUE(same_bytes(got.c0, serial[i].c0));
                    EXPECT_TRUE(same_bytes(got.c1, serial[i].c1));
                }
                if (steps[i] == 0) continue;
                Ciphertext single = f.eval.rotate(c, steps[i], gk);
                Ciphertext down =
                    f.eval.mod_down(f.eval.rotate_ext(c, steps[i], gk));
                EXPECT_TRUE(same_bytes(down.c0, single.c0));
                EXPECT_TRUE(same_bytes(down.c1, single.c1));
            }
        }
        parallel::set_num_threads(0); // restore the environment default

        // A q-basis ciphertext is neither a QP operand nor ModDown input.
        EXPECT_THROW(f.eval.dot_plain({&c}, {&one}), ShapeMismatch);
        EXPECT_THROW(f.eval.mod_down(Ciphertext(c)), ShapeMismatch);
    }
}

} // namespace
} // namespace poseidon
