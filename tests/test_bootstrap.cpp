// End-to-end bootstrapping tests: ModRaise, CoeffToSlot, EvalMod,
// SlotToCoeff and the full refresh. Run at logN=10 to keep key
// material and runtime modest; tolerances reflect the approximate
// nature of EvalMod.

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.h"
#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "telemetry/metrics.h"

namespace poseidon {
namespace {

CkksParams
boot_params()
{
    CkksParams p;
    p.logN = 10;
    p.L = 24;
    // Keep q0/Delta small (2^5): the CoeffToSlot constants carry
    // Delta/q0 and their encoding error is amplified by q0/Delta at
    // the end of EvalMod.
    p.scaleBits = 40;
    p.firstPrimeBits = 45;
    p.specialPrimeBits = 50;
    return p;
}

/// Hybrid keyswitching: 3 digits of 8 primes and K = 8 special primes,
/// where a diagonal's special-prime residues carry the most weight.
CkksParams
hybrid_boot_params()
{
    CkksParams p = boot_params();
    p.dnum = 3;
    p.K = 8;
    return p;
}

struct BootFixture
{
    CkksContextPtr ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator eval;
    Bootstrapper boot;

    explicit BootFixture(const CkksParams &p)
        : ctx(make_ckks_context(p)),
          encoder(ctx),
          keygen(ctx),
          encryptor(ctx, keygen.make_public_key()),
          decryptor(ctx, keygen.secret_key()),
          eval(ctx),
          boot(ctx, encoder, keygen)
    {}

    // Heavyweight; each shape is shared across tests.
    static BootFixture& instance()
    {
        static BootFixture f(boot_params());
        return f;
    }

    static BootFixture& hybrid()
    {
        static BootFixture f(hybrid_boot_params());
        return f;
    }
};

std::vector<cdouble>
small_message(std::size_t n, u64 seed)
{
    Prng prng(seed);
    std::vector<cdouble> v(n);
    for (auto &x : v) {
        x = cdouble(prng.uniform_double() - 0.5,
                    prng.uniform_double() - 0.5);
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

TEST(Bootstrap, LevelsBudget)
{
    BootFixture &f = BootFixture::instance();
    EXPECT_EQ(f.boot.plan().levels(), 21u);
    EXPECT_GE(f.ctx->params().L, f.boot.plan().levels() + 2);
}

TEST(Bootstrap, ModRaisePreservesMessage)
{
    // Raising mod q0 to the full chain keeps the message (plus q0*I,
    // which decrypts away as long as we decrypt right after raising:
    // the I-term is killed by reducing mod q0 ... it is NOT, so instead
    // check that the decrypted coefficients match mod q0.
    BootFixture &f = BootFixture::instance();
    auto z = small_message(f.ctx->slots(), 1);
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    Ciphertext raised = f.boot.mod_raise(ct);
    EXPECT_EQ(raised.num_limbs(), f.ctx->params().L);
    EXPECT_EQ(raised.level(), f.ctx->top_level());

    // Decrypt both and compare coefficient-wise mod q0.
    Plaintext p0 = f.decryptor.decrypt(ct);
    Plaintext p1 = f.decryptor.decrypt(raised);
    RnsPoly a = p0.poly;
    a.to_coeff();
    RnsPoly b = p1.poly;
    b.to_coeff();
    std::size_t n = f.ctx->degree();
    for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(a.limb(0)[t], b.limb(0)[t]) << "coeff " << t;
    }
}

void
check_coeff_to_slot(BootFixture &f)
{
    // Slot j of lo/hi holds coefficient rev(j) / rev(j)+n of the
    // mod-raised plaintext over q0, rev reversing log2(n) bits.
    std::size_t ns = f.ctx->slots();
    auto z = small_message(ns, 4);
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    Ciphertext raised = f.boot.mod_raise(ct);

    RnsPoly t = f.decryptor.decrypt(raised).poly;
    t.to_coeff();
    const RnsBasis &basis = f.ctx->ring()->ct_basis(t.num_limbs());
    double q0 = static_cast<double>(f.ctx->ring()->prime(0));
    auto coeff_over_q0 = [&](std::size_t i) {
        std::vector<u64> res(t.num_limbs());
        for (std::size_t k = 0; k < res.size(); ++k) res[k] = t.limb(k)[i];
        return basis.compose_centered_double(res.data()) / q0;
    };

    auto [lo, hi] = f.boot.coeff_to_slot(raised, f.eval, ct.scale);
    EXPECT_EQ(lo.num_limbs(), f.ctx->params().L - 2);
    auto vlo = f.encoder.decode(f.decryptor.decrypt(lo));
    auto vhi = f.encoder.decode(f.decryptor.decrypt(hi));
    unsigned bits = log2_floor(ns);
    double errLo = 0, errHi = 0, maxI = 0;
    for (std::size_t j = 0; j < ns; ++j) {
        std::size_t i = bit_reverse(j, bits);
        double wantLo = coeff_over_q0(i), wantHi = coeff_over_q0(i + ns);
        errLo = std::max(errLo, std::abs(vlo[j] - cdouble(wantLo, 0)));
        errHi = std::max(errHi, std::abs(vhi[j] - cdouble(wantHi, 0)));
        maxI = std::max({maxI, std::abs(wantLo), std::abs(wantHi)});
    }
    EXPECT_GT(maxI, 1.0) << "the q0*I term should be visible";
    EXPECT_LT(errLo, 1e-6);
    EXPECT_LT(errHi, 1e-6);
}

TEST(Bootstrap, CoeffToSlotMatchesPlainTransform)
{
    check_coeff_to_slot(BootFixture::instance());
}

TEST(BootstrapHybrid, CoeffToSlotMatchesPlainTransform)
{
    check_coeff_to_slot(BootFixture::hybrid());
}

TEST(Bootstrap, OpCountsMatchPlan)
{
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry compiled out";
    BootFixture &f = BootFixture::instance();
    const BootstrapPlan &plan = f.boot.plan();
    std::size_t L = f.ctx->params().L;

    // CoeffToSlot: 5 + 4 butterfly layers of the 512-point inverse FFT
    // at the top two levels; SlotToCoeff: 4 + 5 layers of the forward
    // FFT on the two levels EvalMod leaves.
    ASSERT_EQ(plan.coeffToSlot.size(), 2u);
    ASSERT_EQ(plan.slotToCoeff.size(), 2u);
    const auto &a = plan.coeffToSlot[0], &b = plan.coeffToSlot[1];
    const auto &s = plan.slotToCoeff[0], &t = plan.slotToCoeff[1];
    EXPECT_EQ(a.diagonals, 32u);
    EXPECT_EQ(b.diagonals, 31u);
    EXPECT_EQ(s.diagonals, 31u);
    EXPECT_EQ(t.diagonals, 32u);
    EXPECT_EQ(a.limbs, L);
    EXPECT_EQ(b.limbs, L - 1);
    EXPECT_EQ(s.limbs, L - f.boot.plan().levels() + 2);
    EXPECT_EQ(t.limbs, L - f.boot.plan().levels() + 1);
    // Double hoisting: one ModDown per giant step and one for the
    // stage's sum, with every diagonal over the limbs + K primes of
    // the extended basis.
    std::size_t K = f.ctx->params().K;
    std::size_t bytes = 0;
    for (const auto *st : {&a, &b, &s, &t}) {
        EXPECT_EQ(st->babySteps + st->giantSteps, 10u);
        EXPECT_EQ(st->giantSteps, 3u);
        EXPECT_EQ(st->modDowns, st->giantSteps + 1);
        EXPECT_EQ(st->bytes, st->diagonals * (st->limbs + K) *
                                 f.ctx->degree() * sizeof(u64));
        bytes += st->bytes;
    }
    EXPECT_EQ(plan.table_bytes(), bytes);

    // Outside the transforms: CoeffToSlot's conjugation; per EvalMod
    // half, 6 Horner and 8 squaring relinearizations, one conjugation
    // and three scalar mults over 1 + 7 + 8 + 1 levels. Each of those
    // keyswitches pays its own ModDown. The recombination before
    // SlotToCoeff is a monomial product, not a plaintext mult.
    EXPECT_EQ(plan.evalMod.relinearizations, 2u * (6 + 8));
    EXPECT_EQ(plan.evalMod.conjugations, 2u);
    EXPECT_EQ(plan.evalMod.keyswitches(), 2u * (6 + 8 + 1));
    EXPECT_EQ(plan.evalMod.plainMults, 2u * 3);
    EXPECT_EQ(plan.evalMod.levels, 17u);
    EXPECT_EQ(plan.levels(), 2u + 17 + 2);
    EXPECT_EQ(plan.keyswitches(), 12u + 1 + 30);
    EXPECT_EQ(plan.mod_downs(), 16u + 1 + 30);
    EXPECT_EQ(plan.plain_mults(), 126u + 6);

    auto &reg = telemetry::MetricsRegistry::global();
    double ks0 = reg.counter_value("ckks.ops.keyswitch");
    double md0 = reg.counter_value("ckks.ops.mod_down");
    double pm0 = reg.counter_value("ckks.ops.mul_plain");
    Ciphertext ct = f.encryptor.encrypt(
        f.encoder.encode(small_message(f.ctx->slots(), 5), 1));
    f.boot.bootstrap(ct, f.eval);
    EXPECT_EQ(reg.counter_value("ckks.ops.keyswitch") - ks0,
              plan.keyswitches());
    EXPECT_EQ(reg.counter_value("ckks.ops.mod_down") - md0,
              plan.mod_downs());
    EXPECT_EQ(reg.counter_value("ckks.ops.mul_plain") - pm0,
              plan.plain_mults());
}

TEST(Bootstrap, PlanDependsOnlyOnTheShape)
{
    // The plan a Bootstrapper encodes is plan_bootstrap() of its shape,
    // classic and hybrid: 43 keyswitches, 47 ModDowns, 132 plain mults
    // and 21 levels at 512 slots and L = 24.
    for (BootFixture *f : {&BootFixture::instance(), &BootFixture::hybrid()}) {
        const CkksParams &p = f->ctx->params();
        BootstrapPlan plan =
            plan_bootstrap(f->ctx->slots(), p.L, p.K, f->ctx->degree());
        EXPECT_EQ(plan, f->boot.plan()) << "K=" << p.K;
        EXPECT_EQ(plan.keyswitches(), 43u);
        EXPECT_EQ(plan.mod_downs(), 47u);
        EXPECT_EQ(plan.plain_mults(), 132u);
        EXPECT_EQ(plan.levels(), 21u);
    }
    // At N = 2^16 the plan needs no encoding: 2^15 slots split 8 + 7
    // and 7 + 8 butterfly layers.
    BootstrapPlan big = plan_bootstrap(1 << 15, 57, 11, 1 << 16);
    ASSERT_EQ(big.coeffToSlot.size(), 2u);
    EXPECT_EQ(big.coeffToSlot[0].diagonals, 256u);
    EXPECT_EQ(big.coeffToSlot[1].diagonals, 255u);
    EXPECT_EQ(big.slotToCoeff[0].diagonals, 255u);
    EXPECT_EQ(big.slotToCoeff[1].diagonals, 256u);
    EXPECT_EQ(big.coeffToSlot[0].babySteps + big.coeffToSlot[0].giantSteps,
              15u + 15u);
    EXPECT_EQ(big.levels(), 21u);
}

void
check_slot_to_coeff(BootFixture &f)
{
    // Inverse of CoeffToSlot's layout: slot j of lo/hi holds
    // coefficient rev(j) / rev(j)+n of the message's encoding over
    // Delta. SlotToCoeff must turn that back into the message.
    std::size_t ns = f.ctx->slots();
    auto z = small_message(ns, 6);
    RnsPoly t = f.encoder.encode(z, 1).poly;
    t.to_coeff();
    u64 q0 = f.ctx->ring()->prime(0);
    double delta = f.ctx->params().scale();
    unsigned bits = log2_floor(ns);
    std::vector<cdouble> lo(ns), hi(ns);
    for (std::size_t j = 0; j < ns; ++j) {
        std::size_t i = bit_reverse(j, bits);
        lo[j] = static_cast<double>(centered(t.limb(0)[i], q0)) / delta;
        hi[j] = static_cast<double>(centered(t.limb(0)[i + ns], q0)) /
                delta;
    }

    std::size_t limbs =
        f.ctx->params().L - f.boot.plan().levels() + 2;
    Ciphertext clo = f.encryptor.encrypt(f.encoder.encode(lo, limbs));
    Ciphertext chi = f.encryptor.encrypt(f.encoder.encode(hi, limbs));
    Ciphertext out = f.boot.slot_to_coeff(clo, chi, f.eval);
    EXPECT_EQ(out.num_limbs(), limbs - 2);
    auto back = f.encoder.decode(f.decryptor.decrypt(out));
    EXPECT_LT(max_err(z, back), 1e-6);
}

TEST(Bootstrap, SlotToCoeffMatchesPlainTransform)
{
    check_slot_to_coeff(BootFixture::instance());
}

TEST(BootstrapHybrid, SlotToCoeffMatchesPlainTransform)
{
    check_slot_to_coeff(BootFixture::hybrid());
}

void
check_full_refresh(BootFixture &f)
{
    auto z = small_message(f.ctx->slots(), 2);
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    ASSERT_EQ(ct.num_limbs(), 1u);

    Ciphertext fresh = f.boot.bootstrap(ct, f.eval);
    EXPECT_GT(fresh.num_limbs(), ct.num_limbs())
        << "bootstrap must raise the level";

    // Measured 1.15e-5 (classic) and 1.41e-5 (hybrid); the bound
    // catches an EvalMod precision loss of a few times that.
    auto back = f.encoder.decode(f.decryptor.decrypt(fresh));
    EXPECT_LT(max_err(z, back), 5e-5);
}

TEST(Bootstrap, FullRefreshRecoversMessage)
{
    check_full_refresh(BootFixture::instance());
}

TEST(BootstrapHybrid, FullRefreshRecoversMessage)
{
    check_full_refresh(BootFixture::hybrid());
}

TEST(Bootstrap, EvalModSineCurvatureBound)
{
    // EvalMod approximates t mod q0 by q0/(2 pi) sin(2 pi t/q0), whose
    // cubic term leaves an error of q0/Delta * (2 pi)^2 x^3 / 6 on a
    // coefficient x*q0. The all-0.9 message is one coefficient of
    // 0.9*Delta: x = 0.9*Delta/q0, a term of 4.68e-3 at q0/Delta = 2^5.
    // The bound allows a quarter more plus the random-message error.
    BootFixture &f = BootFixture::instance();
    std::vector<cdouble> z(f.ctx->slots(), cdouble(0.9, 0.0));
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    Ciphertext fresh = f.boot.bootstrap(ct, f.eval);
    auto back = f.encoder.decode(f.decryptor.decrypt(fresh));

    double q0 = static_cast<double>(f.ctx->ring()->prime(0));
    double delta = f.ctx->params().scale();
    double x = 0.9 * delta / q0;
    double cubic = std::pow(2.0 * M_PI, 2) * x * x * x / 6.0 * q0 / delta;
    EXPECT_NEAR(cubic, 4.68e-3, 0.01e-3);
    EXPECT_LT(max_err(z, back), 1.25 * cubic + 5e-5);
}

TEST(Bootstrap, RefreshedCiphertextSupportsFurtherMultiplication)
{
    BootFixture &f = BootFixture::instance();
    KSwitchKey relin = f.keygen.make_relin_key();
    std::vector<cdouble> z(f.ctx->slots(), cdouble(0.25, 0.0));
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    // At one limb no multiplication is possible; bootstrap, then square.
    Ciphertext fresh = f.boot.bootstrap(ct, f.eval);
    ASSERT_GE(fresh.num_limbs(), 2u);
    Ciphertext sq = f.eval.rescale(f.eval.square(fresh, relin));
    auto back = f.encoder.decode(f.decryptor.decrypt(sq));
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(back[i].real(), 0.0625, 2e-2) << "slot " << i;
    }
}

TEST(Bootstrap, RejectsShortChain)
{
    CkksParams p = boot_params();
    p.L = 8; // far below plan().levels() + 2
    auto ctx = make_ckks_context(p);
    CkksEncoder enc(ctx);
    KeyGenerator kg(ctx);
    CkksEvaluator ev(ctx);
    Bootstrapper boot(ctx, enc, kg);
    CkksEncryptor encr(ctx, kg.make_public_key());
    auto z = small_message(ctx->slots(), 3);
    Ciphertext ct = encr.encrypt(enc.encode(z, 1));
    EXPECT_THROW(boot.bootstrap(ct, ev), poseidon::Error);
}


TEST(Bootstrap, RepeatedBootstrapSurvivesScaleDrift)
{
    // Regression test: the input scale of a second bootstrap has
    // drifted away from Delta through square+rescale chains; EvalMod
    // must normalize it or the double-angle squarings amplify the
    // deviation exponentially.
    BootFixture &f = BootFixture::instance();
    KSwitchKey relin = f.keygen.make_relin_key();
    std::vector<cdouble> z(f.ctx->slots(), cdouble(0.9, 0.0));
    Ciphertext ct = f.encryptor.encrypt(f.encoder.encode(z, 1));
    double expect = 0.9;

    ct = f.boot.bootstrap(ct, f.eval);
    while (ct.num_limbs() > 1) {
        ct = f.eval.square(ct, relin);
        f.eval.rescale_inplace(ct);
        expect *= expect;
    }
    ct = f.boot.bootstrap(ct, f.eval);
    ct = f.eval.square(ct, relin);
    f.eval.rescale_inplace(ct);
    expect *= expect;

    auto back = f.encoder.decode(f.decryptor.decrypt(ct));
    EXPECT_NEAR(back[0].real(), expect, 5e-2);
}

} // namespace
} // namespace poseidon
