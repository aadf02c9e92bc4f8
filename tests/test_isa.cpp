// Tests for the operator ISA: traces, statistics, and the basic-op ->
// operator compiler, including the operator-reuse matrix of Table I.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "ckks/bootstrap_plan.h"
#include "common/status.h"
#include "isa/compiler.h"
#include "telemetry/metrics.h"

namespace poseidon::isa {
namespace {

OpShape
small_shape()
{
    OpShape s;
    s.n = 4096;
    s.limbs = 8;
    s.K = 1;
    return s;
}

TEST(Trace, EmitAndTotals)
{
    Trace t;
    t.emit(OpKind::MA, 100, 0, BasicOp::HAdd);
    t.emit(OpKind::MM, 50, 0, BasicOp::HAdd);
    t.emit(OpKind::HBM_RD, 200, 0, BasicOp::HAdd);
    t.emit(OpKind::MA, 0, 0, BasicOp::HAdd); // zero elems: dropped
    EXPECT_EQ(t.size(), 3u);
    OpCounts c = t.totals();
    EXPECT_EQ(c[OpKind::MA], 100u);
    EXPECT_EQ(c[OpKind::MM], 50u);
    EXPECT_EQ(c.hbm_words(), 200u);
    EXPECT_EQ(c.compute_elems(), 150u);
}

TEST(Trace, RepeatAndAppend)
{
    Trace t;
    t.emit(OpKind::MA, 10, 0, BasicOp::HAdd);
    t.repeat(5);
    EXPECT_EQ(t.totals()[OpKind::MA], 50u);
    Trace u;
    u.emit(OpKind::MM, 7, 0, BasicOp::PMult);
    t.append(u);
    EXPECT_EQ(t.totals()[OpKind::MM], 7u);
    EXPECT_THROW(t.repeat(0), poseidon::Error);
}

/// FNV-1a and largest degree of `t`, walked from scratch.
std::pair<u64, u64>
walk(const Trace &t)
{
    u64 fp = kFingerprintBasis;
    u64 deg = 0;
    for (const Instr &in : t.instrs()) {
        for (u64 v : {static_cast<u64>(in.kind), in.elems, in.degree,
                      static_cast<u64>(in.tag)}) {
            fp = fingerprint_step(fp, v);
        }
        deg = std::max(deg, in.degree);
    }
    return {fp, deg};
}

TEST(Isa, TraceFingerprintIsIncremental)
{
    Trace t;
    EXPECT_EQ(t.fingerprint(), kFingerprintBasis);
    EXPECT_EQ(t.max_degree(), 0u);
    EXPECT_NO_THROW(t.validate());

    t.emit(OpKind::MA, 10, 0, BasicOp::HAdd);
    t.emit(OpKind::NTT, 4096, 4096, BasicOp::Rotation);
    EXPECT_EQ(walk(t), std::make_pair(t.fingerprint(), t.max_degree()));
    t.repeat(2);
    EXPECT_EQ(walk(t), std::make_pair(t.fingerprint(), t.max_degree()));
    EXPECT_NO_THROW(t.validate());

    // Instruction 5 is the first malformed one (an NTT of degree 100);
    // instruction 6 is malformed too.
    Trace u;
    u.emit(OpKind::MM, 5, 8192, BasicOp::PMult);
    u.emit(OpKind::NTT, 4096, 100, BasicOp::NttOnly);
    u.emit(OpKind::AUTO, 4096, 3, BasicOp::Rotation);
    t.append(u);
    t.append(t); // self-append doubles the trace
    EXPECT_EQ(t.size(), 14u);
    EXPECT_EQ(walk(t), std::make_pair(t.fingerprint(), t.max_degree()));
    EXPECT_EQ(t.max_degree(), 8192u);

    // Equal instruction sequences built different ways agree.
    Trace v;
    for (const Instr &in : t.instrs()) {
        v.emit(in.kind, in.elems, in.degree, in.tag);
    }
    EXPECT_EQ(v.fingerprint(), t.fingerprint());

    try {
        t.validate();
        ADD_FAILURE() << "malformed trace validated";
    } catch (const poseidon::InvalidArgument &e) {
        EXPECT_EQ(e.message(),
                  "Trace::validate: instr 5 (NTT) degree 100 is not a "
                  "power of two >= 2 [in.degree >= 2 && "
                  "is_pow2(in.degree)]");
    }
    Trace w;
    w.emit(OpKind::INTT, 8, 0, BasicOp::Other);
    try {
        w.validate();
        ADD_FAILURE() << "malformed trace validated";
    } catch (const poseidon::InvalidArgument &e) {
        EXPECT_EQ(e.message(),
                  "Trace::validate: instr 0 (INTT) degree 0 is not a "
                  "power of two >= 2 [in.degree >= 2 && "
                  "is_pow2(in.degree)]");
    }
}

TEST(Trace, TotalsByTag)
{
    Trace t;
    OpShape s = small_shape();
    emit_hadd(t, s);
    emit_pmult(t, s);
    auto byTag = t.totals_by_tag();
    EXPECT_TRUE(byTag.count(BasicOp::HAdd));
    EXPECT_TRUE(byTag.count(BasicOp::PMult));
    EXPECT_EQ(byTag[BasicOp::HAdd][OpKind::MA], 2 * s.limbs * s.n);
    EXPECT_EQ(byTag[BasicOp::PMult][OpKind::MM], 2 * s.limbs * s.n);
}

TEST(Compiler, TableIOperatorReuseMatrix)
{
    // Reproduce Table I: which operators each basic operation uses.
    OpShape s = small_shape();

    struct Row
    {
        BasicOp op;
        bool ma, mm, ntt, autom, sbt;
    };
    // Expected matrix (NTT column covers NTT or INTT).
    const Row expected[] = {
        {BasicOp::HAdd, true, false, false, false, false},
        {BasicOp::PMult, false, true, false, false, true},
        {BasicOp::CMult, true, true, true, false, true},
        {BasicOp::Rescale, true, true, true, false, true},
        {BasicOp::ModUp, false, true, true, false, true},
        {BasicOp::ModDown, true, true, true, false, true},
        {BasicOp::Keyswitch, true, true, true, false, true},
        {BasicOp::Rotation, true, true, true, true, true},
    };
    for (const auto &row : expected) {
        Trace t;
        switch (row.op) {
          case BasicOp::HAdd: emit_hadd(t, s); break;
          case BasicOp::PMult: emit_pmult(t, s); break;
          case BasicOp::CMult: emit_cmult(t, s); break;
          case BasicOp::Rescale: emit_rescale(t, s); break;
          case BasicOp::ModUp: emit_modup(t, s); break;
          case BasicOp::ModDown: emit_moddown(t, s); break;
          case BasicOp::Keyswitch: emit_keyswitch(t, s); break;
          case BasicOp::Rotation: emit_rotation(t, s); break;
          default: break;
        }
        bool ntt = t.uses(row.op, OpKind::NTT) ||
                   t.uses(row.op, OpKind::INTT);
        EXPECT_EQ(t.uses(row.op, OpKind::MA), row.ma)
            << to_string(row.op) << " MA";
        EXPECT_EQ(t.uses(row.op, OpKind::MM), row.mm)
            << to_string(row.op) << " MM";
        EXPECT_EQ(ntt, row.ntt) << to_string(row.op) << " NTT";
        EXPECT_EQ(t.uses(row.op, OpKind::AUTO), row.autom)
            << to_string(row.op) << " Auto";
        EXPECT_EQ(t.uses(row.op, OpKind::SBT), row.sbt)
            << to_string(row.op) << " SBT";
    }
}

TEST(Compiler, BootstrappingUsesAllOperators)
{
    Trace t;
    OpShape top = small_shape();
    top.limbs = 24;
    emit_bootstrap(t, top, top.n / 2);
    for (OpKind k : {OpKind::MA, OpKind::MM, OpKind::NTT, OpKind::INTT,
                     OpKind::AUTO, OpKind::SBT}) {
        EXPECT_TRUE(t.uses(BasicOp::Bootstrapping, k))
            << "bootstrap missing " << to_string(k);
    }
}

TEST(Compiler, KeyswitchKeyTrafficDominates)
{
    // The switching key stream (digits * 2 * ext * N words) must be
    // the dominant HBM traffic of a standalone keyswitch.
    OpShape s = small_shape();
    s.limbs = 40;
    Trace t;
    emit_keyswitch(t, s);
    u64 keyWords = s.digits() * 2 * s.ext_limbs() * s.n;
    u64 totalRead = t.totals()[OpKind::HBM_RD];
    EXPECT_GE(totalRead, keyWords);
    EXPECT_GT(static_cast<double>(keyWords) / totalRead, 0.9);
}

TEST(Compiler, DigitGroupingReducesKeyTraffic)
{
    OpShape full = small_shape();
    full.limbs = 40;
    OpShape grouped = full;
    grouped.dnum = 4;
    grouped.K = 10; // alpha special primes
    Trace a, b;
    emit_keyswitch(a, full);
    emit_keyswitch(b, grouped);
    EXPECT_LT(b.totals()[OpKind::HBM_RD], a.totals()[OpKind::HBM_RD]);
}

TEST(Compiler, HAddTrafficAndCompute)
{
    OpShape s = small_shape();
    Trace t;
    emit_hadd(t, s);
    OpCounts c = t.totals();
    EXPECT_EQ(c[OpKind::HBM_RD], 4 * s.limbs * s.n);
    EXPECT_EQ(c[OpKind::HBM_WR], 2 * s.limbs * s.n);
    EXPECT_EQ(c[OpKind::MA], 2 * s.limbs * s.n);
    EXPECT_EQ(c[OpKind::MM], 0u);
}

TEST(Compiler, RescaleRequiresTwoLimbs)
{
    OpShape s = small_shape();
    s.limbs = 1;
    Trace t;
    EXPECT_THROW(emit_rescale(t, s), poseidon::Error);
}

TEST(Compiler, RescaleIsOneModDown)
{
    // The library rescales by the ModDown by q_l: a ModDown of the pair
    // by one prime onto limbs - 1 primes, traffic included.
    OpShape s = small_shape();
    s.dnum = 3;
    s.K = 4;
    OpShape tail = s;
    tail.limbs = s.limbs - 1;
    tail.K = 1;
    Trace rescale, modDown;
    emit_rescale(rescale, s);
    emit_moddown(modDown, tail);
    OpCounts r = rescale.totals();
    OpCounts m = modDown.totals();
    for (OpKind k : {OpKind::INTT, OpKind::NTT, OpKind::MM, OpKind::SBT,
                     OpKind::MA, OpKind::HBM_RD, OpKind::HBM_WR}) {
        EXPECT_EQ(r[k], m[k]) << to_string(k);
    }
    EXPECT_EQ(r[OpKind::INTT], 2 * s.n);
    EXPECT_EQ(r[OpKind::NTT], 2 * (s.limbs - 1) * s.n);
}

TEST(Compiler, LinearTransformFollowsItsStage)
{
    // One ModUp shared by the baby steps and one per giant-step
    // keyswitch, one key product per baby and giant step, and the
    // stage's ModDowns, for a dense 128-diagonal product and for a 3x3
    // kernel's nine taps in one hoisted group.
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry compiled out";
    auto &reg = telemetry::MetricsRegistry::global();
    OpShape s = small_shape();
    s.dnum = 4;
    s.K = 2;
    BootstrapPlan::Stage dense = bsgs_stage(0, 127, 1, s.limbs, s.K, s.n);
    BootstrapPlan::Stage taps = bsgs_stage(0, 8, 1, s.limbs, s.K, s.n, 9);
    EXPECT_EQ(dense.diagonals, 128u);
    EXPECT_EQ(dense.babySteps, 15u);
    EXPECT_EQ(dense.giantSteps, 7u);
    EXPECT_EQ(taps.diagonals, 9u);
    EXPECT_EQ(taps.babySteps, 8u);
    EXPECT_EQ(taps.giantSteps, 0u);
    EXPECT_EQ(taps.modDowns, 1u);
    for (const BootstrapPlan::Stage *st : {&dense, &taps}) {
        double up0 = reg.counter_value("isa.ops.mod_up");
        double kp0 = reg.counter_value("isa.ops.key_product");
        double md0 = reg.counter_value("isa.ops.mod_down");
        Trace t;
        emit_linear_transform(t, s, *st);
        SCOPED_TRACE(testing::Message() << st->diagonals << " diagonals");
        EXPECT_EQ(reg.counter_value("isa.ops.mod_up") - up0,
                  1 + st->giantSteps);
        EXPECT_EQ(reg.counter_value("isa.ops.key_product") - kp0,
                  st->babySteps + st->giantSteps);
        EXPECT_EQ(reg.counter_value("isa.ops.mod_down") - md0,
                  st->modDowns);
    }
    // A stage runs at its own level.
    Trace t;
    OpShape other = s;
    other.limbs = s.limbs - 1;
    EXPECT_THROW(emit_linear_transform(t, other, dense), poseidon::Error);
}

TEST(Compiler, RotationIncludesAutomorphismAndKeyswitch)
{
    OpShape s = small_shape();
    Trace t;
    emit_rotation(t, s);
    OpCounts c = t.totals();
    EXPECT_EQ(c[OpKind::AUTO], 2 * s.limbs * s.n);
    EXPECT_GT(c[OpKind::NTT], 0u);  // from the embedded keyswitch
    EXPECT_GT(c[OpKind::INTT], 0u);
}

TEST(Compiler, BootstrapScalesWithSlots)
{
    OpShape top = small_shape();
    top.limbs = 24;
    Trace tb, tt;
    emit_bootstrap(tb, top, top.n / 2);
    emit_bootstrap(tt, top, 16); // thin bootstrap
    EXPECT_GT(tb.totals().compute_elems(), tt.totals().compute_elems());
}

TEST(Compiler, BootstrapRejectsShortChain)
{
    // The plan spends 21 levels, so a bootstrap needs 23 limbs.
    OpShape top = small_shape();
    top.limbs = 22;
    Trace t;
    EXPECT_THROW(emit_bootstrap(t, top, top.n / 2), poseidon::Error);
    top.limbs = 23;
    EXPECT_NO_THROW(emit_bootstrap(t, top, top.n / 2));
}

TEST(Compiler, BootstrapFollowsThePlan)
{
    // At hostbench's bootstrap shape (logN=10, L=24), classic and
    // hybrid: one ModUp per keyswitch plus one hoisted ModUp per
    // transform stage, one key product per keyswitch plus one per
    // hoisted baby step, and exactly the plan's ModDowns plus one
    // rescale (a ModDown by q_l) per EvalMod scalar mult.
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry compiled out";
    auto &reg = telemetry::MetricsRegistry::global();
    for (u64 dnum : {u64(0), u64(3)}) {
        OpShape top;
        top.n = 1024;
        top.limbs = 24;
        top.dnum = dnum;
        top.K = dnum == 0 ? 1 : 8;
        BootstrapPlan plan =
            plan_bootstrap(top.n / 2, top.limbs, top.K, top.n);
        std::size_t stages = 0, babySteps = 0;
        for (const auto *t : {&plan.coeffToSlot, &plan.slotToCoeff}) {
            for (const auto &st : *t) {
                ++stages;
                babySteps += st.babySteps;
            }
        }
        double up0 = reg.counter_value("isa.ops.mod_up");
        double kp0 = reg.counter_value("isa.ops.key_product");
        double md0 = reg.counter_value("isa.ops.mod_down");
        Trace t;
        emit_bootstrap(t, top, top.n / 2);
        SCOPED_TRACE(testing::Message() << "dnum " << dnum);
        EXPECT_EQ(plan.keyswitches(), 43u);
        EXPECT_EQ(plan.mod_downs(), 47u);
        EXPECT_EQ(reg.counter_value("isa.ops.key_product") - kp0,
                  plan.keyswitches() + babySteps);
        EXPECT_EQ(reg.counter_value("isa.ops.mod_up") - up0,
                  plan.keyswitches() + stages);
        EXPECT_EQ(plan.evalMod.plainMults, 6u);
        EXPECT_EQ(reg.counter_value("isa.ops.mod_down") - md0,
                  plan.mod_downs() + plan.evalMod.plainMults);
        EXPECT_EQ(plan.mod_downs() + plan.evalMod.plainMults, 53u);
    }
}

/// Limb transforms (NTT + INTT) in `t`.
u64
transforms(const Trace &t, u64 n)
{
    OpCounts c = t.totals();
    return (c[OpKind::NTT] + c[OpKind::INTT]) / n;
}

TEST(Compiler, KeyswitchTransformsMatchTheEvaluator)
{
    // The evaluator's counts at N=2^13: ModUp runs `limbs` INTTs and
    // digits*ext - limbs NTTs, ModDown by P 2K INTTs and 2*limbs NTTs.
    OpShape s;
    s.n = u64(1) << 13;
    s.limbs = 12;
    s.dnum = 3;
    s.K = 4;
    Trace hybrid;
    emit_keyswitch(hybrid, s);
    EXPECT_EQ(transforms(hybrid, s.n), 80u);

    OpShape classic = s;
    classic.dnum = 0;
    classic.K = 1;
    Trace c;
    emit_keyswitch(c, classic);
    EXPECT_EQ(transforms(c, s.n), 182u);

    // A rotation at 11 limbs of the hybrid chain: three digits of at
    // most four primes.
    s.limbs = 11;
    Trace r;
    emit_rotation(r, s);
    EXPECT_EQ(transforms(r, s.n), 75u);
}

TEST(Compiler, ClusterRequestTraceStaysShort)
{
    // hostbench's cluster request (CMult + rotation at logN=13 and 8,
    // 12 or 16 limbs) is replayed by every simulated job attempt; its
    // instruction count bounds the simulator's per-job cost. It must
    // stay within the 39 (hybrid) and 37 (classic) instructions it had
    // before the keyswitching emitters shared their primitives.
    for (u64 dnum : {u64(3), u64(0)}) {
        for (u64 limbs : {8, 12, 16}) {
            OpShape s;
            s.n = u64(1) << 13;
            s.limbs = limbs;
            s.dnum = dnum;
            s.K = dnum == 0 ? 1 : (limbs + dnum - 1) / dnum;
            Trace t;
            emit_cmult(t, s);
            emit_rotation(t, s);
            EXPECT_LE(t.size(), dnum == 0 ? 37u : 39u)
                << "dnum " << dnum << ", " << limbs << " limbs";
        }
    }
}

} // namespace
} // namespace poseidon::isa
