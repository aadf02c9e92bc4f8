// Tests for the hardware performance, energy and resource models.

#include <gtest/gtest.h>

#include "common/status.h"
#include "hw/energy.h"
#include "hw/resource.h"
#include "hw/sim.h"
#include "isa/compiler.h"

namespace poseidon::hw {
namespace {

using isa::BasicOp;
using isa::OpKind;
using isa::OpShape;
using isa::Trace;

OpShape
paperish_shape()
{
    OpShape s;
    s.n = u64(1) << 16;
    s.limbs = 44;
    s.K = 1;
    return s;
}

TEST(Sim, ElementwiseCycleModel)
{
    PoseidonSim sim;
    isa::Instr ma{OpKind::MA, 512 * 100, 0, BasicOp::HAdd};
    EXPECT_NEAR(sim.compute_cycles(ma), 100 + 8, 1e-9);
    isa::Instr mm{OpKind::MM, 512 * 100, 0, BasicOp::PMult};
    EXPECT_NEAR(sim.compute_cycles(mm), 100 + 24, 1e-9);
    isa::Instr sbt{OpKind::SBT, 512 * 100, 0, BasicOp::PMult};
    EXPECT_EQ(sim.compute_cycles(sbt), 0.0); // fused
}

TEST(Sim, NttCycleModelAtPaperRadix)
{
    PoseidonSim sim; // k = 3
    // N = 2^16: ceil(16/3) = 6 passes of 128 cycles each + fill.
    EXPECT_NEAR(sim.ntt_poly_cycles(u64(1) << 16), 6 * 128 + 64, 1e-9);
    // N = 4096: 4 passes of 8 cycles (paper Table III example).
    EXPECT_NEAR(sim.ntt_poly_cycles(4096), 4 * 8 + 64, 1e-9);
}

TEST(Sim, NttTimeMinimalAtK3)
{
    // Fig. 10 bottom-right: per-NTT time has its optimum at k = 3.
    std::map<unsigned, double> t;
    for (unsigned k = 1; k <= 6; ++k) {
        HwConfig cfg;
        cfg.nttRadixLog2 = k;
        PoseidonSim sim(cfg);
        t[k] = sim.ntt_poly_cycles(u64(1) << 16);
    }
    for (unsigned k = 1; k <= 6; ++k) {
        EXPECT_GE(t[k], t[3]) << "k=" << k;
    }
    EXPECT_GT(t[1], t[3]);
    EXPECT_GT(t[6], t[3]);
}

TEST(Sim, HFAutoLatencyMatchesTableVIII)
{
    PoseidonSim sim;
    // Paper Table VIII: 4 * N / C = 512 cycles at N = 2^16, C = 512.
    EXPECT_NEAR(sim.auto_poly_cycles(u64(1) << 16), 512 + 16, 1e-9);
    HwConfig naive;
    naive.hfauto = false;
    PoseidonSim simNaive(naive);
    EXPECT_NEAR(simNaive.auto_poly_cycles(u64(1) << 16), 65536, 1e-9);
}

TEST(Sim, HAddIsBandwidthBound)
{
    PoseidonSim sim;
    Trace t;
    OpShape s = paperish_shape();
    isa::emit_hadd(t, s);
    SimResult r = sim.run(t);
    EXPECT_GT(r.memCycles, r.computeCycles * 3);
    EXPECT_GT(r.bandwidth_utilization(sim.config()), 0.9);
}

TEST(Sim, RescaleHasLowBandwidthUtilization)
{
    PoseidonSim sim;
    Trace t;
    isa::emit_rescale(t, paperish_shape());
    SimResult r = sim.run(t);
    EXPECT_LT(r.bandwidth_utilization(sim.config()), 0.55);
}

TEST(Sim, KeyswitchTimeScale)
{
    // The paper's keyswitch runs at a few hundred ops/s at N=2^16,
    // L=44. The model must land in the single-digit-millisecond range.
    PoseidonSim sim;
    Trace t;
    isa::emit_keyswitch(t, paperish_shape());
    SimResult r = sim.run(t);
    EXPECT_GT(r.seconds, 0.5e-3);
    EXPECT_LT(r.seconds, 30e-3);
}

TEST(Sim, LaneScalingImprovesButSaturates)
{
    // Fig. 11: performance improves with lanes but with diminishing
    // returns once bandwidth dominates.
    Trace t;
    OpShape s = paperish_shape();
    isa::emit_cmult(t, s);
    double prev = 1e300;
    std::map<std::size_t, double> times;
    for (std::size_t lanes : {64, 128, 256, 512}) {
        HwConfig cfg;
        cfg.lanes = lanes;
        PoseidonSim sim(cfg);
        double sec = sim.run(t).seconds;
        EXPECT_LT(sec, prev) << lanes;
        times[lanes] = sec;
        prev = sec;
    }
    double gain1 = times[64] / times[128];
    double gain3 = times[256] / times[512];
    EXPECT_GT(gain1, gain3); // diminishing returns
}

TEST(Sim, TagAttribution)
{
    PoseidonSim sim;
    Trace t;
    OpShape s = paperish_shape();
    isa::emit_hadd(t, s);
    isa::emit_rotation(t, s);
    SimResult r = sim.run(t);
    ASSERT_TRUE(r.tagSeconds.contains(BasicOp::HAdd));
    ASSERT_TRUE(r.tagSeconds.contains(BasicOp::Rotation));
    EXPECT_GT(r.tagSeconds[BasicOp::Rotation],
              r.tagSeconds[BasicOp::HAdd]);
    double sum = 0;
    for (auto [tag, sec] : r.tagSeconds) sum += sec;
    EXPECT_NEAR(sum, r.seconds, 1e-12);
}

TEST(Energy, MemoryDominatesKeyswitch)
{
    // Fig. 12: memory access takes most of the energy.
    HwConfig cfg;
    PoseidonSim sim(cfg);
    EnergyModel em(cfg);
    Trace t;
    isa::emit_keyswitch(t, paperish_shape());
    SimResult r = sim.run(t);
    EnergyBreakdown e = em.eval(t, r);
    double compute = e.ma + e.mm + e.ntt + e.autom + e.sbt;
    EXPECT_GT(e.memory, compute);
    EXPECT_GT(e.total(), 0.0);
    EXPECT_GT(e.edp(r.seconds), 0.0);
}

TEST(Energy, MmAndNttDominateComputeShare)
{
    HwConfig cfg;
    PoseidonSim sim(cfg);
    EnergyModel em(cfg);
    Trace t;
    isa::emit_cmult(t, paperish_shape());
    EnergyBreakdown e = em.eval(t, sim.run(t));
    EXPECT_GT(e.mm + e.ntt, e.ma * 5);
    EXPECT_GT(e.mm + e.ntt, e.autom * 5);
}

TEST(Resource, NttResourceUShapeMinAtK3)
{
    ResourceModel rm;
    std::map<unsigned, CoreResources> r;
    for (unsigned k = 1; k <= 6; ++k) r[k] = rm.ntt_cores_at(k);
    for (unsigned k = 1; k <= 6; ++k) {
        EXPECT_GE(r[k].lut, r[3].lut) << "k=" << k;
        EXPECT_GE(r[k].dsp, r[3].dsp) << "k=" << k;
        EXPECT_GE(r[k].ff, r[3].ff) << "k=" << k;
    }
    EXPECT_GT(r[1].lut, r[3].lut);
    EXPECT_GT(r[6].lut, r[3].lut);
}

TEST(Resource, TableVIIIAutoVsHFAuto)
{
    CoreResources naive = ResourceModel::auto_single(false, 512);
    CoreResources hf = ResourceModel::auto_single(true, 512);
    // HFAuto trades resources for latency (Table VIII).
    EXPECT_GT(hf.lut, naive.lut);
    EXPECT_GT(hf.ff, naive.ff);
    EXPECT_GT(hf.bram, naive.bram);
    u64 latNaive = ResourceModel::auto_latency_cycles(65536, false, 512);
    u64 latHf = ResourceModel::auto_latency_cycles(65536, true, 512);
    EXPECT_EQ(latNaive, 65536u);
    EXPECT_EQ(latHf, 512u);
}

TEST(Resource, TotalsFitOnU280)
{
    ResourceModel rm;
    CoreResources total = rm.total();
    DeviceCapacity cap;
    EXPECT_LT(total.dsp, cap.dsp);
    EXPECT_LT(total.lut, cap.lut);
    EXPECT_LT(total.ff, cap.ff);
    EXPECT_LT(total.bram, cap.bram);
    EXPECT_LT(total.uram, cap.uram);
    // But the design must be substantial: >10% of the device.
    EXPECT_GT(total.dsp, cap.dsp / 10);
    EXPECT_GT(total.lut, cap.lut / 10);
}

TEST(Resource, RowsSumToTotal)
{
    ResourceModel rm;
    auto rows = rm.table_rows();
    ASSERT_EQ(rows.size(), 6u);
    CoreResources sum{"sum", 0, 0, 0, 0};
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) sum += rows[i];
    // Total additionally includes the scratchpad (URAM).
    EXPECT_EQ(rows.back().ff, sum.ff);
    EXPECT_EQ(rows.back().dsp, sum.dsp);
    EXPECT_EQ(rows.back().lut, sum.lut);
    EXPECT_EQ(rows.back().bram, sum.bram);
    EXPECT_GT(rows.back().uram, sum.uram);
}


TEST(Sim, ScratchpadSpillInflatesMemoryTime)
{
    Trace t;
    OpShape s = paperish_shape();
    isa::emit_hadd(t, s); // memory-bound: spill visible in total time
    HwConfig big;
    big.scratchpadMB = 32.0;
    HwConfig tiny;
    tiny.scratchpadMB = 1.0;
    double tBig = PoseidonSim(big).run(t).seconds;
    double tTiny = PoseidonSim(tiny).run(t).seconds;
    EXPECT_GT(tTiny, tBig * 1.5);
    // At the paper's 8.6 MB there is no spill for N=2^16 tiles.
    HwConfig paper;
    double req = paper.scratchpadTiles * 65536.0 * paper.wordBytes;
    EXPECT_LT(req, paper.scratchpadMB * 1024 * 1024);
}

TEST(Sim, RejectsBadConfig)
{
    HwConfig cfg;
    cfg.nttRadixLog2 = 9;
    EXPECT_THROW(PoseidonSim{cfg}, poseidon::Error);
}

} // namespace
} // namespace poseidon::hw
