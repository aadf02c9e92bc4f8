// Tests for the benchmark workload generators and the published-number
// baselines.

#include <gtest/gtest.h>

#include <utility>

#include "common/status.h"
#include "baselines/published.h"
#include "hw/sim.h"
#include "workloads/workloads.h"

namespace poseidon {
namespace {

using isa::BasicOp;
using isa::OpKind;

TEST(Workloads, FourPaperBenchmarks)
{
    auto all = workloads::paper_benchmarks();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "LR");
    EXPECT_EQ(all[1].name, "LSTM");
    EXPECT_EQ(all[2].name, "ResNet-20");
    EXPECT_EQ(all[3].name, "Packed Bootstrapping");
    for (const auto &w : all) {
        EXPECT_FALSE(w.trace.empty()) << w.name;
        EXPECT_FALSE(w.description.empty()) << w.name;
        EXPECT_GT(w.bootstrapCount, 0u) << w.name;
    }
}

TEST(Workloads, WorkloadNamesMatchPaperBenchmarks)
{
    auto names = workloads::workload_names();
    auto all = workloads::paper_benchmarks();
    ASSERT_EQ(names.size(), all.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], all[i].name);
    }
}

TEST(Workloads, FindWorkloadAcceptsForgivingSpellings)
{
    const std::pair<const char*, const char*> cases[] = {
        {"lr", "LR"},
        {"HELR", "LR"},
        {"lstm", "LSTM"},
        {"LSTM", "LSTM"},
        {"ResNet-20", "ResNet-20"},
        {"resnet-20", "ResNet-20"},
        {"ResNet20", "ResNet-20"},
        {"resnet", "ResNet-20"},
        {"packed_bootstrapping", "Packed Bootstrapping"},
        {"packed bootstrapping", "Packed Bootstrapping"},
        {"bootstrapping", "Packed Bootstrapping"},
        {"Bootstrap", "Packed Bootstrapping"},
    };
    for (const auto &[spelling, name] : cases) {
        EXPECT_EQ(workloads::find_workload(spelling).name, name) << spelling;
    }
    EXPECT_THROW(workloads::find_workload("quicksort"),
                 poseidon::InvalidArgument);
    // Every canonical name round-trips through find_workload.
    for (const auto &name : workloads::workload_names()) {
        EXPECT_EQ(workloads::find_workload(name).name, name);
    }
}

TEST(Workloads, FindWorkloadUnknownNameListsKnownOnes)
{
    try {
        workloads::find_workload("no-such-workload");
        FAIL() << "expected InvalidArgument";
    } catch (const poseidon::InvalidArgument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-workload"), std::string::npos);
        for (const auto &name : workloads::workload_names()) {
            EXPECT_NE(msg.find(name), std::string::npos) << name;
        }
    }
}

TEST(Workloads, FindWorkloadSuggestsNearMisses)
{
    auto message_for = [](const std::string &name) {
        try {
            workloads::find_workload(name);
        } catch (const poseidon::InvalidArgument &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(message_for("lstn").find("did you mean \"LSTM\"?"),
              std::string::npos);
    EXPECT_NE(message_for("resnet-21").find("did you mean \"ResNet-20\"?"),
              std::string::npos);
    EXPECT_NE(message_for("bootstraping")
                  .find("did you mean \"Packed Bootstrapping\"?"),
              std::string::npos);
    // Nothing plausibly close: no suggestion, just the known list.
    EXPECT_EQ(message_for("quicksort").find("did you mean"),
              std::string::npos);
}

/// Instructions of `t` tagged `tag`.
std::size_t
tagged(const isa::Trace &t, BasicOp tag)
{
    std::size_t n = 0;
    for (const isa::Instr &in : t.instrs()) n += in.tag == tag;
    return n;
}

TEST(Workloads, LrShape)
{
    isa::OpShape top = workloads::paper_shape();
    auto lr = workloads::make_lr(top);
    EXPECT_EQ(lr.bootstrapCount, 2u);
    EXPECT_EQ(lr.reportDivisor, 10u);
    // 12 rotations and 2 fused CMult + rescales per iteration, 10
    // iterations at 38 limbs, and 2 bootstraps from the top.
    isa::OpShape s = top;
    s.limbs = 38;
    isa::Trace rot, mul, boot;
    isa::emit_rotation(rot, s);
    isa::emit_cmult_rescale(mul, s);
    isa::emit_bootstrap(boot, top, top.n / 2);
    EXPECT_EQ(tagged(lr.trace, BasicOp::Rotation), 120 * rot.size());
    EXPECT_EQ(tagged(lr.trace, BasicOp::CMult), 20 * mul.size());
    EXPECT_EQ(tagged(lr.trace, BasicOp::Bootstrapping), 2 * boot.size());
    EXPECT_EQ(tagged(lr.trace, BasicOp::Rescale), 0u);
}

TEST(Workloads, LstmIsRotationHeavy)
{
    auto lstm = workloads::make_lstm(workloads::paper_shape());
    EXPECT_EQ(lstm.bootstrapCount, 50u);
    // Two dense 128x128 products per step, each 15 hoisted baby steps
    // and 7 giant-step rotations, one automorphism each.
    std::size_t autos = 0;
    for (const isa::Instr &in : lstm.trace.instrs()) {
        autos += in.tag == BasicOp::Rotation && in.kind == OpKind::AUTO;
    }
    EXPECT_EQ(autos, 50u * 2 * (15 + 7));
}

TEST(Workloads, KeyswitchAndCMultDominateBenchmarkTime)
{
    // Fig. 8's qualitative claim: Keyswitch-bearing ops (Rotation,
    // CMult) plus bootstrapping dominate benchmark execution time.
    hw::PoseidonSim sim;
    auto lr = workloads::make_lr(workloads::paper_shape());
    auto r = sim.run(lr.trace);
    double ksHeavy = 0, rest = 0;
    for (auto [tag, sec] : r.tagSeconds) {
        if (tag == BasicOp::Rotation || tag == BasicOp::CMult ||
            tag == BasicOp::Bootstrapping || tag == BasicOp::Keyswitch) {
            ksHeavy += sec;
        } else {
            rest += sec;
        }
    }
    EXPECT_GT(ksHeavy, rest * 3);
}

TEST(Workloads, BootstrappingTraceUsesEveryOperator)
{
    auto boot = workloads::make_packed_bootstrapping(
        workloads::paper_shape());
    for (OpKind k : {OpKind::MA, OpKind::MM, OpKind::NTT, OpKind::AUTO,
                     OpKind::SBT, OpKind::HBM_RD, OpKind::HBM_WR}) {
        EXPECT_GT(boot.trace.totals()[k], 0u) << isa::to_string(k);
    }
}

TEST(Published, ComparatorSpecs)
{
    auto specs = baselines::comparator_specs();
    EXPECT_GE(specs.size(), 8u);
    auto poseidon = baselines::spec("Poseidon");
    EXPECT_EQ(poseidon.platform, "FPGA (Alveo U280)");
    EXPECT_NEAR(poseidon.offchipGBps, 460.0, 1e-9);
    EXPECT_NEAR(poseidon.scratchpadMB, 8.6, 1e-9);
    EXPECT_THROW(baselines::spec("NoSuchSystem"), poseidon::Error);
}

TEST(Published, BenchTimesAnchors)
{
    auto p = baselines::bench_times("Poseidon");
    EXPECT_NEAR(p.lr, 72.98, 1e-9);
    EXPECT_NEAR(p.bootstrapping, 127.45, 1e-9);
    auto gpu = baselines::bench_times("over100x");
    // Abstract claim: up to 10.6x over the GPU on a benchmark.
    EXPECT_NEAR(gpu.lr / p.lr, 10.6, 0.1);
    auto f1 = baselines::bench_times("F1+");
    EXPECT_NEAR(f1.lr / p.lr, 8.7, 0.1);
}

TEST(Published, RatesAndResources)
{
    auto gpu = baselines::gpu_over100x_rates();
    EXPECT_GT(gpu.pmult, gpu.cmult); // PMult is much cheaper
    auto heax = baselines::heax_rates();
    EXPECT_GT(heax.pmult, 0);
    auto fpga = baselines::prior_fpga_resources();
    EXPECT_EQ(fpga.size(), 2u);
}

} // namespace
} // namespace poseidon
