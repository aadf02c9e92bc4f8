// Tests for the bottleneck-attribution profiler (hw/profiler) and the
// bench-regression diff engine (telemetry/bench_diff).
//
// The load-bearing invariant is cycle conservation: for every paper
// workload, the profiler's attributed cycles — accumulated with the
// simulator's own segment expression in the simulator's own order —
// must equal SimResult.cycles bit-exactly, and per-tag attributed
// seconds must equal SimResult.tagSeconds bit-exactly. Everything
// else (occupancies, roofline, verdicts, JSON) is checked on top.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/status.h"
#include "hw/profiler.h"
#include "hw/sim.h"
#include "isa/compiler.h"
#include "telemetry/bench_diff.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "workloads/workloads.h"

namespace poseidon::hw {
namespace {

using isa::BasicOp;
using isa::OpKind;
using telemetry::Json;

// ------------------------------------------------ cycle conservation

TEST(Profiler, ConservesCyclesBitExactlyOnEveryPaperWorkload)
{
    PoseidonSim sim;
    for (const auto &wl : workloads::paper_benchmarks()) {
        SimTimeline tl;
        SimResult r = sim.run(wl.trace, &tl);
        ProfileReport rep = profile(tl, r, sim.config(), wl.name);

        // Attributed total == SimResult.cycles, same doubles.
        EXPECT_EQ(rep.total.cycles, r.cycles) << wl.name;

        // Per-tag attributed seconds == SimResult.tagSeconds, same
        // doubles: the profiler mirrors the simulator's segSeconds
        // accumulation exactly.
        ASSERT_EQ(rep.tags.size(), r.tagSeconds.size()) << wl.name;
        double clockHz = sim.config().clockGHz * 1e9;
        for (const TagProfile &tp : rep.tags) {
            ASSERT_TRUE(r.tagSeconds.contains(tp.tag))
                << isa::to_string(tp.tag);
            EXPECT_EQ(tp.b.seconds, r.tagSeconds[tp.tag])
                << wl.name << "/" << isa::to_string(tp.tag);
            // Per-tag cycles equal tagSeconds * clock up to the
            // division round-trip (the seconds check above is the
            // bit-exact one).
            EXPECT_NEAR(tp.b.cycles, r.tagSeconds[tp.tag] * clockHz,
                        1e-9 * tp.b.cycles + 1e-9)
                << wl.name << "/" << isa::to_string(tp.tag);
        }

        // The three exposure buckets partition the attributed time.
        for (const TagProfile &tp : rep.tags) {
            double sum = tp.b.computeExposed + tp.b.memExposed +
                         tp.b.overlapped;
            EXPECT_NEAR(sum, tp.b.cycles, 1e-9 * tp.b.cycles + 1e-9)
                << wl.name << "/" << isa::to_string(tp.tag);
            EXPECT_GE(tp.b.computeExposed, 0.0);
            EXPECT_GE(tp.b.memExposed, 0.0);
            EXPECT_GE(tp.b.overlapped, 0.0);
        }

        // kindCycles rides along verbatim.
        for (int k = 0; k < 8; ++k) {
            EXPECT_EQ(rep.kindCycles[static_cast<std::size_t>(k)],
                      r.kindCycles[static_cast<std::size_t>(k)])
                << wl.name;
        }
    }
}

TEST(Profiler, OccupanciesAndSharesAreWellFormed)
{
    PoseidonSim sim;
    for (const auto &wl : workloads::paper_benchmarks()) {
        SimTimeline tl;
        SimResult r = sim.run(wl.trace, &tl);
        ProfileReport rep = profile(tl, r, sim.config(), wl.name);
        auto in01 = [&](double v, const char *what) {
            EXPECT_GE(v, 0.0) << wl.name << " " << what;
            EXPECT_LE(v, 1.0 + 1e-12) << wl.name << " " << what;
        };
        for (const TagProfile &tp : rep.tags) {
            in01(tp.b.lane_occupancy(sim.config()), "lane occ");
            in01(tp.b.ntt_occupancy(), "ntt occ");
            in01(tp.b.auto_occupancy(), "auto occ");
            in01(tp.b.spill_share(), "spill share");
            in01(tp.b.retry_share(), "retry share");
            in01(tp.b.compute_exposed_share() +
                     tp.b.mem_exposed_share() +
                     tp.b.overlapped_share(),
                 "share sum");
            // Achieved throughput cannot beat the attainable roof.
            double att = rep.roofline.attainable_elems_per_sec(
                tp.b.arithmetic_intensity());
            EXPECT_LE(tp.b.achieved_elems_per_sec(), att * (1 + 1e-9))
                << wl.name << "/" << isa::to_string(tp.tag);
        }
        in01(rep.total.lane_occupancy(sim.config()), "total lane occ");
        EXPECT_GT(rep.scratchpadHighWaterBytes, 0.0);
        EXPECT_EQ(rep.scratchpadCapacityBytes,
                  sim.config().scratchpadMB * 1024.0 * 1024.0);
    }
}

// ------------------------------------------------- segment-law math

TEST(Profiler, SplitsOneMixedSegmentPerTheOverlapLaw)
{
    HwConfig cfg;
    PoseidonSim sim(cfg);
    isa::Trace t;
    // One segment (same tag): an MM burst plus an HBM read.
    t.emit(OpKind::MM, 512 * 1000, 0, BasicOp::Other);
    t.emit(OpKind::HBM_RD, 1 << 20, 0, BasicOp::Other);
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ASSERT_EQ(tl.segments.size(), 1u);
    ProfileReport rep = profile(tl, r, cfg);
    ASSERT_EQ(rep.tags.size(), 1u);
    const ExposureBuckets &b = rep.tags[0].b;

    double c = tl.segments[0].computeCycles;
    double m = tl.segments[0].memCycles;
    double ov = PoseidonSim::kOverlap;
    EXPECT_EQ(b.overlapped, ov * std::min(c, m));
    EXPECT_EQ(b.computeExposed, c - ov * std::min(c, m));
    EXPECT_EQ(b.memExposed, m - ov * std::min(c, m));
    EXPECT_EQ(b.cycles, r.cycles);
    EXPECT_EQ(b.laneElems, 512.0 * 1000.0);
    EXPECT_EQ(b.bytes,
              static_cast<double>((u64(1) << 20) * cfg.wordBytes));
}

TEST(Profiler, PureComputeSegmentHasNoMemoryExposure)
{
    PoseidonSim sim;
    isa::Trace t;
    t.emit(OpKind::MA, 512 * 64, 0, BasicOp::HAdd);
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ProfileReport rep = profile(tl, r, sim.config());
    ASSERT_EQ(rep.tags.size(), 1u);
    EXPECT_EQ(rep.tags[0].b.memExposed, 0.0);
    EXPECT_EQ(rep.tags[0].b.overlapped, 0.0);
    EXPECT_EQ(rep.tags[0].b.computeExposed, r.cycles);
    EXPECT_EQ(rep.tags[0].bound(), Bound::Compute);
}

TEST(Profiler, PureMemorySegmentHasNoComputeExposure)
{
    PoseidonSim sim;
    isa::Trace t;
    t.emit(OpKind::HBM_RD, 1 << 22, 0, BasicOp::Other);
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ProfileReport rep = profile(tl, r, sim.config());
    ASSERT_EQ(rep.tags.size(), 1u);
    EXPECT_EQ(rep.tags[0].b.computeExposed, 0.0);
    EXPECT_EQ(rep.tags[0].b.overlapped, 0.0);
    EXPECT_EQ(rep.tags[0].b.memExposed, r.cycles);
    EXPECT_EQ(rep.tags[0].bound(), Bound::Memory);
    EXPECT_EQ(rep.tags[0].b.computeElems, 0.0);
}

// ------------------------------------------- spill & retry accounting

TEST(Profiler, AttributesSpillCyclesUnderScratchpadPressure)
{
    HwConfig cfg;
    cfg.scratchpadMB = 1.0; // force respilling at N = 2^16
    PoseidonSim sim(cfg);
    isa::OpShape s = workloads::paper_shape();
    isa::Trace t;
    isa::emit_cmult(t, s);
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ProfileReport rep = profile(tl, r, cfg);
    EXPECT_GT(rep.total.spillCycles, 0.0);
    EXPECT_GT(rep.total.spill_share(), 0.0);
    EXPECT_LT(rep.total.spill_share(), 1.0);
    EXPECT_GT(rep.scratchpadHighWaterBytes,
              rep.scratchpadCapacityBytes);
    // Conservation holds under spill too.
    EXPECT_EQ(rep.total.cycles, r.cycles);
    // spillCycles is exactly the spill-scaled minus raw memory time.
    double expect = 0.0;
    for (const auto &seg : tl.segments) {
        expect += seg.rawMemCycles * seg.spillFactor - seg.rawMemCycles;
    }
    EXPECT_EQ(rep.total.spillCycles, expect);
}

TEST(Profiler, AttributesEccRetryCycles)
{
    HwConfig cfg;
    cfg.faults.ber = 1e-4; // high enough for double-bit (replayed) words
    PoseidonSim sim(cfg);
    isa::OpShape s = workloads::paper_shape();
    isa::Trace t;
    isa::emit_keyswitch(t, s);
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ASSERT_GT(r.faults.retryCycles, 0.0);
    ProfileReport rep = profile(tl, r, cfg);
    EXPECT_EQ(rep.total.cycles, r.cycles);
    EXPECT_NEAR(rep.total.retryCycles, r.faults.retryCycles,
                1e-9 * r.faults.retryCycles);
    EXPECT_GT(rep.total.retry_share(), 0.0);
    EXPECT_EQ(rep.faults.detected, r.faults.detected);
}

// ------------------------------------------------------- roofline

TEST(Profiler, RooflineRidgeAndAttainableMatchConfig)
{
    HwConfig cfg;
    RooflineModel m = RooflineModel::from_config(cfg);
    double peakElems = static_cast<double>(cfg.lanes) * cfg.clockGHz *
                       1e9;
    double peakBytes = cfg.hbmPeakGBps * 1e9 * cfg.hbmEfficiency;
    EXPECT_EQ(m.peakElemsPerSec, peakElems);
    EXPECT_EQ(m.peakBytesPerSec, peakBytes);
    EXPECT_EQ(m.ridgeElemsPerByte, peakElems / peakBytes);
    // Below the ridge the bandwidth roof binds; above, the compute
    // roof.
    double below = m.ridgeElemsPerByte / 2.0;
    double above = m.ridgeElemsPerByte * 2.0;
    EXPECT_DOUBLE_EQ(m.attainable_elems_per_sec(below),
                     below * peakBytes);
    EXPECT_EQ(m.attainable_elems_per_sec(above), peakElems);
    EXPECT_EQ(m.attainable_elems_per_sec(
                  std::numeric_limits<double>::infinity()),
              peakElems);
}

// ---------------------------------------------------- report output

TEST(Profiler, JsonReportRoundTripsAndConserves)
{
    PoseidonSim sim;
    workloads::Workload wl =
        workloads::make_lr(workloads::paper_shape());
    SimTimeline tl;
    SimResult r = sim.run(wl.trace, &tl);
    ProfileReport rep = profile(tl, r, sim.config(), wl.name);

    Json doc = Json::parse(rep.to_json().dump(2));
    EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
    EXPECT_EQ(doc.at("kind").as_string(), "poseidon_profile");
    EXPECT_EQ(doc.at("workload").as_string(), "LR");
    EXPECT_EQ(doc.at("total").at("cycles").as_number(), r.cycles);
    EXPECT_EQ(doc.at("tags").size(), rep.tags.size());
    EXPECT_TRUE(doc.at("roofline").contains("ridge_elems_per_byte"));
    EXPECT_TRUE(doc.at("scratchpad").contains("high_water_bytes"));
    EXPECT_FALSE(doc.at("verdict").as_string().empty());
    // Tag shares sum to 1 over the whole run.
    double shareSum = 0.0;
    for (std::size_t i = 0; i < doc.at("tags").size(); ++i) {
        shareSum += doc.at("tags").at(i).at("share").as_number();
    }
    EXPECT_NEAR(shareSum, 1.0, 1e-12);
}

TEST(Profiler, TextReportNamesTopTagInVerdict)
{
    PoseidonSim sim;
    workloads::Workload wl =
        workloads::make_lr(workloads::paper_shape());
    SimTimeline tl;
    SimResult r = sim.run(wl.trace, &tl);
    ProfileReport rep = profile(tl, r, sim.config(), wl.name);
    ASSERT_FALSE(rep.tags.empty());
    std::string text = rep.to_text();
    EXPECT_NE(text.find("verdict:"), std::string::npos);
    EXPECT_NE(text.find(isa::to_string(rep.tags[0].tag)),
              std::string::npos);
    EXPECT_NE(rep.verdict().find(isa::to_string(rep.tags[0].tag)),
              std::string::npos);
}

TEST(Profiler, VerdictsAdviseOnlySettableRoofs)
{
    // The segment law's overlap is a model constant, so no verdict may
    // advise raising it.
    PoseidonSim sim;
    const u64 words = u64(1) << 20;
    const double m =
        sim.memory_cycles({OpKind::HBM_RD, words, 0, BasicOp::Other});
    auto verdict_with_mm = [&](double cycles) {
        isa::Trace t;
        t.emit(OpKind::MM, static_cast<u64>(cycles) * sim.config().lanes,
               0, BasicOp::Other);
        t.emit(OpKind::HBM_RD, words, 0, BasicOp::Other);
        SimTimeline tl;
        SimResult r = sim.run(t, &tl);
        return profile(tl, r, sim.config()).verdict();
    };
    std::string memory = verdict_with_mm(1.0);
    std::string balanced = verdict_with_mm(m);
    EXPECT_NE(memory.find("raise HBM bandwidth"), std::string::npos)
        << memory;
    EXPECT_NE(balanced.find("balanced"), std::string::npos) << balanced;
    for (const std::string &v : {memory, balanced})
        EXPECT_EQ(v.find("overlap"), std::string::npos) << v;
}

TEST(Profiler, ExportedGaugesMatchReport)
{
    if (!telemetry::enabled()) GTEST_SKIP() << "telemetry off";
    telemetry::MetricsRegistry &reg =
        telemetry::MetricsRegistry::global();
    reg.reset();
    PoseidonSim sim;
    workloads::Workload wl =
        workloads::make_lstm(workloads::paper_shape());
    SimTimeline tl;
    SimResult r = sim.run(wl.trace, &tl);
    ProfileReport rep = profile(tl, r, sim.config(), wl.name);
    rep.export_metrics(reg);

    Json j = reg.to_json();
    const Json &g = j.at("gauges");
    EXPECT_EQ(g.at("sim.util.lane_occupancy").as_number(),
              rep.total.lane_occupancy(sim.config()));
    EXPECT_EQ(g.at("sim.util.ntt_occupancy").as_number(),
              rep.total.ntt_occupancy());
    EXPECT_EQ(g.at("sim.util.mem_exposed_share").as_number(),
              rep.total.mem_exposed_share());
    EXPECT_EQ(g.at("sim.roofline.ridge_elems_per_byte").as_number(),
              rep.roofline.ridgeElemsPerByte);
    for (int k = 0; k < 8; ++k) {
        auto kind = static_cast<isa::OpKind>(k);
        EXPECT_EQ(g.at(std::string("sim.util.kind_cycles.") +
                       isa::to_string(kind))
                      .as_number(),
                  r.kindCycles[static_cast<std::size_t>(k)])
            << isa::to_string(kind);
    }
    reg.reset();
}

TEST(Profiler, EmptyTimelineYieldsEmptyReport)
{
    PoseidonSim sim;
    isa::Trace t;
    SimTimeline tl;
    SimResult r = sim.run(t, &tl);
    ProfileReport rep = profile(tl, r, sim.config());
    EXPECT_EQ(rep.total.cycles, 0.0);
    EXPECT_TRUE(rep.tags.empty());
    EXPECT_NE(rep.verdict().find("empty"), std::string::npos);
}

} // namespace
} // namespace poseidon::hw

// ===================================================== bench_diff

namespace poseidon::telemetry {
namespace {

Json
bench_doc(double cycles, const char *hwConfig = "poseidon_u280",
          double threads = 4)
{
    Json j = Json::object();
    j.set("schema_version", Json(2));
    j.set("name", Json("t"));
    j.set("git", Json("abc"));
    j.set("git_sha", Json("abc123"));
    j.set("threads", Json(threads));
    j.set("hw_config", Json(hwConfig));
    j.set("config", Json::object());
    Json m = Json::object();
    m.set("lr.cycles", Json(cycles * 0.5));
    j.set("metrics", m);
    j.set("cycles", Json(cycles));
    j.set("seconds", Json(cycles / 3e8));
    j.set("bandwidth_util", Json(0.5));
    return j;
}

TEST(BenchDiff, IdenticalDocumentsPass)
{
    Json base = bench_doc(1e9);
    BenchDiffResult r = diff_bench(base, base);
    EXPECT_TRUE(r.comparable);
    EXPECT_FALSE(r.regressed());
    EXPECT_EQ(r.regression_count(), 0u);
    EXPECT_NE(format_diff(r).find("ok"), std::string::npos);
}

TEST(BenchDiff, FlagsRegressionBeyondTolerance)
{
    Json base = bench_doc(1e9);
    Json cur = bench_doc(1.1e9); // +10% on cycles and metrics
    BenchDiffResult r = diff_bench(base, cur);
    EXPECT_TRUE(r.comparable);
    EXPECT_TRUE(r.regressed());
    EXPECT_GE(r.regression_count(), 2u); // cycles, seconds, metric
    EXPECT_NE(format_diff(r).find("REGRESSION"), std::string::npos);

    // A loose per-metric tolerance lets individual metrics pass.
    BenchDiffOptions opt;
    opt.tolerances["cycles"] = 0.2;
    opt.tolerances["seconds"] = 0.2;
    opt.tolerances["metrics.lr.cycles"] = 0.2;
    BenchDiffResult r2 = diff_bench(base, cur, opt);
    EXPECT_FALSE(r2.regressed());

    // A loose default does the same.
    BenchDiffOptions opt3;
    opt3.defaultTolerance = 0.2;
    EXPECT_FALSE(diff_bench(base, cur, opt3).regressed());
}

TEST(BenchDiff, ImprovementBeyondToleranceAlsoFlags)
{
    // The model is deterministic: an unexplained 10% "improvement"
    // is drift (or a broken bench), not a win to wave through.
    Json base = bench_doc(1e9);
    Json cur = bench_doc(0.9e9);
    EXPECT_TRUE(diff_bench(base, cur).regressed());
}

TEST(BenchDiff, MissingMetricIsARegression)
{
    Json base = bench_doc(1e9);
    Json cur = bench_doc(1e9);
    cur.set("metrics", Json::object()); // lost lr.cycles coverage
    BenchDiffResult r = diff_bench(base, cur);
    EXPECT_TRUE(r.regressed());
    bool sawMissing = false;
    for (const auto &d : r.deltas) sawMissing |= d.missing;
    EXPECT_TRUE(sawMissing);
    EXPECT_NE(format_diff(r).find("missing"), std::string::npos);
}

TEST(BenchDiff, AddedMetricIsNotARegression)
{
    Json base = bench_doc(1e9);
    Json cur = bench_doc(1e9);
    Json m = cur.at("metrics");
    m.set("new.metric", Json(7.0));
    cur.set("metrics", m);
    BenchDiffResult r = diff_bench(base, cur);
    EXPECT_FALSE(r.regressed());
    bool sawAdded = false;
    for (const auto &d : r.deltas) sawAdded |= d.added;
    EXPECT_TRUE(sawAdded);
}

TEST(BenchDiff, RefusesCrossConfigDiffs)
{
    BenchDiffResult r =
        diff_bench(bench_doc(1e9, "poseidon_u280"),
                   bench_doc(1e9, "poseidon_u280_2x_lanes"));
    EXPECT_FALSE(r.comparable);
    EXPECT_TRUE(r.regressed());
    EXPECT_NE(r.incomparableReason.find("hw_config"),
              std::string::npos);

    BenchDiffResult r2 = diff_bench(bench_doc(1e9, "poseidon_u280", 1),
                                    bench_doc(1e9, "poseidon_u280", 8));
    EXPECT_FALSE(r2.comparable);
    EXPECT_NE(r2.incomparableReason.find("threads"),
              std::string::npos);
}

TEST(BenchDiff, RefusesNameMismatch)
{
    Json base = bench_doc(1e9);
    Json cur = bench_doc(1e9);
    cur.set("name", Json("other"));
    BenchDiffResult r = diff_bench(base, cur);
    EXPECT_FALSE(r.comparable);
    EXPECT_NE(r.incomparableReason.find("name"), std::string::npos);
}

TEST(BenchDiff, UnstampedDocumentsAreRefused)
{
    // A document without the hw_config/threads stamps is refused on
    // either side, even with identical numbers.
    Json stamped = bench_doc(100.0);
    Json bare = Json::object();
    for (const char *key : {"schema_version", "name", "git", "git_sha",
                            "config", "metrics", "cycles", "seconds",
                            "bandwidth_util"}) {
        bare.set(key, stamped.at(key));
    }
    for (const auto &[base, cur] : {std::pair(&stamped, &bare),
                                    std::pair(&bare, &stamped),
                                    std::pair(&bare, &bare)}) {
        BenchDiffResult r = diff_bench(*base, *cur);
        EXPECT_FALSE(r.comparable);
        EXPECT_TRUE(r.regressed());
        EXPECT_NE(r.incomparableReason.find("unstamped"),
                  std::string::npos);
    }
}

TEST(BenchDiff, ZeroBaselineComparesAbsolutely)
{
    Json base = bench_doc(0.0);
    Json cur = bench_doc(0.0);
    EXPECT_FALSE(diff_bench(base, cur).regressed());
    // A small absolute change on a zero baseline within tolerance.
    BenchDiffOptions opt;
    opt.defaultTolerance = 0.5;
    Json cur2 = bench_doc(0.0);
    cur2.set("cycles", Json(0.4));
    EXPECT_FALSE(diff_bench(base, cur2, opt).regressed());
    cur2.set("cycles", Json(0.9));
    EXPECT_TRUE(diff_bench(base, cur2, opt).regressed());
}

} // namespace
} // namespace poseidon::telemetry
