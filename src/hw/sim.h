#ifndef POSEIDON_HW_SIM_H_
#define POSEIDON_HW_SIM_H_

/**
 * @file
 * Cycle-level performance model of the Poseidon accelerator.
 *
 * The simulator prices an operator trace (isa::Trace) in cycles:
 *  - element-wise cores (MA/MM) stream `lanes` elements per cycle;
 *  - NTT cores run ceil(log2(N)/k) fused passes over each polynomial,
 *    with a serialization penalty beyond k=3 where the per-output
 *    multiplier count (2^k - 1) exceeds the DSP budget the paper's
 *    design is sized for;
 *  - the automorphism core is either HFAuto (4 sub-vector stages,
 *    C elements per cycle) or the naive 1-element-per-cycle engine;
 *  - SBT is fused into the MM/NTT pipelines (no marginal cycles);
 *  - HBM transfers run at peak * efficiency bytes per cycle.
 *
 * Per maximal same-tag segment (one basic operation), compute and
 * memory overlap partially: T = max(C, M) + (1 - kOverlap) * min(C, M).
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "hw/config.h"
#include "isa/trace.h"

namespace poseidon::hw {

/**
 * One double per basic-operation tag, indexed by isa::BasicOp, plus
 * which tags a run touched. Iteration visits the touched tags in enum
 * order, as (tag, value) pairs; copying allocates nothing.
 */
class TagValues
{
  public:
    static constexpr std::size_t kTags =
        static_cast<std::size_t>(isa::BasicOp::Other) + 1;

    /// True iff the run charged anything to `b`.
    bool contains(isa::BasicOp b) const
    {
        return (touched_ >> index(b)) & 1u;
    }

    /// The value of `b`; 0.0 when the run never touched it.
    double operator[](isa::BasicOp b) const { return v_[index(b)]; }

    void add(isa::BasicOp b, double d)
    {
        v_[index(b)] += d;
        touched_ |= 1u << index(b);
    }

    /// Number of touched tags.
    std::size_t size() const
    {
        return static_cast<std::size_t>(std::popcount(touched_));
    }

    class Iterator
    {
      public:
        Iterator(const TagValues *t, std::size_t i) : t_(t), i_(i)
        {
            skip();
        }
        std::pair<isa::BasicOp, double> operator*() const
        {
            return {static_cast<isa::BasicOp>(i_), t_->v_[i_]};
        }
        Iterator& operator++()
        {
            ++i_;
            skip();
            return *this;
        }
        bool operator==(const Iterator &o) const { return i_ == o.i_; }

      private:
        void skip()
        {
            while (i_ < kTags && !((t_->touched_ >> i_) & 1u)) ++i_;
        }
        const TagValues *t_;
        std::size_t i_;
    };

    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, kTags}; }

  private:
    static std::size_t index(isa::BasicOp b)
    {
        return static_cast<std::size_t>(b);
    }

    std::array<double, kTags> v_ = {};
    std::uint32_t touched_ = 0;
};

/// Timing/traffic outcome of running one trace.
struct SimResult
{
    double cycles = 0.0;
    double seconds = 0.0;
    double computeCycles = 0.0; ///< sum over compute instructions
    double memCycles = 0.0;     ///< sum over HBM instructions
    u64 bytesRead = 0;
    u64 bytesWritten = 0;

    /// Compute cycles per operator kind (Fig. 9 style breakdown).
    std::array<double, 8> kindCycles = {};

    /// HBM fault statistics (all-zero when cfg.faults.ber == 0). The
    /// detected-uncorrected replays are already charged into
    /// memCycles/cycles as ECC retry cycles.
    FaultStats faults;

    /// Wall time charged to each basic-operation tag (Fig. 8 style).
    TagValues tagSeconds;

    /// HBM bytes attributed to each tag.
    TagValues tagBytes;

    double kind_cycles(isa::OpKind k) const
    {
        return kindCycles[static_cast<int>(k)];
    }

    /// Achieved HBM bandwidth / peak (Table VII metric).
    double bandwidth_utilization(const HwConfig &cfg) const;

    /// Per-tag bandwidth utilization.
    double tag_bandwidth_utilization(const HwConfig &cfg,
                                     isa::BasicOp tag) const;
};

// Results are copied into every job result and through its promises.
static_assert(std::is_trivially_copyable_v<SimResult>,
              "copying a SimResult must not allocate");

/// Modeled timing of one instruction inside a segment.
struct InstrTiming
{
    isa::OpKind kind;
    double computeCycles = 0.0;
    /// Memory cycles after scratchpad-spill scaling and ECC retries —
    /// what the instruction actually contributes to segment time.
    double memCycles = 0.0;
    u64 bytes = 0;
    /// Scalar elements the instruction processes (isa::Instr::elems) —
    /// the "useful work" numerator for occupancy and roofline math.
    u64 elems = 0;
};

/// Modeled timing of one maximal same-tag segment (one basic op).
struct SegmentTiming
{
    isa::BasicOp tag;
    double startCycle = 0.0; ///< on the modeled accelerator clock
    double cycles = 0.0;     ///< overlapped segment duration
    double computeCycles = 0.0;
    double memCycles = 0.0;
    /// Memory cycles before scratchpad-spill scaling and ECC retries.
    double rawMemCycles = 0.0;
    /// ECC replay cycles charged into memCycles.
    double retryCycles = 0.0;
    /// Scratchpad pressure: memory-time multiplier (1.0 = resident)
    /// and the resident-tile footprint that produced it.
    double spillFactor = 1.0;
    u64 maxDegree = 0;
    std::vector<InstrTiming> instrs;
};

/// Optional per-segment/per-instruction timeline of a run — the raw
/// material for the simulated-cycle Perfetto track (hw/sim_telemetry).
struct SimTimeline
{
    std::vector<SegmentTiming> segments;
};

/// The accelerator model.
class PoseidonSim
{
  public:
    /**
     * Fraction of the shorter of (compute, memory) time that the
     * pipeline hides behind the longer one:
     * T = max(C, M) + (1 - kOverlap) * min(C, M). 1.0 is a perfect
     * dataflow machine, 0.0 strictly serial.
     */
    static constexpr double kOverlap = 0.92;

    /// The segment law: cycles of a segment with `compute` compute and
    /// `mem` memory cycles, max(C, M) + (1 - kOverlap) * min(C, M).
    static double
    segment_cycles(double compute, double mem)
    {
        return std::max(compute, mem) +
               (1.0 - kOverlap) * std::min(compute, mem);
    }

    /// Scratchpad bytes a segment whose largest ring degree is
    /// `degree` keeps resident (HwConfig::scratchpadTiles limb-tiles).
    static double
    scratchpad_bytes(const HwConfig &cfg, u64 degree)
    {
        return cfg.scratchpadTiles * static_cast<double>(degree) *
               cfg.wordBytes;
    }

    explicit PoseidonSim(HwConfig cfg = HwConfig::poseidon_u280());

    const HwConfig& config() const { return cfg_; }

    /// Run a trace through the timing model. When `timeline` is
    /// non-null it is filled with the per-segment schedule (cleared
    /// first); pricing is identical either way.
    SimResult run(const isa::Trace &trace,
                  SimTimeline *timeline = nullptr) const;

    /// Compute cycles of a single instruction (exposed for tests).
    double compute_cycles(const isa::Instr &in) const;

    /// Memory cycles of a single HBM instruction.
    double memory_cycles(const isa::Instr &in) const;

    /// Cycles for one N-point NTT pass structure under radix 2^k.
    double ntt_poly_cycles(u64 degree) const;

    /// Cycles for one N-point automorphism under the configured core.
    double auto_poly_cycles(u64 degree) const;

  private:
    HwConfig cfg_;
};

} // namespace poseidon::hw

#endif // POSEIDON_HW_SIM_H_
