#ifndef POSEIDON_NTT_FUSION_H_
#define POSEIDON_NTT_FUSION_H_

/**
 * @file
 * NTT-fusion: the radix-2^k NTT of Section III-A of the paper.
 *
 * Poseidon fuses k consecutive butterfly stages into one "fused TAM"
 * (Twiddle-Accumulate-Modulo) phase. A phase gathers 2^k strided
 * operands, applies the k stages entirely in local registers, and
 * scatters the results — cutting the number of memory passes from
 * log2(N) to ceil(log2(N)/k) and the modular reductions per 2^k-point
 * block from k*2^k to 2^k, at the cost of more twiddle factors.
 *
 * `NttFused` is the functional kernel (bit-exact with `NttTable`);
 * `FusionCostModel` reproduces Table II; `AccessPattern` reproduces the
 * per-iteration index strides of Table III / Fig. 5.
 */

#include <cstddef>
#include <vector>

#include "ntt/ntt.h"

namespace poseidon {

/// Runtime statistics gathered by the fused kernel.
struct FusedNttStats
{
    u64 phases = 0;          ///< memory passes over the polynomial
    u64 fusedBlocks = 0;     ///< 2^k-point local blocks processed
    u64 butterflies = 0;     ///< total butterfly operations
    u64 twiddleMuls = 0;     ///< modular multiplications by twiddles
};

/**
 * Radix-2^k fused forward NTT, bit-exact with NttTable::forward.
 *
 * The local 2^k-point blocks use the same bit-reversed psi table as the
 * reference transform; only the computation/memory schedule changes —
 * exactly the property the hardware exploits.
 */
class NttFused
{
  public:
    /**
     * @param table  reference tables for (N, q)
     * @param k      radix exponent (1 <= k <= 6); k=3 is the paper's pick
     */
    NttFused(const NttTable &table, unsigned k);

    /// In-place forward transform (natural -> bit-reversed order).
    void forward(u64 *a) const;

    /// In-place inverse transform (bit-reversed -> natural order),
    /// also executed as radix-2^k fused passes.
    void inverse(u64 *a) const;

    /// Statistics from all forward() calls since construction/reset.
    const FusedNttStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

  private:
    const NttTable &table_;
    unsigned k_;
    mutable FusedNttStats stats_;
};

/**
 * Analytical cost model of NTT-fusion for a 2^k-point fused block —
 * reproduces Table II of the paper.
 */
struct FusionCostModel
{
    unsigned k = 3;

    /// Twiddle factors needed by a conventional (unfused) 2^k block.
    u64 twiddles_unfused() const;

    /**
     * Twiddle factors of the fused block. Values for k in [2,6] follow
     * Table II of the paper {2, 5, 13, 34, 85}.
     */
    u64 twiddles_fused() const;

    /// Multiplications (= additions) in the unfused block: k * 2^k.
    u64 mult_unfused() const;

    /**
     * Multiplications (= additions) in the fused block:
     * (2^k - 1) * 2^k. Matches Table II for k in [2,5]; the paper
     * prints 4160 for k=6 where the formula gives 4032 (we treat the
     * paper value as a typo and note it in EXPERIMENTS.md).
     */
    u64 mult_fused() const;

    /// Modular reductions per block: unfused k*2^k -> fused 2^k.
    u64 modred_unfused() const;
    u64 modred_fused() const;

    /// Memory passes for an N-point NTT: ceil(log2(N)/k).
    static u64 phases(std::size_t n, unsigned k);
};

/**
 * Data access pattern generator for the fused NTT (Table III, Fig. 5).
 * Iteration `it` (1-based) reads operands with stride 2^{k*(it-1)}:
 * iteration 1 is sequential (0..2^k-1), iteration 2 strides by 2^k, etc.
 */
struct AccessPattern
{
    std::size_t n;  ///< polynomial degree
    unsigned k;     ///< radix exponent

    /// Index stride between the operands of one fused block.
    u64 stride(unsigned iteration) const;

    /// The first `count` operand indices a core loads in `iteration`.
    std::vector<u64> first_block(unsigned iteration) const;

    /// Number of iterations (= phases) for this N and k.
    unsigned iterations() const;
};

} // namespace poseidon

#endif // POSEIDON_NTT_FUSION_H_
