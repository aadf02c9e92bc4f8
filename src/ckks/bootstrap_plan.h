#ifndef POSEIDON_CKKS_BOOTSTRAP_PLAN_H_
#define POSEIDON_CKKS_BOOTSTRAP_PLAN_H_

/**
 * @file
 * What one packed bootstrap runs, as a function of its shape alone.
 *
 * The single description of a bootstrap for both clocks: Bootstrapper
 * encodes exactly its diagonals and isa::emit_bootstrap prices exactly
 * its stages, at N = 2^16 too, where the diagonals would take GBs. The
 * workloads' matrix products are stages of the same BSGS split.
 */

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace poseidon {

/// The stages one bootstrap runs and what they cost.
struct BootstrapPlan
{
    /// One sparse stage: out = sum_b rot_{giant_b}(sum_g diag_{b,g} *
    /// rot_{baby_g}(in)), then one rescale.
    struct Stage
    {
        /// The nonzero diagonal at slot offset giant + babies[baby].
        struct Offset
        {
            long giant;
            std::size_t baby;
            bool operator==(const Offset &) const = default;
        };

        /// The encoder's butterfly layers [layerBegin, layerEnd) the
        /// stage applies: fft_inv_layers for CoeffToSlot, fft_layers
        /// for SlotToCoeff.
        unsigned layerBegin = 0;
        unsigned layerEnd = 0;
        std::vector<long> babies;    ///< baby steps, ascending from 0
        std::vector<Offset> offsets; ///< by giant step, then baby step
        std::size_t diagonals = 0;  ///< nonzero diagonals = plaintext mults
        std::size_t babySteps = 0;  ///< hoisted rotations (one shared ModUp)
        std::size_t giantSteps = 0; ///< full rotations, one keyswitch each
        std::size_t modDowns = 0;   ///< one per giant step, one for the sum
        std::size_t limbs = 0;      ///< level of the stage (q-primes)
        std::size_t bytes = 0;      ///< diagonals over limbs + K primes

        bool operator==(const Stage &) const = default;
    };

    /// EvalMod on the real and the imaginary half. Per half, one mult
    /// per level: two scalar mults (the argument, Taylor's leading
    /// coefficient), degree - 1 Horner and r squaring relinearizations,
    /// then the sine's conjugation and one scalar mult.
    struct EvalMod
    {
        /// Taylor degree of exp(i*y) and r double-angle squarings;
        /// y = 2*pi*x/2^r, so larger r widens the range of I.
        static constexpr unsigned taylorDegree = 7;
        static constexpr unsigned doubleAngles = 8;

        std::size_t relinearizations = 0; ///< both halves
        std::size_t conjugations = 0;     ///< both halves
        std::size_t plainMults = 0;       ///< both halves' scalar constants
        std::size_t levels = 0;           ///< one half's depth

        /// One ModDown each.
        std::size_t keyswitches() const
        {
            return relinearizations + conjugations;
        }

        bool operator==(const EvalMod &) const = default;
    };

    std::vector<Stage> coeffToSlot; ///< in the order they run
    EvalMod evalMod;
    std::vector<Stage> slotToCoeff;

    /// Bytes of every encoded diagonal.
    std::size_t table_bytes() const { return total(&Stage::bytes); }
    /// Keyswitches per bootstrap: the transforms' giant steps (hoisted
    /// baby steps share a decomposition and do not count), the
    /// real/imaginary split's conjugation and EvalMod's.
    std::size_t keyswitches() const
    {
        return 1 + evalMod.keyswitches() + total(&Stage::giantSteps);
    }
    /// ModDowns per bootstrap: the transforms', then one for every
    /// other keyswitch.
    std::size_t mod_downs() const
    {
        return 1 + evalMod.keyswitches() + total(&Stage::modDowns);
    }
    /// Plaintext multiplications per bootstrap: the transforms'
    /// diagonals and EvalMod's scalar constants.
    std::size_t plain_mults() const
    {
        return evalMod.plainMults + total(&Stage::diagonals);
    }
    /// Levels per bootstrap: one per transform stage plus EvalMod's.
    std::size_t levels() const
    {
        return coeffToSlot.size() + evalMod.levels + slotToCoeff.size();
    }

    bool operator==(const BootstrapPlan &) const = default;

  private:
    /// `field` summed over every transform stage.
    std::size_t total(std::size_t Stage::*field) const
    {
        std::size_t sum = 0;
        for (const auto *t : {&coeffToSlot, &slotToCoeff}) {
            for (const Stage &s : *t) sum += s.*field;
        }
        return sum;
    }
};

/**
 * The baby-step/giant-step split of the diagonals at slot offsets
 * k*stride, kLo <= k <= kHi, at `limbs` q-primes: k = n1*g + j is
 * baby step j*stride of giant step n1*g*stride. `n1` = 0 picks the
 * smallest power of two whose square covers the range, so every baby
 * step occurs; an `n1` past kHi, with kLo = 0, puts every diagonal in
 * one giant group (a hoisted multi-rotation). The layer fields stay 0.
 */
BootstrapPlan::Stage bsgs_stage(long kLo, long kHi, long stride,
                                std::size_t limbs, std::size_t K,
                                std::size_t N, long n1 = 0);

/**
 * The bootstrap of `slots` packed slots (a power of two, at most N/2)
 * on a chain of `L` q-primes with `K` special primes at ring degree
 * `N`. Stages sit at fixed levels; on a chain shorter than levels() + 2
 * (which a bootstrap rejects) they are clamped to one limb.
 */
BootstrapPlan plan_bootstrap(std::size_t slots, std::size_t L,
                             std::size_t K, std::size_t N);

} // namespace poseidon

#endif // POSEIDON_CKKS_BOOTSTRAP_PLAN_H_
