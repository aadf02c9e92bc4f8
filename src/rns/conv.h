#ifndef POSEIDON_RNS_CONV_H_
#define POSEIDON_RNS_CONV_H_

/**
 * @file
 * Fast RNS base conversion — the paper's `RNSconv` building block
 * (Eq. 1), which ModUp applies per digit (Eq. 3), plus the ModDown
 * coefficient math built from it (Eq. 2).
 * Base conversion operates on coefficient-domain residue arrays, one
 * destination row at a time; the NTT round-trips happen in the CKKS
 * layer, between a row's conversion and its next use.
 *
 * Poseidon implements RNSconv in hardware by cascading the MA and MM
 * operator cores (Fig. 4); this file is the functional model those
 * cores compute.
 */

#include <cstddef>
#include <vector>

#include "rns/basis.h"

namespace poseidon {

/**
 * Fast base conversion from a source basis {q_i} to a destination
 * basis {p_j}:
 *
 *   conv(x)_j = sum_i y_i * [Q/q_i]_{p_j} - e * [Q]_{p_j}  mod p_j,
 *   y_i = [x_i * (Q/q_i)^{-1}]_{q_i},  e = round(sum_i y_i / q_i)
 *
 * The overflow count e (HPS-style, a double estimate summed in
 * ascending i) makes the result congruent to the *centered*
 * representative of x, which keeps ModDown's rounding error small.
 *
 * A conversion is two steps. operands() computes the y_i and e once
 * per coefficient; row() then emits one destination row as one fused
 * dot product over them. Callers that transform or finish each row
 * while it is in cache (ModDown, the keyswitch's ModUp) interleave
 * row() with that work.
 */
class RnsConv
{
  public:
    RnsConv(const RnsBasis &src, const RnsBasis &dst);

    const RnsBasis& src() const { return src_; }
    const RnsBasis& dst() const { return dst_; }

    /// One conversion's per-coefficient operands: rows y_0..y_{ls-1},
    /// then e. Move-only: `rows` points into `words`.
    struct Operands
    {
        Operands() = default;
        Operands(Operands&&) = default;
        Operands& operator=(Operands&&) = default;
        Operands(const Operands&) = delete;

        std::size_t n = 0;
        std::vector<u64> words;       ///< ls + 1 rows of n words
        std::vector<const u64*> rows; ///< the row starts in `words`
    };

    /// Operands of n coefficients; src[i] points at the n residues
    /// mod q_i.
    Operands operands(const std::vector<const u64*> &src,
                      std::size_t n) const;

    /// Destination row j: the ops.n residues mod p_j into `dst`.
    void row(const Operands &ops, std::size_t j, u64 *dst) const;

  private:
    RnsBasis src_;
    RnsBasis dst_;
    /// weights_[j][i] = [Q/q_i] mod p_j for i < ls, and
    /// weights_[j][ls] = -Q mod p_j (e's weight)
    std::vector<std::vector<u64>> weights_;
    /// ls + 1 null operand pointers: every term takes its weight
    std::vector<const u64*> none_;
    /// the largest q_i, the bound on the products' y_i operands
    u64 maxSrcModulus_ = 0;
    /// Shoup constant of [(Q/q_i)^{-1}] mod q_i (the value itself
    /// lives in the basis).
    std::vector<u64> qhatInvShoup_;
    /// 1.0 / q_i for the float overflow estimate
    std::vector<double> qInvDouble_;
};

/**
 * ModDown (Eq. 2): given a polynomial's residues over q-basis and
 * p-basis (the divided-out primes, with product P), produce residues
 * over the q-basis of round(x / P):
 *
 *   out_i = (x_i - conv_{p->q}(x_p)_i) * P^{-1}  mod q_i
 *
 * The p-basis is whatever the caller divides out: the last ciphertext
 * prime (rescale), the K special primes (keyswitch) or both (fused
 * rescale). The conversion needs coefficient-domain x_p; the
 * subtract-and-scale step (`finish_row`) is linear, so it runs equally
 * on coefficient or evaluation-domain residues. The evaluator uses
 * that to keep its q-limbs in the evaluation domain: per q-limb it
 * emits the converted row, transforms it and finishes the limb in
 * place.
 */
class ModDown
{
  public:
    ModDown(const RnsBasis &qBasis, const RnsBasis &pBasis);

    /**
     * Coefficient-domain ModDown: per q-limb, conv()'s row then
     * `finish_row`.
     *
     * @param xq   residues over q-basis (size L, each n coefficients)
     * @param xp   residues over p-basis (size K, each n coefficients)
     * @param out  output residues over q-basis (size L); must not
     *             overlap xq
     */
    void apply(const std::vector<const u64*> &xq,
               const std::vector<const u64*> &xp,
               const std::vector<u64*> &out, std::size_t n) const;

    /**
     * out = (xq - c) * P^{-1} mod q_i for q-limb i, where c is conv()'s
     * row i for x_p; xq and c must be in the same domain. `out` may
     * alias xq or c.
     */
    void finish_row(std::size_t i, u64 *out, const u64 *xq, const u64 *c,
                    std::size_t n) const;

    const RnsConv& conv() const { return conv_; }

  private:
    RnsConv conv_;               ///< p-basis -> q-basis
    std::vector<u64> pInv_;      ///< P^{-1} mod q_i
    std::vector<u64> pInvShoup_; ///< Shoup constant of pInv_[i]
};

} // namespace poseidon

#endif // POSEIDON_RNS_CONV_H_
