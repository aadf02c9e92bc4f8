#ifndef POSEIDON_RNS_CONV_H_
#define POSEIDON_RNS_CONV_H_

/**
 * @file
 * Fast RNS base conversion — the paper's `RNSconv` building block
 * (Eq. 1), plus the ModUp/ModDown coefficient math built from it
 * (Eqs. 2-3). Base conversion operates on coefficient-domain residue
 * arrays; the NTT round-trips happen in the CKKS layer.
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
 *   conv(x)_j = sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * [Q/q_i]_{p_j}  mod p_j
 *
 * The float-correction variant subtracts the estimated overflow
 * multiple e*Q (HPS-style), producing a value congruent to the
 * *centered* representative and keeping ModDown noise small.
 */
class RnsConv
{
  public:
    RnsConv(const RnsBasis &src, const RnsBasis &dst);

    const RnsBasis& src() const { return src_; }
    const RnsBasis& dst() const { return dst_; }

    /**
     * Convert n coefficients. src[i] points at the n residues mod q_i;
     * dst[j] receives the n residues mod p_j.
     *
     * @param correct  apply the floating-point overflow correction
     */
    void convert(const std::vector<const u64*> &src,
                 const std::vector<u64*> &dst, std::size_t n,
                 bool correct = true) const;

  private:
    RnsBasis src_;
    RnsBasis dst_;
    /// weights_[j][i] = [Q/q_i] mod p_j for i < ls, and
    /// weights_[j][ls] = -Q mod p_j (the overflow correction's weight)
    std::vector<std::vector<u64>> weights_;
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
 * p-basis (the "special" primes with product P), produce residues over
 * the q-basis of round(x / P):
 *
 *   out_i = (x_i - conv_{p->q}(x_p)_i) * P^{-1}  mod q_i
 *
 * The conversion needs coefficient-domain x_p; the subtract-and-scale
 * step (`finish`) is linear, so it runs equally on coefficient or
 * evaluation-domain residues. The keyswitch uses that to keep its
 * q-limbs in the evaluation domain: it transforms only the K special
 * limbs out and the L converted limbs in.
 */
class ModDown
{
  public:
    ModDown(const RnsBasis &qBasis, const RnsBasis &pBasis);

    /**
     * Coefficient-domain ModDown: `conv()` then `finish`.
     *
     * @param xq   residues over q-basis (size L, each n coefficients)
     * @param xp   residues over p-basis (size K, each n coefficients)
     * @param out  output residues over q-basis (size L)
     */
    void apply(const std::vector<const u64*> &xq,
               const std::vector<const u64*> &xp,
               const std::vector<u64*> &out, std::size_t n) const;

    /**
     * out_i = (xq_i - c_i) * P^{-1} mod q_i, where c is conv()'s output
     * for x_p; xq and c must be in the same domain. `out` may alias xq
     * or c.
     */
    void finish(const std::vector<const u64*> &xq,
                const std::vector<const u64*> &c,
                const std::vector<u64*> &out, std::size_t n) const;

    const RnsConv& conv() const { return conv_; }

  private:
    RnsConv conv_;               ///< p-basis -> q-basis
    std::vector<u64> pInv_;      ///< P^{-1} mod q_i
    std::vector<u64> pInvShoup_; ///< Shoup constant of pInv_[i]
};

} // namespace poseidon

#endif // POSEIDON_RNS_CONV_H_
