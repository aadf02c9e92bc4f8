#ifndef POSEIDON_RNS_BASIS_H_
#define POSEIDON_RNS_BASIS_H_

/**
 * @file
 * RNS basis: an ordered set of pairwise-coprime NTT primes with the
 * Barrett reducers and CRT precomputations attached.
 *
 * In RNS-CKKS a big modulus Q = q_0 * ... * q_l never materializes;
 * every polynomial coefficient lives as one residue per prime. This
 * class owns the per-prime constants every other module builds on.
 */

#include <cstddef>
#include <vector>

#include "common/modmath.h"
#include "rns/bigint.h"

namespace poseidon {

/// An ordered RNS basis {q_0, ..., q_{L-1}} with CRT precomputations.
class RnsBasis
{
  public:
    RnsBasis() = default;

    /// Build a basis from distinct primes (order is preserved).
    explicit RnsBasis(std::vector<u64> moduli);

    /// Number of primes in the basis.
    std::size_t size() const { return moduli_.size(); }

    /// i-th prime.
    u64 modulus(std::size_t i) const { return moduli_[i]; }

    /// All primes in order.
    const std::vector<u64>& moduli() const { return moduli_; }

    /// Barrett reducer for the i-th prime (the SBT operator's constants).
    const Barrett64& barrett(std::size_t i) const { return barrett_[i]; }

    /// (Q/q_i)^{-1} mod q_i — the CRT reconstruction coefficient.
    u64 qhat_inv(std::size_t i) const { return qhatInv_[i]; }

    /// Q/q_i as a big integer.
    const BigUInt& qhat(std::size_t i) const { return qhat_[i]; }

    /// Q = product of all primes.
    const BigUInt& big_product() const { return product_; }

    /// Basis restricted to the first `count` primes.
    RnsBasis prefix(std::size_t count) const;

    /// Basis with the primes of `other` appended.
    RnsBasis concat(const RnsBasis &other) const;

    /// Reduce a signed coefficient into every prime: out[i] = v mod q_i.
    void decompose(i64 v, u64 *out) const;

    /// CRT-compose residues (res[i] is the residue mod q_i) into [0, Q).
    BigUInt compose(const u64 *res) const;

    /**
     * CRT-compose and lift to the centered representative in
     * (-Q/2, Q/2], returned as a double. Exactness degrades gracefully
     * for magnitudes above 2^53, which is fine for CKKS decoding where
     * the message carries ~40-50 significant bits.
     */
    double compose_centered_double(const u64 *res) const;

  private:
    std::vector<u64> moduli_;
    std::vector<Barrett64> barrett_;
    std::vector<u64> qhatInv_;
    std::vector<BigUInt> qhat_;
    BigUInt product_;
    BigUInt half_;
};

} // namespace poseidon

#endif // POSEIDON_RNS_BASIS_H_
