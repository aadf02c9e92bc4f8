#ifndef POSEIDON_POLY_POLY_H_
#define POSEIDON_POLY_POLY_H_

/**
 * @file
 * RnsPoly: an element of Z_Q[X]/(X^N+1) stored in residue (RNS) form,
 * one length-N limb per prime, in either coefficient or evaluation
 * (NTT) representation.
 *
 * This is the data object that flows through every Poseidon operator:
 * MA and MM act element-wise on limbs, NTT/INTT switch the domain, and
 * Automorphism permutes coefficients.
 */

#include <cstddef>
#include <vector>

#include "poly/ring.h"

namespace poseidon {

/// Representation of a polynomial's limbs.
enum class Domain { Coeff, Eval };

/// An RNS polynomial bound to a RingContext and a subset of its primes.
class RnsPoly
{
  public:
    RnsPoly() = default;

    /// Zero polynomial over the given prime indices of the context.
    RnsPoly(RingContextPtr ctx, std::vector<std::size_t> primeIdx,
            Domain d);

    /// Zero polynomial over the first `limbs` ciphertext primes.
    static RnsPoly ct(RingContextPtr ctx, std::size_t limbs, Domain d);

    bool empty() const { return data_.empty(); }
    std::size_t degree() const { return ctx_ ? ctx_->degree() : 0; }
    std::size_t num_limbs() const { return data_.size(); }

    /// Context-wide index of the k-th limb's prime.
    std::size_t prime_index(std::size_t k) const { return primeIdx_[k]; }
    u64 prime(std::size_t k) const { return ctx_->prime(primeIdx_[k]); }
    const std::vector<std::size_t>& prime_indices() const { return primeIdx_; }

    Domain domain() const { return domain_; }

    u64* limb(std::size_t k) { return data_[k].data(); }
    const u64* limb(std::size_t k) const { return data_[k].data(); }

    RingContextPtr context() const { return ctx_; }

    /// true iff same context, same primes, same domain.
    bool compatible(const RnsPoly &o) const;

    /// NTT every limb (no-op if already in Eval domain).
    void to_eval();

    /// INTT every limb (no-op if already in Coeff domain).
    void to_coeff();

    /// this += o (element-wise mod each prime).
    void add_inplace(const RnsPoly &o);

    /// this -= o.
    void sub_inplace(const RnsPoly &o);

    /// this = -this.
    void negate_inplace();

    /// this *= o element-wise; meaningful in Eval domain.
    void mul_inplace(const RnsPoly &o);

    /// Multiply limb k by scalars[k] (mod its prime).
    void mul_scalar_inplace(const std::vector<u64> &scalars);

    /// Multiply every limb by the same small scalar.
    void mul_scalar_inplace(u64 scalar);

    /// Remove the highest limb (modulus chain drop).
    void drop_last_limb();

    /// Append a zero limb for context prime index `primeIdx`.
    void append_limb(std::size_t primeIdx);

    /**
     * Load signed coefficients (Coeff domain required): limb k receives
     * coeffs[t] mod q_k.
     */
    void assign_signed(const std::vector<i64> &coeffs);

  private:
    RingContextPtr ctx_;
    std::vector<std::size_t> primeIdx_;
    Domain domain_ = Domain::Coeff;
    std::vector<std::vector<u64>> data_;
};

} // namespace poseidon

#endif // POSEIDON_POLY_POLY_H_
