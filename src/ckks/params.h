#ifndef POSEIDON_CKKS_PARAMS_H_
#define POSEIDON_CKKS_PARAMS_H_

/**
 * @file
 * CKKS parameter set and context.
 *
 * The context owns the ring tables (all modulus-chain primes plus the
 * special keyswitching primes), the default encoding scale, and cached
 * base converters: one ModDown per level and set of divided-out primes
 * (rescale, keyswitch and fused rescale alike), one RnsConv per
 * keyswitch digit. Every scheme object (encoder, keygen,
 * encryptor, evaluator, bootstrapper) references one shared context.
 */

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "poly/poly.h"
#include "poly/ring.h"
#include "rns/conv.h"

namespace poseidon {

/// User-facing CKKS parameters.
struct CkksParams
{
    /// log2 of the ring degree N.
    unsigned logN = 12;

    /// Number of ciphertext primes (modulus chain length; fresh
    /// ciphertexts sit at level L-1 and every rescale burns one).
    std::size_t L = 6;

    /// log2 of the default encoding scale Delta.
    unsigned scaleBits = 35;

    /// Bit size of the first (decryption) prime q_0.
    unsigned firstPrimeBits = 50;

    /// Bit size of the special keyswitch primes.
    unsigned specialPrimeBits = 50;

    /// Number of special keyswitch primes (the paper uses one).
    std::size_t K = 1;

    /**
     * Keyswitch digit count (hybrid keyswitching). 0 means one digit
     * per ciphertext prime (dnum = L, the classic RNS decomposition).
     * Smaller dnum groups alpha = ceil(L/dnum) primes per digit,
     * shrinking the switching keys and their HBM traffic at the cost
     * of real base conversions per digit; it requires K >= alpha
     * special primes to keep the keyswitch noise down.
     */
    std::size_t dnum = 0;

    /// Seed for all randomness (keys, encryption noise).
    u64 seed = 20230101;

    std::size_t degree() const { return std::size_t(1) << logN; }
    std::size_t slots() const { return degree() / 2; }
    double scale() const { return static_cast<double>(u64(1) << scaleBits); }
};

/// Shared immutable(ish) state for one CKKS instantiation.
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams &params);

    const CkksParams& params() const { return params_; }
    const RingContextPtr& ring() const { return ring_; }

    std::size_t degree() const { return params_.degree(); }
    std::size_t slots() const { return params_.slots(); }

    /// Level of a fresh ciphertext (L - 1).
    std::size_t top_level() const { return params_.L - 1; }

    /**
     * ModDown converter dividing the ring primes `tail` (prime
     * indices) out of a polynomial over ciphertext primes 0..limbs-1
     * followed by `tail`: the last ciphertext prime (rescale), the K
     * special primes (keyswitch) or both (fused rescale). Cached per
     * (limbs, tail).
     */
    const ModDown& mod_down(std::size_t limbs,
                            const std::vector<std::size_t> &tail) const;

    /// mod_down(limbs, the K special primes): division by P.
    const ModDown& mod_down(std::size_t limbs) const;

    /// Primes per keyswitch digit (1 when dnum == 0).
    std::size_t alpha() const { return alpha_; }

    /// Number of digit groups covering `limbs` primes.
    std::size_t
    num_digits(std::size_t limbs) const
    {
        return (limbs + alpha_ - 1) / alpha_;
    }

    /**
     * Base conversion from digit group `g`'s primes (restricted to the
     * first `limbs` ciphertext primes) to the rest of the level's
     * extended basis: ciphertext primes 0..limbs-1 without the group's
     * own, in ascending order, then the K special primes. The group's
     * own residues need no conversion. Cached. Only meaningful for
     * groups with more than one prime.
     */
    const RnsConv& digit_conv(std::size_t limbs, std::size_t g) const;

    /**
     * Prime indices of the extended basis QP of a `limbs`-prime level:
     * ciphertext primes 0..limbs-1, then the K special primes.
     */
    std::vector<std::size_t> extended_indices(std::size_t limbs) const;

    /// true when `p` spans a level's extended basis QP (exactly
    /// extended_indices(p.num_limbs() - K)).
    bool is_extended(const RnsPoly &p) const;

    /// [P mod q_i] for every ciphertext prime (keyswitch key factor).
    u64 p_mod_qi(std::size_t i) const { return pModQ_[i]; }

  private:
    CkksParams params_;
    RingContextPtr ring_;
    std::size_t alpha_ = 1;
    /// modDown_ keyed by (limbs, tail), built on first use.
    mutable std::map<std::pair<std::size_t, std::vector<std::size_t>>,
                     std::unique_ptr<ModDown>> modDown_;
    /// digitConv_ keyed by limbs and group, built on first use.
    mutable std::map<std::size_t, std::unique_ptr<RnsConv>> digitConv_;
    std::vector<u64> pModQ_;
};

using CkksContextPtr = std::shared_ptr<const CkksContext>;

/// Convenience: build a shared context.
CkksContextPtr make_ckks_context(const CkksParams &params);

} // namespace poseidon

#endif // POSEIDON_CKKS_PARAMS_H_
