#ifndef POSEIDON_CKKS_EVALUATOR_H_
#define POSEIDON_CKKS_EVALUATOR_H_

/**
 * @file
 * The CKKS evaluator: every basic operation of the paper's Section II.
 *
 * HAdd, PMult, CMult(+relinearization), Rescale, Keyswitch
 * (ModUp/RNSconv/ModDown), Rotation and conjugation. Each operation is
 * exactly the composition of the five Poseidon operators (MA, MM,
 * NTT/INTT, Automorphism, SBT); the isa/ module mirrors this
 * decomposition for the hardware model.
 */

#include <utility>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/keys.h"

namespace poseidon {

/// Homomorphic-operation engine for one context.
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(CkksContextPtr ctx);

    const CkksContextPtr& context() const { return ctx_; }

    // ---- HAdd ----
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    void add_inplace(Ciphertext &a, const Ciphertext &b) const;
    void sub_inplace(Ciphertext &a, const Ciphertext &b) const;
    Ciphertext negate(const Ciphertext &a) const;
    Ciphertext add_plain(const Ciphertext &a, const Plaintext &p) const;

    // ---- PMult ----
    /// Ciphertext-plaintext multiply; scales multiply (rescale after).
    Ciphertext mul_plain(const Ciphertext &a, const Plaintext &p) const;

    /**
     * Sum of cts[k] * pts[k]: one fused dot product per limb and
     * component (one reduction per sum), with no per-term temporary.
     * Byte-equal to the mul_plain/add_inplace chain and counted as
     * one mul_plain per term. Every ciphertext must share one basis
     * and scale, and every plaintext that basis and one scale. The
     * basis is a level's q-primes, or its extended basis QP
     * (rotate_hoisted_ext results times CkksEncoder::encode_extended
     * plaintexts).
     */
    Ciphertext dot_plain(const std::vector<const Ciphertext*> &cts,
                         const std::vector<const Plaintext*> &pts) const;

    /**
     * Multiply by the scalar `value` encoded at `scale` (default: the
     * context scale): each limb is multiplied by round(value*scale)
     * mod q. Only the MM operator is exercised — no encoding FFT.
     */
    Ciphertext mul_scalar(const Ciphertext &a, double value,
                          double scale = -1.0) const;

    /// Multiply by a small signed integer without changing the scale.
    Ciphertext mul_integer(const Ciphertext &a, i64 value) const;

    // ---- CMult with relinearization ----
    /**
     * Tensor and relinearize, leaving the product over the extended
     * basis QP: (P*d0 + acc0, P*d1 + acc1), where (acc0, acc1) is the
     * key product of d2 (counted as one keyswitch). rescale_inplace
     * then runs the keyswitch's ModDown and the rescale as one pass;
     * mod_down gives the q-basis product at the same level.
     */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b,
                   const KSwitchKey &relinKey) const;
    Ciphertext square(const Ciphertext &a,
                      const KSwitchKey &relinKey) const;

    // ---- Rescale ----
    /**
     * Divide by the last q-prime q_l: one ModDown whose divided-out
     * primes are {q_l}, the same routine as the keyswitch's ModDown by
     * P. An extended ciphertext (a mul result, or any QP sum) is
     * divided by q_l*P in that one ModDown, which also counts as one
     * ckks.ops.mod_down: the same bytes as mod_down then rescale,
     * except where the two roundings straddle a half-integer
     * (probability about 1/q_l per coefficient).
     */
    void rescale_inplace(Ciphertext &a) const;
    Ciphertext rescale(const Ciphertext &a) const;

    /**
     * Bring `a` to exactly `targetScale` by multiplying with 1.0
     * encoded at scale targetScale * q_last / a.scale and rescaling
     * (costs one level). Lets operands from different rescale paths
     * be added together.
     */
    Ciphertext adjust_scale(const Ciphertext &a, double targetScale) const;

    /// Equalize two operands' levels and scales (each may lose one
    /// level), so that add/sub between them is valid.
    void equalize_inplace(Ciphertext &a, Ciphertext &b) const;

    /// Drop limbs to `limbs` primes without rounding (mod switch);
    /// q-basis only.
    void drop_to_limbs_inplace(Ciphertext &a, std::size_t limbs) const;

    /// Drop limbs of a plaintext to match a ciphertext.
    void drop_to_limbs_inplace(Plaintext &p, std::size_t limbs) const;

    // ---- Rotation / conjugation ----
    //
    // Like mul, these take q-basis ciphertexts only (ShapeMismatch for
    // an extended one). Each is mod_down of its rotation over QP.
    Ciphertext rotate(const Ciphertext &a, long steps,
                      const GaloisKeys &keys) const;
    Ciphertext conjugate(const Ciphertext &a, const GaloisKeys &keys) const;

    // ---- Keyswitch core (exposed for bootstrapping / ISA tracing) ----
    /**
     * Switch the key under `d` (an Eval-domain polynomial currently
     * multiplied by some s') back to s: returns (u0, u1) such that
     * u0 + u1*s ~ d*s'. This is ModUp -> inner products -> ModDown,
     * i.e. the paper's Keyswitch pipeline.
     */
    std::pair<RnsPoly, RnsPoly>
    keyswitch_core(const RnsPoly &d, const KSwitchKey &key) const;

    // ---- Extended basis QP (double hoisting) ----
    //
    // An extended ciphertext spans a level's q-primes plus the K special
    // primes (CkksContext::extended_indices) and stands for P times a
    // q-basis ciphertext, up to keyswitch noise; it keeps that
    // ciphertext's scale. Keyswitch results land there before their
    // ModDown, so a sum of rotations (times plaintexts, via dot_plain)
    // pays for a single ModDown (Bossuat et al., Eurocrypt 2021). add,
    // sub, mul_scalar, mul_integer and dot_plain work over QP; mod_down
    // or rescale_inplace brings the result back to the q-basis.

    /**
     * Hoisted multi-rotation (Halevi-Shoup) without the ModDowns: c1's
     * digit decomposition runs once; for each step,
     * (P*tau(c0) + acc0, acc1) over QP, where (acc0, acc1) is the key
     * inner product of tau(c1)'s digits (an evaluation-domain
     * permutation of the shared digits); a zero step gives P*a. `keys`
     * must hold a key for every nonzero step.
     */
    std::vector<Ciphertext>
    rotate_hoisted_ext(const Ciphertext &a, const std::vector<long> &steps,
                       const GaloisKeys &keys) const;

    /// rotate() with its result over QP, without the ModDown; counted
    /// as one keyswitch.
    Ciphertext rotate_ext(const Ciphertext &a, long step,
                          const GaloisKeys &keys) const;

    /// Divide P out of an extended ciphertext (ModDown to the q-basis
    /// at the same level); rescale_inplace divides by P*q_l instead.
    Ciphertext mod_down(Ciphertext &&a) const;

  private:
    /// tau_g of `a` keyswitched back to s under `key`, over QP without
    /// the ModDown; counted as one keyswitch and one rotation.
    Ciphertext galois_ext(const Ciphertext &a, u64 g,
                          const KSwitchKey &key) const;

    /// ShapeMismatch naming `op` when `p` spans an extended basis.
    void require_q_basis(const RnsPoly &p, const char *op) const;
    void check_same_shape(const Ciphertext &a, const Ciphertext &b) const;

    /// digits[j][m]: digit j of a polynomial in extended prime m.
    using Digits = std::vector<std::vector<std::vector<u64>>>;

    /**
     * ModUp digit decomposition of `d` (evaluation domain): result[j][m]
     * holds digit j broadcast into extended prime m, in evaluation
     * domain. A digit's own limbs are copied from `d`; only the other
     * extended primes are converted and transformed. Memory: digits *
     * ext * N words.
     */
    Digits decompose_digits_eval(const RnsPoly &d,
                                 const std::vector<std::size_t> &extIdx)
        const;

    /**
     * The keyswitch inner product over QP, before its ModDown:
     * acc0 = sum_j perm(digits[j]) * b_j (+ P*perm(c0) when `c0` is
     * given) and acc1 = sum_j perm(digits[j]) * a_j (+ P*perm(c1) when
     * `c1` is given), with `perm` an evaluation-domain automorphism
     * (none when empty).
     */
    std::pair<RnsPoly, RnsPoly>
    key_product(const Digits &digits, const KSwitchKey &key,
                const std::vector<std::size_t> &extIdx,
                const std::vector<u32> &perm, const RnsPoly *c0,
                const RnsPoly *c1) const;

    /// ModDown both eval-domain polynomials in place onto ciphertext
    /// primes 0..limbs-1, dividing out the primes after them: q_limbs
    /// (rescale), P (the K special primes) or q_limbs * P (fused
    /// rescale). Only those tail limbs are inverse-transformed; each
    /// kept limb is one convert, NTT and subtract-and-scale pass.
    /// Counted as one ckks.ops.mod_down when P is divided out.
    std::pair<RnsPoly, RnsPoly>
    mod_down_pair(RnsPoly &&acc0, RnsPoly &&acc1,
                  std::size_t limbs) const;

    CkksContextPtr ctx_;
};

} // namespace poseidon

#endif // POSEIDON_CKKS_EVALUATOR_H_
