#ifndef POSEIDON_CKKS_BOOTSTRAP_H_
#define POSEIDON_CKKS_BOOTSTRAP_H_

/**
 * @file
 * Packed CKKS bootstrapping (the paper's most complex basic operation,
 * benchmark 4 of its evaluation).
 *
 * Pipeline, following the packed bootstrapping the paper cites [30]:
 *
 *  1. ModRaise    — reinterpret a bottom-level ciphertext mod q_0 over
 *                   the full chain; the message becomes m + q_0*I with
 *                   small integer polynomial I.
 *  2. CoeffToSlot — the encoder's inverse special FFT, factored
 *                   (Cheon-Han-Hhan) into two sparse stages: its first
 *                   ceil(log2(n)/2) butterfly layers, then the rest,
 *                   each a double-hoisted baby-step/giant-step product
 *                   (see below) costing one level. The final bit
 *                   reversal is dropped, so slot j holds coefficient
 *                   rev(j) (rev reverses log2(n) bits): t_rev(j)/q_0 in
 *                   the real half and t_{rev(j)+n}/q_0 in the imaginary
 *                   half, in [-K, K].
 *                   The real/imaginary split is one conjugation and a
 *                   multiplication by the monomial -X^{N/2} (-i in
 *                   every slot), which costs no level.
 *  3. EvalMod     — approximate t mod q_0 via
 *                   q_0/(2*pi) * sin(2*pi*t/q_0): Taylor series of
 *                   exp(i*y/2^r) followed by r squarings (double-angle),
 *                   imaginary part extracted with one conjugation.
 *                   It works slot by slot, so the bit-reversed order is
 *                   harmless.
 *  4. SlotToCoeff — z = lo + X^{N/2}*hi (i in every slot; EvalMod
 *                   leaves both halves at one level and exactly Delta,
 *                   so the recombination is exact and costs no level),
 *                   then the forward special FFT after a bit reversal
 *                   that restores natural order. The FFT starts with
 *                   the same reversal, so the two cancel and only its
 *                   butterfly layers remain, factored like CoeffToSlot
 *                   into two sparse stages: its first floor(log2(n)/2)
 *                   layers, then the rest.
 *
 * Double hoisting (Bossuat, Mouchet, Troncoso-Pastoriza and Hubaux,
 * Eurocrypt 2021): a stage's baby-step rotations share one ModUp and
 * stay in the extended basis QP without a ModDown; each BSGS group
 * multiplies its diagonals there; a group with a giant step is brought
 * down once and rotated by a keyswitch that lands back in QP; one
 * ModDown of the sum, fused with the stage's rescale, ends the stage.
 *
 * The stages, their diagonals and their costs are plan_bootstrap()'s
 * (ckks/bootstrap_plan.h); each diagonal is encoded once, at
 * construction, over its stage's level plus the K special primes.
 * All four stages decompose into the five Poseidon operators, which is
 * exactly why the accelerator can run bootstrapping by operator reuse.
 */

#include <utility>
#include <vector>

#include "ckks/bootstrap_plan.h"
#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"

namespace poseidon {

/**
 * One-time bootstrap engine: owns the encoded CoeffToSlot/SlotToCoeff
 * diagonals, the relinearization key and the rotation keys.
 */
class Bootstrapper
{
  public:
    /**
     * Builds and encodes all transform stages and generates the keys.
     * `keygen` must outlive nothing — keys are copied in.
     */
    Bootstrapper(CkksContextPtr ctx, const CkksEncoder &encoder,
                 KeyGenerator &keygen);

    /// The stages one bootstrap runs and what they cost. A bootstrap
    /// consumes plan().levels() levels from the top of the chain, so
    /// the context needs L >= plan().levels() + 2.
    const BootstrapPlan& plan() const { return plan_; }

    /// Refresh a bottom-level ciphertext to a high level.
    Ciphertext bootstrap(const Ciphertext &ct,
                         const CkksEvaluator &eval) const;

    // -- exposed stages (tests, ISA tracing) --

    /// Stage 1: reinterpret a 1-limb ciphertext over the full chain.
    Ciphertext mod_raise(const Ciphertext &ct) const;

    /**
     * Stage 2: returns (lo, hi) with slot j holding t_rev(j)/q0 and
     * t_{rev(j)+n}/q0, rev reversing the log2(n) bits of j. `msgScale`
     * is the scale the input message was encoded at (<= 0: the
     * context default); the input is relabelled to scale
     * ct.scale*Delta/msgScale so that integer multiples of q0 stay
     * integer.
     */
    std::pair<Ciphertext, Ciphertext>
    coeff_to_slot(const Ciphertext &ct, const CkksEvaluator &eval,
                  double msgScale = -1.0) const;

    /// Stage 3: q0/(2 pi msgScale)-scaled sine of one real-slot input.
    Ciphertext eval_mod(const Ciphertext &ct, const CkksEvaluator &eval,
                        double msgScale = -1.0) const;

    /**
     * Stage 4: recombine z = lo + i*hi and apply the forward encoding
     * matrix. lo and hi must sit at one level and one scale, as
     * eval_mod leaves them.
     */
    Ciphertext slot_to_coeff(const Ciphertext &lo, const Ciphertext &hi,
                             const CkksEvaluator &eval) const;

  private:
    /// Encodes the diagonals `st` names of the slots() x slots()
    /// matrix `m` (column-major), in the order of st.offsets, over the
    /// extended basis of the stage's level. InternalError when `m` has
    /// a nonzero diagonal the plan does not name.
    std::vector<Plaintext> make_stage(const std::vector<cdouble> &m,
                                      const BootstrapPlan::Stage &st) const;

    /// Stage `st` with its encoded diagonals applied to `ct` (dropped
    /// to the stage's level first), then one rescale to ct's scale.
    Ciphertext linear_transform(const Ciphertext &ct,
                                const BootstrapPlan::Stage &st,
                                const std::vector<Plaintext> &diags,
                                const CkksEvaluator &eval) const;

    /// ct * complex scalar at the default scale, rescaled.
    Ciphertext mul_cscalar(const Ciphertext &ct, cdouble v,
                           const CkksEvaluator &eval) const;

    /// ct *= `unit` in {i, -i} as the monomial +-X^{N/2} (exact, no
    /// level or scale change).
    void mul_monomial_inplace(Ciphertext &ct, cdouble unit) const;

    /// ct + complex scalar (exact scale match, no level cost).
    Ciphertext add_cscalar(const Ciphertext &ct, cdouble v) const;

    CkksContextPtr ctx_;
    const CkksEncoder &encoder_;
    KSwitchKey relin_;
    GaloisKeys gk_;
    BootstrapPlan plan_;
    /// Encoded diagonals of plan_'s CoeffToSlot and SlotToCoeff stages.
    std::vector<std::vector<Plaintext>> cts_, stc_;
};

} // namespace poseidon

#endif // POSEIDON_CKKS_BOOTSTRAP_H_
