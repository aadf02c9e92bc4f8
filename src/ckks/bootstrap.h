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
 *                   ceil(log2(n)/2) butterfly layers, then the rest. At
 *                   n = 512 slots that is 32 diagonals (stride 16) and
 *                   31 diagonals (offsets -15..15), each stage a
 *                   double-hoisted baby-step/giant-step product (see
 *                   below) costing one level. The final bit reversal is
 *                   dropped, so slot j holds coefficient rev(j) (rev
 *                   reverses log2(n) bits): t_rev(j)/q_0 in the real
 *                   half and t_{rev(j)+n}/q_0 in the imaginary half, in
 *                   [-K, K].
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
 *                   layers, then the rest. At n = 512 slots that is 31
 *                   diagonals (offsets -15..15), then 32 (stride 16),
 *                   each a double-hoisted baby-step/giant-step product
 *                   costing one level.
 *
 * Double hoisting (Bossuat, Mouchet, Troncoso-Pastoriza and Hubaux,
 * Eurocrypt 2021): a stage's baby-step rotations share one ModUp and
 * stay in the extended basis QP without a ModDown; each BSGS group
 * multiplies its diagonals there; a group with a giant step is brought
 * down once and rotated by a keyswitch that lands back in QP; one
 * ModDown of the sum, fused with the stage's rescale, ends the stage.
 * That is 4 ModDowns per stage (3 giant steps + 1) instead of one per
 * rotation (10).
 *
 * Every transform diagonal is encoded once, at construction, over the
 * level its stage runs at plus the K special primes; plan() reports the
 * stages, their ModDowns and their bytes.
 * All four stages decompose into the five Poseidon operators, which is
 * exactly why the accelerator can run bootstrapping by operator reuse.
 */

#include <utility>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"

namespace poseidon {

/// Which approximation EvalMod uses.
enum class EvalModVariant {
    /// Taylor series of exp(i*y) + double-angle squarings + one
    /// conjugation to extract the imaginary part (HEAAN-style).
    TaylorExp,
    /// Chebyshev interpolation of cos((2*pi*x - pi/2)/2^r) followed by
    /// double-angle cos(2t)=2cos^2(t)-1 — real arithmetic only, the
    /// approach of modern packed bootstrapping (the paper's [30]).
    ChebyshevCos,
};

/// Tunables of the EvalMod approximation.
struct BootstrapConfig
{
    EvalModVariant variant = EvalModVariant::TaylorExp;

    /// Taylor degree for exp(i*y) (7 is the classic choice).
    unsigned taylorDegree = 7;

    /// Number of double-angle squarings r; the approximation argument
    /// is divided by 2^r, so larger r widens the valid range of I.
    unsigned doubleAngleIters = 8;

    /// Chebyshev degree for the ChebyshevCos variant.
    unsigned chebDegree = 20;

    /// Half-width K of the EvalMod input range [-K, K] (bounds |I|).
    double kRange = 17.0;
};

/// The linear transforms one bootstrap runs, as built at construction.
struct BootstrapPlan
{
    /// One sparse stage: out = sum_b rot_{giant_b}(sum_g diag_{b,g} *
    /// rot_{baby_g}(in)), then one rescale.
    struct Stage
    {
        std::size_t diagonals = 0;  ///< nonzero diagonals = plaintext mults
        std::size_t babySteps = 0;  ///< hoisted rotations (one shared ModUp)
        std::size_t giantSteps = 0; ///< full rotations, one keyswitch each
        std::size_t modDowns = 0;   ///< one per giant step, one for the sum
        std::size_t limbs = 0;      ///< level of the stage (q-primes)
        std::size_t bytes = 0;      ///< diagonals over limbs + K primes
    };

    std::vector<Stage> coeffToSlot; ///< in the order they run
    std::vector<Stage> slotToCoeff;

    /// Bytes of every encoded diagonal.
    std::size_t table_bytes() const;
    /// Keyswitches of both transforms (giant steps; hoisted baby steps
    /// share a decomposition and do not count).
    std::size_t keyswitches() const;
    /// ModDowns of both transforms.
    std::size_t mod_downs() const;
    /// Plaintext multiplications of both transforms.
    std::size_t plain_mults() const;
};

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
                 KeyGenerator &keygen, BootstrapConfig cfg = {});

    /**
     * Levels one bootstrap consumes from the top of the chain. The
     * context must satisfy L >= levels_consumed() + 2 for the result
     * to land above the input.
     */
    std::size_t levels_consumed() const;

    /// The transform stages one bootstrap runs.
    BootstrapPlan plan() const;

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
    /// One BootstrapPlan::Stage with its diagonals encoded.
    struct EncodedStage
    {
        /// A diagonal pre-rotated by its group's giant step; it
        /// multiplies the baby-step rotation baby[babyIndex].
        struct Diagonal
        {
            std::size_t babyIndex;
            Plaintext pt;
        };
        struct Group
        {
            long giant;
            std::vector<Diagonal> diags;
        };
        std::size_t limbs = 0;
        std::vector<long> baby; ///< hoisted rotation steps
        std::vector<Group> groups;
    };

    /// Encodes the nonzero diagonals of the slots() x slots() matrix
    /// `m` (column-major) as one stage at `limbs`, its plaintexts over
    /// that level's extended basis.
    EncodedStage make_stage(const std::vector<cdouble> &m,
                            std::size_t limbs) const;

    /// One stage applied to `ct` (dropped to the stage's level first),
    /// then one rescale; the output keeps ct's scale.
    Ciphertext linear_transform(const Ciphertext &ct,
                                const EncodedStage &st,
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
    BootstrapConfig cfg_;
    KSwitchKey relin_;
    GaloisKeys gk_;
    std::vector<EncodedStage> cts_; ///< CoeffToSlot stages, in order
    std::vector<EncodedStage> stc_; ///< SlotToCoeff stages, in order
    std::vector<double> cosCoeffs_; ///< ChebyshevCos interpolation
};

} // namespace poseidon

#endif // POSEIDON_CKKS_BOOTSTRAP_H_
