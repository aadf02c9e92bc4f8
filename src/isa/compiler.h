#ifndef POSEIDON_ISA_COMPILER_H_
#define POSEIDON_ISA_COMPILER_H_

/**
 * @file
 * Lowering of CKKS basic operations to Poseidon operator traces.
 *
 * Each emitter prices what the software evaluator (ckks/evaluator.cpp)
 * runs, in the paper's operators (Table I) plus explicit HBM traffic
 * for operands and keyswitching keys, which dominates accelerator
 * time. Every keyswitching operation composes the evaluator's three
 * primitives: ModUp (`limbs` INTTs, `digits * ext - limbs` NTTs), the
 * key product over QP (one reduction per output coefficient plus one
 * fold every 16 terms) and ModDown by P or by P*q_l (INTTs on the
 * divided-out tail, NTTs on the remaining limbs); a rescale is the
 * ModDown by q_l. OpShape::dnum sets the digits like CkksParams::dnum:
 * 0 is one per prime.
 */

#include "ckks/bootstrap_plan.h"
#include "isa/trace.h"

namespace poseidon::isa {

/// Shape of the ciphertext an operation runs on.
struct OpShape
{
    u64 n = u64(1) << 16; ///< ring degree N
    u64 limbs = 45;       ///< current ciphertext primes (level+1)
    u64 K = 1;            ///< special primes
    u64 dnum = 0;         ///< keyswitch digits; 0 means one per prime

    u64 digits() const { return dnum == 0 ? limbs : dnum; }
    u64 ext_limbs() const { return limbs + K; }
};

// Every emitter appends to `t`; `tag` attributes the work, so Fig. 8
// style breakdowns charge it to the basic operation the user called.

void emit_hadd(Trace &t, const OpShape &s, BasicOp tag = BasicOp::HAdd);
void emit_pmult(Trace &t, const OpShape &s, BasicOp tag = BasicOp::PMult);
void emit_cmult(Trace &t, const OpShape &s, BasicOp tag = BasicOp::CMult);
void emit_rescale(Trace &t, const OpShape &s,
                  BasicOp tag = BasicOp::Rescale);
/// CMult followed by a rescale, as the library runs the pair: the
/// relinearization's ModDown by P fused with the division by q_l.
void emit_cmult_rescale(Trace &t, const OpShape &s,
                        BasicOp tag = BasicOp::CMult);
void emit_ntt_op(Trace &t, const OpShape &s,
                 BasicOp tag = BasicOp::NttOnly);

/// Keyswitch of one polynomial: ModUp, key product, ModDown by P, with
/// operand and result HBM traffic.
void emit_keyswitch(Trace &t, const OpShape &s,
                    BasicOp tag = BasicOp::Keyswitch);

/// ModUp / ModDown as standalone paper rows.
void emit_modup(Trace &t, const OpShape &s, BasicOp tag = BasicOp::ModUp);
void emit_moddown(Trace &t, const OpShape &s,
                  BasicOp tag = BasicOp::ModDown);

void emit_rotation(Trace &t, const OpShape &s,
                   BasicOp tag = BasicOp::Rotation);

/**
 * One BSGS transform stage (ckks/bootstrap_plan.h) on a ciphertext at
 * s.limbs == st.limbs, double-hoisted as Bootstrapper::linear_transform
 * runs it: one ModUp shared by the baby steps, the diagonal products
 * over QP, one ModDown and rotation per giant step, and one fused
 * ModDown + rescale. The bootstrap's stages are priced by the same
 * code.
 */
void emit_linear_transform(Trace &t, const OpShape &s,
                           const BootstrapPlan::Stage &st,
                           BasicOp tag = BasicOp::Rotation);

/**
 * One packed bootstrap of `slots` slots on a chain of top.limbs primes:
 * the stages of plan_bootstrap() (ckks/bootstrap_plan.h) at that shape,
 * priced as Bootstrapper runs them. Throws when the chain is shorter
 * than the plan's levels() + 2.
 */
void emit_bootstrap(Trace &t, const OpShape &top, u64 slots,
                    BasicOp tag = BasicOp::Bootstrapping);

} // namespace poseidon::isa

#endif // POSEIDON_ISA_COMPILER_H_
