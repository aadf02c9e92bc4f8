#include "isa/compiler.h"

#include <string>

#include "common/check.h"
#include "telemetry/metrics.h"

namespace poseidon::isa {

namespace {

/// Shorthand: words of one full ciphertext (2 polys).
u64
ct_words(const OpShape &s)
{
    return 2 * s.limbs * s.n;
}

/// Counts the instructions an emitter appends into the telemetry
/// registry ("isa.instrs.<BasicOp>").
class EmitMeter
{
  public:
    EmitMeter(const Trace &t, BasicOp tag)
        : t_(t), tag_(tag), before_(t.size())
    {}

    ~EmitMeter()
    {
        if (!telemetry::enabled()) return;
        double n = static_cast<double>(t_.size() - before_);
        auto &reg = telemetry::MetricsRegistry::global();
        reg.counter(std::string("isa.instrs.") + to_string(tag_)).add(n);
        reg.counter("isa.instrs.total").add(n);
    }

    EmitMeter(const EmitMeter&) = delete;
    EmitMeter& operator=(const EmitMeter&) = delete;

  private:
    const Trace &t_;
    BasicOp tag_;
    std::size_t before_;
};

/// A dot product's reductions: one per output, one fold per 16 terms.
u64
dot_reductions(u64 outputs, u64 terms)
{
    return outputs * (1 + (terms - 1) / 16);
}

/// ModUp of one polynomial: the input to the coefficient domain, each
/// digit base-converted (q-hat scaling, then alpha multiply-accumulates
/// per output on the MM datapath) onto the extended primes outside it,
/// and those forward-transformed; a digit's own limbs are copied.
void
mod_up(Trace &t, const OpShape &s, BasicOp tag)
{
    telemetry::count("isa.ops.mod_up");
    u64 D = s.digits();
    u64 alpha = (s.limbs + D - 1) / D;
    u64 converted = D * s.ext_limbs() - s.limbs;
    t.emit(OpKind::INTT, s.limbs * s.n, s.n, tag);
    t.emit(OpKind::MM, (s.limbs + converted * alpha) * s.n, s.n, tag);
    t.emit(OpKind::SBT, converted * s.n, s.n, tag);
    t.emit(OpKind::NTT, converted * s.n, s.n, tag);
}

/// The key product over QP: per extended limb and component, the
/// digits times the streamed key plus `pTerms` P*c terms on the q-limbs
/// (P*c0 for a rotation, P*d0 and P*d1 for a relinearization).
void
key_product(Trace &t, const OpShape &s, u64 pTerms, BasicOp tag)
{
    telemetry::count("isa.ops.key_product");
    u64 D = s.digits();
    u64 ext = s.ext_limbs();
    u64 products = (2 * D * ext + pTerms * s.limbs) * s.n;
    u64 outputs = 2 * ext * s.n;
    t.emit(OpKind::HBM_RD, 2 * D * ext * s.n, s.n, tag);
    t.emit(OpKind::MM, products, s.n, tag);
    t.emit(OpKind::MA, products - outputs, s.n, tag);
    t.emit(OpKind::SBT, dot_reductions(outputs, D + (pTerms > 0)), s.n,
           tag);
}

/// ModDown of a pair onto `limbs` q-primes, dividing out the `tail`
/// primes after them (P, q_l for a rescale, or q_l*P for a fused
/// rescale): the tail's INTT and base conversion, NTTs of the images,
/// then (x - conv) * tail^-1.
void
mod_down(Trace &t, u64 n, u64 limbs, u64 tail, BasicOp tag)
{
    telemetry::count("isa.ops.mod_down");
    t.emit(OpKind::INTT, 2 * tail * n, n, tag);
    t.emit(OpKind::MM, 2 * (tail + tail * limbs + limbs) * n, n, tag);
    t.emit(OpKind::MA, 2 * limbs * n, n, tag);
    t.emit(OpKind::SBT, 2 * limbs * n, n, tag);
    t.emit(OpKind::NTT, 2 * limbs * n, n, tag);
}

/// tau_g of a ciphertext keyswitched into QP: the automorphism of both
/// polys, ModUp of c1 and the key product with P*c0.
void
rotate_ext(Trace &t, const OpShape &s, BasicOp tag)
{
    t.emit(OpKind::AUTO, 2 * s.limbs * s.n, s.n, tag);
    mod_up(t, s, tag);
    key_product(t, s, 1, tag);
}

/// The tensor product (d0, d2 and the two-term dot d1) relinearized
/// into QP: ModUp of d2 and the key product with P*d0 and P*d1.
void
mul_ext(Trace &t, const OpShape &s, BasicOp tag)
{
    t.emit(OpKind::MM, 4 * s.limbs * s.n, s.n, tag);
    t.emit(OpKind::MA, s.limbs * s.n, s.n, tag);
    t.emit(OpKind::SBT, 3 * s.limbs * s.n, s.n, tag);
    mod_up(t, s, tag);
    key_product(t, s, 2, tag);
}

/// CMult as `mul` + `rescale_inplace` run it: the relinearized tensor
/// product, then one fused ModDown by q_l*P onto limbs - 1 primes.
void
mul_rescale(Trace &t, const OpShape &s, BasicOp tag)
{
    mul_ext(t, s, tag);
    mod_down(t, s.n, s.limbs - 1, s.K + 1, tag);
}

/// One double-hoisted BSGS stage at s.limbs, as
/// Bootstrapper::linear_transform runs it.
void
linear_transform(Trace &t, const OpShape &s,
                 const BootstrapPlan::Stage &st, BasicOp tag)
{
    u64 n = s.n;
    u64 ext = s.ext_limbs();
    // Baby steps: one ModUp of c1; per step, the digits (and c0)
    // permuted and one key product over QP, written out for the
    // diagonal products; the zero step lifts the input to P*ct.
    mod_up(t, s, tag);
    t.emit(OpKind::MM, 2 * s.limbs * n, n, tag);
    for (std::size_t b = 0; b < st.babySteps; ++b) {
        t.emit(OpKind::AUTO, (s.digits() * ext + s.limbs) * n, n, tag);
        key_product(t, s, 1, tag);
        t.emit(OpKind::HBM_WR, 2 * ext * n, n, tag);
    }
    // Per giant group: its diagonal products over QP, diagonals and
    // baby steps streamed in, then for a nonzero giant step one
    // ModDown and a rotation back into QP. The groups sum in QP and
    // one fused ModDown + rescale ends the stage.
    for (std::size_t i = 0, j; i < st.offsets.size(); i = j) {
        long giant = st.offsets[i].giant;
        for (j = i; j < st.offsets.size() && st.offsets[j].giant == giant;
             ++j) {}
        u64 terms = j - i;
        t.emit(OpKind::HBM_RD, 3 * terms * ext * n, n, tag);
        t.emit(OpKind::MM, 2 * terms * ext * n, n, tag);
        t.emit(OpKind::MA, 2 * (terms - 1) * ext * n, n, tag);
        t.emit(OpKind::SBT, dot_reductions(2 * ext * n, terms), n, tag);
        if (giant != 0) {
            mod_down(t, n, s.limbs, s.K, tag);
            rotate_ext(t, s, tag);
        }
        if (i > 0) t.emit(OpKind::MA, 2 * ext * n, n, tag);
    }
    mod_down(t, n, s.limbs - 1, s.K + 1, tag);
}

} // namespace

void
emit_hadd(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, 2 * ct_words(s), s.n, tag); // two ciphertexts
    t.emit(OpKind::MA, 2 * s.limbs * s.n, s.n, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_pmult(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    // Ciphertext (2 polys) + plaintext (1 poly) in; MM on both halves.
    t.emit(OpKind::HBM_RD, 3 * s.limbs * s.n, s.n, tag);
    t.emit(OpKind::MM, 2 * s.limbs * s.n, s.n, tag);
    t.emit(OpKind::SBT, 2 * s.limbs * s.n, s.n, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_keyswitch(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, s.limbs * s.n, s.n, tag);
    mod_up(t, s, tag);
    key_product(t, s, 0, tag);
    mod_down(t, s.n, s.limbs, s.K, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_cmult(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, 2 * ct_words(s), s.n, tag);
    mul_ext(t, s, tag);
    mod_down(t, s.n, s.limbs, s.K, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_rescale(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    POSEIDON_REQUIRE(s.limbs >= 2, "emit_rescale: nothing to drop");
    t.emit(OpKind::HBM_RD, ct_words(s), s.n, tag);
    mod_down(t, s.n, s.limbs - 1, 1, tag);
    t.emit(OpKind::HBM_WR, 2 * (s.limbs - 1) * s.n, s.n, tag);
}

void
emit_cmult_rescale(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    POSEIDON_REQUIRE(s.limbs >= 2, "emit_cmult_rescale: nothing to drop");
    t.emit(OpKind::HBM_RD, 2 * ct_words(s), s.n, tag);
    mul_rescale(t, s, tag);
    t.emit(OpKind::HBM_WR, 2 * (s.limbs - 1) * s.n, s.n, tag);
}

void
emit_linear_transform(Trace &t, const OpShape &s,
                      const BootstrapPlan::Stage &st, BasicOp tag)
{
    EmitMeter meter(t, tag);
    POSEIDON_REQUIRE(st.limbs == s.limbs && s.limbs >= 2,
                     "emit_linear_transform: a stage at " << st.limbs
                     << " limbs on a ciphertext at " << s.limbs);
    t.emit(OpKind::HBM_RD, ct_words(s), s.n, tag);
    linear_transform(t, s, st, tag);
    t.emit(OpKind::HBM_WR, 2 * (s.limbs - 1) * s.n, s.n, tag);
}

void
emit_ntt_op(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, s.limbs * s.n, s.n, tag);
    t.emit(OpKind::NTT, s.limbs * s.n, s.n, tag);
    t.emit(OpKind::SBT, s.limbs * s.n, s.n, tag);
    t.emit(OpKind::HBM_WR, s.limbs * s.n, s.n, tag);
}

void
emit_modup(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, s.limbs * s.n, s.n, tag);
    mod_up(t, s, tag);
    t.emit(OpKind::HBM_WR, s.digits() * s.ext_limbs() * s.n, s.n, tag);
}

void
emit_moddown(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, 2 * s.ext_limbs() * s.n, s.n, tag);
    mod_down(t, s.n, s.limbs, s.K, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_rotation(Trace &t, const OpShape &s, BasicOp tag)
{
    EmitMeter meter(t, tag);
    t.emit(OpKind::HBM_RD, ct_words(s), s.n, tag);
    rotate_ext(t, s, tag);
    mod_down(t, s.n, s.limbs, s.K, tag);
    t.emit(OpKind::HBM_WR, ct_words(s), s.n, tag);
}

void
emit_bootstrap(Trace &t, const OpShape &top, u64 slots, BasicOp tag)
{
    EmitMeter meter(t, tag);
    BootstrapPlan plan = plan_bootstrap(slots, top.limbs, top.K, top.n);
    POSEIDON_REQUIRE(top.limbs >= plan.levels() + 2,
                     "emit_bootstrap: a bootstrap consumes "
                     << plan.levels() << " levels, so the chain needs "
                     "at least " << plan.levels() + 2 << " limbs, not "
                     << top.limbs);
    u64 n = top.n;
    // The shape at `limbs` q-primes: a lower level has fewer digits.
    u64 alpha = top.dnum == 0 ? 1 : (top.limbs + top.dnum - 1) / top.dnum;
    auto at = [&](u64 limbs) {
        OpShape s = top;
        s.limbs = limbs;
        if (top.dnum != 0) s.dnum = (limbs + alpha - 1) / alpha;
        return s;
    };

    // ModRaise: the input's coefficients spread over the whole chain.
    t.emit(OpKind::HBM_RD, 2 * n, n, tag);
    t.emit(OpKind::INTT, 2 * n, n, tag);
    t.emit(OpKind::SBT, 2 * top.limbs * n, n, tag);
    t.emit(OpKind::NTT, 2 * top.limbs * n, n, tag);

    // CoeffToSlot, then the real/imaginary split: one conjugation, a
    // sum, a difference and the monomial -X^{N/2}.
    for (const auto &st : plan.coeffToSlot) {
        linear_transform(t, at(st.limbs), st, tag);
    }
    u64 l = plan.coeffToSlot.back().limbs - 1;
    rotate_ext(t, at(l), tag);
    mod_down(t, n, l, top.K, tag);
    t.emit(OpKind::MA, 4 * l * n, n, tag);
    t.emit(OpKind::MM, 2 * l * n, n, tag);

    // EvalMod on each half (one conjugation each), one mult per level:
    // the argument and the leading Taylor coefficient as scalar mults,
    // Horner's and the squarings' relinearizations (each ModDown fused
    // with its rescale), the sine's conjugation and difference, and the
    // output constant. The Taylor constants' additions are left out.
    const BootstrapPlan::EvalMod &em = plan.evalMod;
    u64 halves = em.conjugations;
    u64 evalTop = l;
    for (u64 h = 0; h < halves; ++h) {
        l = evalTop;
        auto scalar = [&] {
            t.emit(OpKind::MM, 2 * l * n, n, tag);
            mod_down(t, n, l - 1, 1, tag);
            --l;
        };
        for (u64 i = 1; i < em.plainMults / halves; ++i) scalar();
        for (u64 i = 0; i < em.relinearizations / halves; ++i) {
            mul_rescale(t, at(l), tag);
            --l;
        }
        rotate_ext(t, at(l), tag);
        mod_down(t, n, l, top.K, tag);
        t.emit(OpKind::MA, 2 * l * n, n, tag);
        scalar();
    }

    // SlotToCoeff: the recombination lo + X^{N/2}*hi, then its stages.
    t.emit(OpKind::MM, 2 * l * n, n, tag);
    t.emit(OpKind::MA, 2 * l * n, n, tag);
    for (const auto &st : plan.slotToCoeff) {
        linear_transform(t, at(st.limbs), st, tag);
    }
    t.emit(OpKind::HBM_WR, 2 * (plan.slotToCoeff.back().limbs - 1) * n,
           n, tag);
}

} // namespace poseidon::isa
