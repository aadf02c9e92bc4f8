#include "ckks/bootstrap.h"

#include <cmath>
#include <functional>
#include <set>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace poseidon {

namespace {

constexpr unsigned kTaylorDegree = BootstrapPlan::EvalMod::taylorDegree;
constexpr unsigned kDoubleAngles = BootstrapPlan::EvalMod::doubleAngles;

/// The n x n matrix of c times the in-place linear map `apply`,
/// column-major: column k, at [k*n, (k+1)*n), is apply(c * e_k).
std::vector<cdouble>
matrix_of(std::size_t n, double c,
          const std::function<void(std::vector<cdouble> &)> &apply)
{
    std::vector<cdouble> m(n * n);
    std::vector<cdouble> col(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::fill(col.begin(), col.end(), cdouble(0, 0));
        col[k] = c;
        apply(col);
        std::copy(col.begin(), col.end(), m.begin() + k * n);
    }
    return m;
}

/// A rotation step as a slot offset in [0, n).
std::size_t
slot_offset(long step, std::size_t n)
{
    long m = static_cast<long>(n);
    return static_cast<std::size_t>((step % m + m) % m);
}

} // namespace

Bootstrapper::Bootstrapper(CkksContextPtr ctx, const CkksEncoder &encoder,
                           KeyGenerator &keygen)
    : ctx_(std::move(ctx)), encoder_(encoder)
{
    std::size_t ns = ctx_->slots();
    plan_ = plan_bootstrap(ns, ctx_->params().L, ctx_->params().K,
                           ctx_->degree());

    // CoeffToSlot: the inverse FFT's butterfly layers. The stages fold
    // in the FFT's 1/ns, the Delta/q0 that leaves t/q0 in the slots,
    // and the 1/2 of the real/imaginary split, as sqrt(fold) each: a
    // diagonal's encoding error is absolute, so the stages' relative
    // errors are smallest when their entries are equally large.
    double q0 = static_cast<double>(ctx_->ring()->prime(0));
    double fold = std::sqrt(ctx_->params().scale() / q0 / (2.0 * ns));
    for (const BootstrapPlan::Stage &st : plan_.coeffToSlot) {
        cts_.push_back(make_stage(
            matrix_of(ns, fold, [&](std::vector<cdouble> &v) {
                encoder_.fft_inv_layers(v, st.layerBegin, st.layerEnd);
            }), st));
    }

    // SlotToCoeff: fft_special after the bit reversal that restores
    // natural order. fft_special starts with that same reversal, so
    // this is its butterfly layers alone. Every entry of a butterfly
    // product is one unit-modulus twiddle path, so no stage needs a
    // fold.
    for (const BootstrapPlan::Stage &st : plan_.slotToCoeff) {
        stc_.push_back(make_stage(
            matrix_of(ns, 1.0, [&](std::vector<cdouble> &v) {
                encoder_.fft_layers(v, st.layerBegin, st.layerEnd);
            }), st));
    }

    // Keys: relinearization, every stage's rotations, conjugation.
    relin_ = keygen.make_relin_key();
    std::set<long> steps;
    auto add = [&](long r) {
        if (std::size_t o = slot_offset(r, ns)) steps.insert(long(o));
    };
    for (const auto *t : {&plan_.coeffToSlot, &plan_.slotToCoeff}) {
        for (const BootstrapPlan::Stage &st : *t) {
            for (long r : st.babies) add(r);
            for (const auto &o : st.offsets) add(o.giant);
        }
    }
    gk_ = keygen.make_galois_keys({steps.begin(), steps.end()},
                                  /*includeConjugate=*/true);
}

std::vector<Plaintext>
Bootstrapper::make_stage(const std::vector<cdouble> &m,
                         const BootstrapPlan::Stage &st) const
{
    // Diagonal o is diag_o[j] = M[j][(j+o) mod n]. Butterfly layers
    // leave structural zeros exactly zero, so the test is exact.
    std::size_t n = ctx_->slots();
    POSEIDON_REQUIRE(m.size() == n * n, "make_stage: not an n x n matrix");
    auto at = [&](std::size_t j, std::size_t k) { return m[k * n + j]; };
    auto offset = [&](const BootstrapPlan::Stage::Offset &o) {
        return slot_offset(o.giant + st.babies[o.baby], n);
    };
    std::vector<bool> planned(n, false);
    for (const auto &o : st.offsets) planned[offset(o)] = true;
    for (std::size_t o = 0; o < n; ++o) {
        for (std::size_t j = 0; j < n && !planned[o]; ++j) {
            POSEIDON_REQUIRE_T(InternalError,
                               at(j, (j + o) % n) == cdouble(0, 0),
                               "make_stage: nonzero diagonal " << o
                               << " outside the bootstrap plan");
        }
    }

    // Each diagonal is pre-rotated right by its giant step, which the
    // group's giant rotation undoes, and encoded at the prime the
    // stage's rescale drops, so the stage returns its input's scale
    // exactly, over the extended basis the products run in.
    double scale = static_cast<double>(ctx_->ring()->prime(st.limbs - 1));
    std::vector<Plaintext> out;
    std::vector<cdouble> diag(n);
    for (const auto &o : st.offsets) {
        std::size_t shift = slot_offset(o.giant, n);
        for (std::size_t j = 0; j < n; ++j) {
            std::size_t row = (j + n - shift) % n;
            diag[j] = at(row, (row + offset(o)) % n);
        }
        out.push_back(encoder_.encode_extended(diag, st.limbs, scale));
    }
    return out;
}

Ciphertext
Bootstrapper::mod_raise(const Ciphertext &ct) const
{
    POSEIDON_REQUIRE(ct.num_limbs() == 1,
                     "mod_raise: input must sit at the bottom level");
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t L = ctx_->params().L;
    u64 q0 = ring->prime(0);
    const RnsBasis &full = ring->ct_basis(L);

    auto raise_poly = [&](const RnsPoly &in) {
        RnsPoly c = in;
        c.to_coeff();
        RnsPoly out = RnsPoly::ct(ring, L, Domain::Coeff);
        std::vector<u64> res(L);
        const u64 *src = c.limb(0);
        for (std::size_t t = 0; t < n; ++t) {
            i64 v = centered(src[t], q0);
            full.decompose(v, res.data());
            for (std::size_t k = 0; k < L; ++k) out.limb(k)[t] = res[k];
        }
        out.to_eval();
        return out;
    };

    Ciphertext out;
    out.c0 = raise_poly(ct.c0);
    out.c1 = raise_poly(ct.c1);
    out.scale = ct.scale;
    return out;
}

Ciphertext
Bootstrapper::mul_cscalar(const Ciphertext &ct, cdouble v,
                          const CkksEvaluator &eval) const
{
    // Encode the constant at Delta*q/scale so the rescaled result sits
    // at exactly Delta. Any relative deviation entering EvalMod would
    // otherwise be amplified exponentially by the double-angle
    // squarings (each squaring doubles the log-scale error).
    double delta = ctx_->params().scale();
    u64 q = ct.c0.prime(ct.num_limbs() - 1);
    double e = delta * static_cast<double>(q) / ct.scale;
    POSEIDON_REQUIRE(e >= 1.0, "mul_cscalar: scale too large to "
                               "normalize at this level");
    Plaintext pt = encoder_.encode_scalar(v, ct.num_limbs(), e);
    Ciphertext out = eval.mul_plain(ct, pt);
    eval.rescale_inplace(out);
    out.scale = delta;
    return out;
}

void
Bootstrapper::mul_monomial_inplace(Ciphertext &ct, cdouble unit) const
{
    Plaintext m = encoder_.encode_scalar(unit, ct.num_limbs(), 1.0);
    ct.c0.mul_inplace(m.poly);
    ct.c1.mul_inplace(m.poly);
}

Ciphertext
Bootstrapper::add_cscalar(const Ciphertext &ct, cdouble v) const
{
    Plaintext pt = encoder_.encode_scalar(v, ct.num_limbs(), ct.scale);
    Ciphertext out = ct;
    out.c0.add_inplace(pt.poly);
    return out;
}

Ciphertext
Bootstrapper::linear_transform(const Ciphertext &ct,
                               const BootstrapPlan::Stage &st,
                               const std::vector<Plaintext> &diags,
                               const CkksEvaluator &eval) const
{
    POSEIDON_REQUIRE(ct.num_limbs() >= st.limbs,
                     "linear_transform: input below the stage's level");
    Ciphertext in = ct;
    if (in.num_limbs() > st.limbs) eval.drop_to_limbs_inplace(in, st.limbs);

    // Double hoisting (Bossuat et al. 2021): the baby-step rotations
    // share one digit decomposition of c1 and stay over the extended
    // basis QP, where each giant group multiplies its diagonals. A
    // group with a giant step pays one ModDown before its rotation,
    // whose keyswitch lands back in QP; one fused ModDown + rescale of
    // the sum ends the stage.
    std::vector<Ciphertext> rots = eval.rotate_hoisted_ext(in, st.babies, gk_);

    Ciphertext acc;
    std::vector<const Ciphertext*> cts;
    std::vector<const Plaintext*> pts;
    for (std::size_t i = 0, j; i < st.offsets.size(); i = j) {
        long giant = st.offsets[i].giant;
        cts.clear();
        pts.clear();
        for (j = i; j < st.offsets.size() && st.offsets[j].giant == giant;
             ++j) {
            cts.push_back(&rots[st.offsets[j].baby]);
            pts.push_back(&diags[j]);
        }
        Ciphertext inner = eval.dot_plain(cts, pts);
        if (giant != 0) {
            inner = eval.rotate_ext(eval.mod_down(std::move(inner)), giant,
                                    gk_);
        }
        if (i == 0) {
            acc = std::move(inner);
        } else {
            eval.add_inplace(acc, inner);
        }
    }
    eval.rescale_inplace(acc);
    return acc;
}

std::pair<Ciphertext, Ciphertext>
Bootstrapper::coeff_to_slot(const Ciphertext &ct,
                            const CkksEvaluator &eval,
                            double msgScale) const
{
    // The stages carry Delta/q0 for a message at scale Delta; relabel
    // the input so a message at msgScale comes out as exactly t/q0.
    if (msgScale <= 0.0) msgScale = ctx_->params().scale();
    Ciphertext z = ct;
    z.scale = ct.scale * (ctx_->params().scale() / msgScale);
    for (std::size_t i = 0; i < cts_.size(); ++i) {
        z = linear_transform(z, plan_.coeffToSlot[i], cts_[i], eval);
    }
    Ciphertext zc = eval.conjugate(z, gk_);

    // The stages folded in 1/2: lo = z + conj z, hi = (z - conj z)*(-i),
    // with -i the monomial -X^{N/2} (exact, no level).
    Ciphertext lo = eval.add(z, zc);
    Ciphertext hi = eval.sub(z, zc);
    mul_monomial_inplace(hi, cdouble(0.0, -1.0));
    return {std::move(lo), std::move(hi)};
}

Ciphertext
Bootstrapper::eval_mod(const Ciphertext &ct, const CkksEvaluator &eval,
                       double msgScale) const
{
    double q0 = static_cast<double>(ctx_->ring()->prime(0));
    double delta = msgScale > 0.0 ? msgScale : ctx_->params().scale();

    // y = 2*pi*x / 2^r.
    double argScale = 2.0 * M_PI / std::ldexp(1.0, kDoubleAngles);
    Ciphertext y = mul_cscalar(ct, cdouble(argScale, 0.0), eval);

    // Taylor coefficients of exp(i*y): c_d = i^d / d!.
    std::vector<cdouble> c(kTaylorDegree + 1);
    double fact = 1.0;
    for (unsigned d = 0; d <= kTaylorDegree; ++d) {
        if (d > 0) fact *= static_cast<double>(d);
        cdouble id;
        switch (d % 4) {
          case 0: id = cdouble(1, 0); break;
          case 1: id = cdouble(0, 1); break;
          case 2: id = cdouble(-1, 0); break;
          default: id = cdouble(0, -1); break;
        }
        c[d] = id / fact;
    }

    // Horner: u = (..((c_deg*y + c_{deg-1})*y + ...)*y + c_0.
    Ciphertext u = mul_cscalar(y, c[kTaylorDegree], eval);
    u = add_cscalar(u, c[kTaylorDegree - 1]);
    for (unsigned d = kTaylorDegree - 1; d-- > 0;) {
        Ciphertext yMatched = y;
        eval.drop_to_limbs_inplace(yMatched, u.num_limbs());
        u = eval.mul(u, yMatched, relin_);
        eval.rescale_inplace(u);
        u = add_cscalar(u, c[d]);
    }

    // Double angle: square r times to reach exp(2*pi*i*x).
    for (unsigned i = 0; i < kDoubleAngles; ++i) {
        u = eval.square(u, relin_);
        eval.rescale_inplace(u);
    }

    // sin(2 pi x) * q0 / (2 pi): (u - conj u) * (-i/2) * q0/(2 pi delta)
    // — the final delta folds the result back to message scale.
    Ciphertext uc = eval.conjugate(u, gk_);
    Ciphertext s = eval.sub(u, uc);
    double k = q0 / (2.0 * M_PI * delta);
    return mul_cscalar(s, cdouble(0.0, -0.5) * k, eval);
}

Ciphertext
Bootstrapper::slot_to_coeff(const Ciphertext &lo, const Ciphertext &hi,
                            const CkksEvaluator &eval) const
{
    // z = lo + i*hi with i the monomial X^{N/2}: EvalMod leaves both
    // at one level and exactly Delta, so the sum is exact and costs no
    // level.
    Ciphertext z = hi;
    mul_monomial_inplace(z, cdouble(0.0, 1.0));
    eval.add_inplace(z, lo);
    for (std::size_t i = 0; i < stc_.size(); ++i) {
        z = linear_transform(z, plan_.slotToCoeff[i], stc_[i], eval);
    }
    return z;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct,
                        const CkksEvaluator &eval) const
{
    POSEIDON_SPAN("Bootstrapper::bootstrap");
    telemetry::count("ckks.ops.bootstrap");
    std::size_t levels = plan_.levels();
    POSEIDON_REQUIRE(ctx_->params().L >= levels + 2,
                     "bootstrap: modulus chain too short: a bootstrap "
                     "consumes " << levels << " levels, so L must be at "
                     "least " << levels + 2);
    Ciphertext in = ct;
    if (in.num_limbs() > 1) eval.drop_to_limbs_inplace(in, 1);

    double msgScale = in.scale;
    Ciphertext raised = mod_raise(in);
    auto [lo, hi] = coeff_to_slot(raised, eval, msgScale);
    Ciphertext mlo = eval_mod(lo, eval, msgScale);
    Ciphertext mhi = eval_mod(hi, eval, msgScale);
    Ciphertext out = slot_to_coeff(mlo, mhi, eval);
    // The EvalMod constant already folded 1/msgScale, so the output
    // message is back at the scale the pipeline tracked.
    return out;
}

} // namespace poseidon
