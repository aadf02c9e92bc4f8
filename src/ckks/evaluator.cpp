#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"
#include "poly/automorphism.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace poseidon {

namespace {

/// Relative tolerance when two scales must match.
constexpr double kScaleTol = 1e-6;

bool
scales_close(double a, double b)
{
    return std::abs(a - b) <= kScaleTol * std::max(std::abs(a),
                                                   std::abs(b));
}

/// One keyswitch's telemetry: its span, one ckks.ops.keyswitch count
/// and its wall time in ckks.keyswitch_us.
struct KeyswitchTelemetry
{
    telemetry::SpanScope span{"Evaluator::keyswitch"};
    telemetry::ScopedLatency lat{"ckks.keyswitch_us"};

    KeyswitchTelemetry() { telemetry::count("ckks.ops.keyswitch"); }
};

} // namespace

CkksEvaluator::CkksEvaluator(CkksContextPtr ctx)
    : ctx_(std::move(ctx))
{
    POSEIDON_REQUIRE(ctx_ != nullptr, "CkksEvaluator: null context");
}

void
CkksEvaluator::require_q_basis(const RnsPoly &p, const char *op) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch, !ctx_->is_extended(p),
                       op << ": ciphertext spans the extended basis QP; "
                       "rescale_inplace or mod_down it first");
}

void
CkksEvaluator::check_same_shape(const Ciphertext &a,
                                const Ciphertext &b) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       a.degree() == ctx_->degree() &&
                       b.degree() == ctx_->degree(),
                       "evaluator: ciphertext degree does not match "
                       "the context (N=" << ctx_->degree() << ")");
    POSEIDON_REQUIRE_T(ShapeMismatch, a.num_limbs() == b.num_limbs(),
                       "evaluator: operands at different levels ("
                       << a.num_limbs() << " vs " << b.num_limbs()
                       << " limbs)");
    POSEIDON_REQUIRE_T(ShapeMismatch, scales_close(a.scale, b.scale),
                       "evaluator: operands at different scales ("
                       << a.scale << " vs " << b.scale << ")");
}

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    Ciphertext out = a;
    add_inplace(out, b);
    return out;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    Ciphertext out = a;
    sub_inplace(out, b);
    return out;
}

void
CkksEvaluator::add_inplace(Ciphertext &a, const Ciphertext &b) const
{
    telemetry::count("ckks.ops.add");
    check_same_shape(a, b);
    a.c0.add_inplace(b.c0);
    a.c1.add_inplace(b.c1);
}

void
CkksEvaluator::sub_inplace(Ciphertext &a, const Ciphertext &b) const
{
    telemetry::count("ckks.ops.sub");
    check_same_shape(a, b);
    a.c0.sub_inplace(b.c0);
    a.c1.sub_inplace(b.c1);
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    out.c0.negate_inplace();
    out.c1.negate_inplace();
    return out;
}

Ciphertext
CkksEvaluator::add_plain(const Ciphertext &a, const Plaintext &p) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch, a.num_limbs() == p.num_limbs(),
                       "add_plain: level mismatch (" << a.num_limbs()
                       << " vs " << p.num_limbs() << " limbs)");
    POSEIDON_REQUIRE_T(ShapeMismatch, scales_close(a.scale, p.scale),
                       "add_plain: scale mismatch (" << a.scale
                       << " vs " << p.scale << ")");
    Ciphertext out = a;
    out.c0.add_inplace(p.poly);
    return out;
}

Ciphertext
CkksEvaluator::mul_plain(const Ciphertext &a, const Plaintext &p) const
{
    telemetry::count("ckks.ops.mul_plain");
    POSEIDON_REQUIRE_T(ShapeMismatch, a.num_limbs() == p.num_limbs(),
                       "mul_plain: level mismatch (" << a.num_limbs()
                       << " vs " << p.num_limbs() << " limbs)");
    Ciphertext out = a;
    out.c0.mul_inplace(p.poly);
    out.c1.mul_inplace(p.poly);
    out.scale = a.scale * p.scale;
    return out;
}

Ciphertext
CkksEvaluator::dot_plain(const std::vector<const Ciphertext*> &cts,
                         const std::vector<const Plaintext*> &pts) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       !cts.empty() && cts.size() == pts.size(),
                       "dot_plain: " << cts.size() << " ciphertexts vs "
                       << pts.size() << " plaintexts");
    const Ciphertext &a = *cts.front();
    const Plaintext &p = *pts.front();
    std::size_t limbs = a.num_limbs();
    for (std::size_t t = 0; t < cts.size(); ++t) {
        check_same_shape(a, *cts[t]);
        POSEIDON_REQUIRE_T(ShapeMismatch, a.c0.compatible(pts[t]->poly),
                           "dot_plain: plaintext " << t << " level "
                           "mismatch (" << pts[t]->num_limbs() << " vs "
                           << limbs << " limbs)");
        POSEIDON_REQUIRE_T(ShapeMismatch,
                           scales_close(p.scale, pts[t]->scale),
                           "dot_plain: plaintext " << t << " scale "
                           "mismatch (" << pts[t]->scale << " vs "
                           << p.scale << ")");
    }
    telemetry::count("ckks.ops.mul_plain", static_cast<double>(cts.size()));

    std::size_t n = ctx_->degree();
    const auto &ring = ctx_->ring();
    Ciphertext out;
    out.c0 = RnsPoly(ring, a.c0.prime_indices(), Domain::Eval);
    out.c1 = RnsPoly(ring, a.c0.prime_indices(), Domain::Eval);
    out.scale = a.scale * p.scale;
    std::size_t terms = cts.size();
    parallel::parallel_for(0, limbs, 1,
        [&](std::size_t k0, std::size_t k1) {
            std::vector<const u64*> x0(terms), x1(terms), y(terms);
            for (std::size_t k = k0; k < k1; ++k) {
                u64 q = out.c0.prime(k);
                for (std::size_t t = 0; t < terms; ++t) {
                    x0[t] = cts[t]->c0.limb(k);
                    x1[t] = cts[t]->c1.limb(k);
                    y[t] = pts[t]->poly.limb(k);
                }
                kernels::dot_mod_n(out.c0.limb(k), x0.data(), y.data(),
                                   nullptr, terms, n, q, q);
                kernels::dot_mod_n(out.c1.limb(k), x1.data(), y.data(),
                                   nullptr, terms, n, q, q);
            }
        }, "ckks.dot_plain");
    return out;
}

Ciphertext
CkksEvaluator::mul_scalar(const Ciphertext &a, double value,
                          double scale) const
{
    if (scale <= 0.0) scale = ctx_->params().scale();
    Ciphertext out =
        mul_integer(a, static_cast<i64>(std::llround(value * scale)));
    out.scale = a.scale * scale;
    return out;
}

Ciphertext
CkksEvaluator::mul_integer(const Ciphertext &a, i64 value) const
{
    Ciphertext out = a;
    std::vector<u64> s(a.num_limbs());
    for (std::size_t k = 0; k < a.num_limbs(); ++k) {
        s[k] = signed_residue(value, a.c0.prime(k));
    }
    out.c0.mul_scalar_inplace(s);
    out.c1.mul_scalar_inplace(s);
    return out;
}

Ciphertext
CkksEvaluator::mul(const Ciphertext &a, const Ciphertext &b,
                   const KSwitchKey &relinKey) const
{
    POSEIDON_SPAN("Evaluator::mul");
    telemetry::count("ckks.ops.mul");
    require_q_basis(a.c0, "mul");
    require_q_basis(b.c0, "mul");
    POSEIDON_REQUIRE_T(ShapeMismatch, a.num_limbs() == b.num_limbs(),
                       "mul: level mismatch (" << a.num_limbs()
                       << " vs " << b.num_limbs() << " limbs)");
    POSEIDON_REQUIRE(!relinKey.empty(),
                     "mul: empty relinearization key");
    std::size_t n = ctx_->degree();
    const auto &ring = ctx_->ring();
    std::size_t limbs = a.num_limbs();

    // Tensor: d0 = a0*b0, d1 = a0*b1 + a1*b0, d2 = a1*b1.
    RnsPoly d0 = a.c0;
    d0.mul_inplace(b.c0);
    RnsPoly d2 = a.c1;
    d2.mul_inplace(b.c1);

    RnsPoly d1 = RnsPoly::ct(ring, limbs, Domain::Eval);
    parallel::parallel_for(0, limbs, 1,
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 q = ring->prime(k);
                const u64 *x[2] = {a.c0.limb(k), a.c1.limb(k)};
                const u64 *y[2] = {b.c1.limb(k), b.c0.limb(k)};
                kernels::dot_mod_n(d1.limb(k), x, y, nullptr, 2, n, q, q);
            }
        }, "ckks.tensor");

    // Relinearize d2 into QP: (P*d0 + acc0, P*d1 + acc1). Its ModDown
    // is left to rescale_inplace, which fuses it with the rescale.
    KeyswitchTelemetry ks;
    std::vector<std::size_t> extIdx = ctx_->extended_indices(limbs);
    Ciphertext out;
    std::tie(out.c0, out.c1) =
        key_product(decompose_digits_eval(d2, extIdx), relinKey, extIdx,
                    {}, &d0, &d1);
    out.scale = a.scale * b.scale;
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &a, const KSwitchKey &relinKey) const
{
    return mul(a, a, relinKey);
}

CkksEvaluator::Digits
CkksEvaluator::decompose_digits_eval(
    const RnsPoly &d, const std::vector<std::size_t> &extIdx) const
{
    POSEIDON_REQUIRE(d.domain() == Domain::Eval,
                     "decompose_digits_eval: needs d in the eval domain");
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t limbs = d.num_limbs();
    std::size_t alpha = ctx_->alpha();
    std::size_t numDigits = ctx_->num_digits(limbs);
    RnsPoly dCoeff = d;
    dCoeff.to_coeff();

    Digits out(numDigits);
    for (std::size_t j = 0; j < numDigits; ++j) {
        std::size_t start = j * alpha;
        std::size_t len = std::min(alpha, limbs - start);
        auto own = [&](std::size_t m) {
            return m >= start && m < start + len;
        };
        out[j].assign(extIdx.size(), std::vector<u64>(n));

        // A multi-prime digit's conversion operands are computed once;
        // digit_conv's destination is extIdx without the digit's own
        // primes, in order, so row m is its destination row m (before
        // the digit) or m - len (after it).
        const RnsConv *conv = nullptr;
        RnsConv::Operands ops;
        if (len > 1) {
            conv = &ctx_->digit_conv(limbs, j);
            std::vector<const u64*> src(len);
            for (std::size_t k = 0; k < len; ++k) {
                src[k] = dCoeff.limb(start + k);
            }
            ops = conv->operands(src, n);
        }

        // The digit's own residues are d's evaluation-domain limbs
        // already; every other row is reduced (one-prime digits) or
        // converted, then forward-transformed while it is in cache.
        // Rows are independent, so the m loop parallelizes cleanly.
        const u64 *digit = dCoeff.limb(start);
        parallel::parallel_for(0, extIdx.size(), 1,
            [&](std::size_t m0, std::size_t m1) {
                for (std::size_t m = m0; m < m1; ++m) {
                    std::vector<u64> &buf = out[j][m];
                    if (own(m)) {
                        std::copy(d.limb(m), d.limb(m) + n,
                                  buf.begin());
                        continue;
                    }
                    std::size_t pidx = extIdx[m];
                    if (conv) {
                        conv->row(ops, m < start ? m : m - len,
                                  buf.data());
                    } else {
                        kernels::reduce_mod_n(buf.data(), digit, n,
                                              ring->prime(pidx));
                    }
                    ring->table(pidx).forward(buf.data());
                }
            }, "ckks.decompose");
    }
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::key_product(const Digits &digits, const KSwitchKey &key,
                           const std::vector<std::size_t> &extIdx,
                           const std::vector<u32> &perm,
                           const RnsPoly *c0, const RnsPoly *c1) const
{
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t numDigits = digits.size();
    POSEIDON_REQUIRE_T(ShapeMismatch, key.pieces.size() >= numDigits,
                       "keyswitch: switching key has " << key.pieces.size()
                       << " pieces, need " << numDigits);

    // Each extended limb m is one fused dot product per component:
    // term j < numDigits is digit j times key piece j, and on the
    // q-limbs one more term adds c times the scalar P mod q_m (P*c is
    // exact mod q_m and zero mod every p_j). Limbs are independent, so
    // the bytes are the same at any thread count. The permuted-digit
    // scratch is chunk-local.
    std::size_t limbs = c0 ? c0->num_limbs() : 0;
    RnsPoly acc0(ring, extIdx, Domain::Eval);
    RnsPoly acc1(ring, extIdx, Domain::Eval);
    parallel::parallel_for(0, extIdx.size(), 1,
        [&](std::size_t m0, std::size_t m1) {
            std::size_t terms = numDigits + 1;
            std::vector<const u64*> x(terms), kb(terms), ka(terms);
            std::vector<u64> w(terms, 0);
            std::vector<u64> tmp(perm.empty() ? 0 : terms * n);
            auto permuted = [&](const u64 *src,
                                std::size_t k) -> const u64* {
                if (perm.empty()) return src;
                automorphism_eval_limb(src, tmp.data() + k * n, n, perm);
                return tmp.data() + k * n;
            };
            for (std::size_t m = m0; m < m1; ++m) {
                std::size_t pidx = extIdx[m];
                u64 qm = ring->prime(pidx);
                for (std::size_t j = 0; j < numDigits; ++j) {
                    x[j] = permuted(digits[j][m].data(), j);
                    kb[j] = key.pieces[j].b.limb(pidx);
                    ka[j] = key.pieces[j].a.limb(pidx);
                }
                bool withC0 = m < limbs;
                bool withC1 = withC0 && c1 != nullptr;
                if (withC0) {
                    w[numDigits] = ctx_->p_mod_qi(pidx);
                    x[numDigits] = permuted(c0->limb(m), numDigits);
                }
                kernels::dot_mod_n(acc0.limb(m), x.data(), kb.data(),
                                   w.data(), numDigits + withC0, n, qm,
                                   qm);
                if (withC1) {
                    x[numDigits] = permuted(c1->limb(m), numDigits);
                }
                kernels::dot_mod_n(acc1.limb(m), x.data(), ka.data(),
                                   w.data(), numDigits + withC1, n, qm,
                                   qm);
            }
        }, "ckks.keyswitch_acc");
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::mod_down_pair(RnsPoly &&acc0, RnsPoly &&acc1,
                             std::size_t limbs) const
{
    // ModDown in the evaluation domain, in place: only the divided-out
    // tail limbs go to the coefficient domain (base conversion needs
    // them there). Then each kept limb is one pass while it is in
    // cache: its converted row, that row's forward NTT, and the
    // subtract-and-scale, which is linear mod q_i and so gives the
    // same bytes as the coefficient-domain ModDown::apply().
    POSEIDON_REQUIRE_T(ShapeMismatch, acc1.compatible(acc0),
                       "mod_down: ciphertext components disagree");
    if (ctx_->is_extended(acc0)) telemetry::count("ckks.ops.mod_down");
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    const std::vector<std::size_t> &idx = acc0.prime_indices();
    std::vector<std::size_t> tail(idx.begin() + limbs, idx.end());
    const ModDown &md = ctx_->mod_down(limbs, tail);

    auto run_moddown = [&](RnsPoly &acc) {
        parallel::parallel_for(limbs, acc.num_limbs(), 1,
            [&](std::size_t m0, std::size_t m1) {
                for (std::size_t m = m0; m < m1; ++m) {
                    ring->table(acc.prime_index(m)).inverse(acc.limb(m));
                }
            }, "ckks.moddown_intt");
        std::vector<const u64*> xp;
        for (std::size_t m = limbs; m < acc.num_limbs(); ++m) {
            xp.push_back(acc.limb(m));
        }
        RnsConv::Operands ops = md.conv().operands(xp, n);
        parallel::parallel_for(0, limbs, 1,
            [&](std::size_t i0, std::size_t i1) {
                std::vector<u64> row(n);
                for (std::size_t i = i0; i < i1; ++i) {
                    md.conv().row(ops, i, row.data());
                    ring->table(acc.prime_index(i)).forward(row.data());
                    md.finish_row(i, acc.limb(i), acc.limb(i), row.data(),
                                  n);
                }
            }, "ckks.moddown");
        while (acc.num_limbs() > limbs) acc.drop_last_limb();
    };

    run_moddown(acc0);
    run_moddown(acc1);
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keyswitch_core(const RnsPoly &d, const KSwitchKey &key) const
{
    KeyswitchTelemetry ks;
    require_q_basis(d, "keyswitch_core");
    POSEIDON_REQUIRE(d.domain() == Domain::Eval,
                     "keyswitch_core: input must be in Eval domain");
    std::size_t limbs = d.num_limbs();
    std::vector<std::size_t> extIdx = ctx_->extended_indices(limbs);
    auto [acc0, acc1] = key_product(decompose_digits_eval(d, extIdx), key,
                                    extIdx, {}, nullptr, nullptr);
    return mod_down_pair(std::move(acc0), std::move(acc1), limbs);
}

void
CkksEvaluator::rescale_inplace(Ciphertext &a) const
{
    POSEIDON_SPAN("Evaluator::rescale");
    telemetry::count("ckks.ops.rescale");
    telemetry::ScopedLatency lat("ckks.rescale_us");
    std::size_t limbs = a.num_limbs();
    if (ctx_->is_extended(a.c0)) limbs -= ctx_->params().K;
    POSEIDON_REQUIRE_T(NoiseBudgetExhausted, limbs >= 2,
                       "rescale: no modulus level left to drop");
    u64 ql = a.c0.prime(limbs - 1);
    // One ModDown divides by q_l, or by q_l * P over QP.
    std::tie(a.c0, a.c1) =
        mod_down_pair(std::move(a.c0), std::move(a.c1), limbs - 1);
    a.scale /= static_cast<double>(ql);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &a) const
{
    Ciphertext out = a;
    rescale_inplace(out);
    return out;
}

Ciphertext
CkksEvaluator::adjust_scale(const Ciphertext &a, double targetScale) const
{
    POSEIDON_REQUIRE_T(NoiseBudgetExhausted, a.num_limbs() >= 2,
                       "adjust_scale: needs a level to spend");
    POSEIDON_REQUIRE(targetScale > 0, "adjust_scale: bad target scale "
                     << targetScale);
    u64 q = a.c0.prime(a.num_limbs() - 1);
    double e = targetScale * static_cast<double>(q) / a.scale;
    POSEIDON_REQUIRE_T(NoiseBudgetExhausted, e >= 1.0,
                       "adjust_scale: target scale " << targetScale
                       << " unreachable from " << a.scale
                       << " at this level");
    Ciphertext out = mul_scalar(a, 1.0, e);
    rescale_inplace(out);
    // Kill floating-point drift: the scale is targetScale by
    // construction (up to the integer rounding of e, already absorbed
    // into the ciphertext noise).
    out.scale = targetScale;
    return out;
}

void
CkksEvaluator::equalize_inplace(Ciphertext &a, Ciphertext &b) const
{
    std::size_t limbs = std::min(a.num_limbs(), b.num_limbs());
    POSEIDON_REQUIRE_T(NoiseBudgetExhausted, limbs >= 2,
                       "equalize: needs a level to spend");
    drop_to_limbs_inplace(a, limbs);
    drop_to_limbs_inplace(b, limbs);
    double target = std::min(a.scale, b.scale);
    a = adjust_scale(a, target);
    b = adjust_scale(b, target);
}

void
CkksEvaluator::drop_to_limbs_inplace(Ciphertext &a, std::size_t limbs) const
{
    require_q_basis(a.c0, "drop_to_limbs");
    POSEIDON_REQUIRE(limbs >= 1 && limbs <= a.num_limbs(),
                     "drop_to_limbs: bad target");
    while (a.num_limbs() > limbs) {
        a.c0.drop_last_limb();
        a.c1.drop_last_limb();
    }
}

void
CkksEvaluator::drop_to_limbs_inplace(Plaintext &p, std::size_t limbs) const
{
    POSEIDON_REQUIRE(limbs >= 1 && limbs <= p.num_limbs(),
                     "drop_to_limbs: bad target");
    while (p.num_limbs() > limbs) p.poly.drop_last_limb();
}

std::vector<Ciphertext>
CkksEvaluator::rotate_hoisted_ext(const Ciphertext &a,
                                  const std::vector<long> &steps,
                                  const GaloisKeys &keys) const
{
    telemetry::SpanScope span("Evaluator::rotate_hoisted");
    span.attr("steps", telemetry::Json(steps.size()));
    telemetry::count("ckks.ops.rotate_hoisted");
    require_q_basis(a.c0, "rotate_hoisted_ext");
    std::size_t n = ctx_->degree();
    std::size_t limbs = a.num_limbs();
    std::vector<std::size_t> extIdx = ctx_->extended_indices(limbs);

    // Hoist: decompose c1 once; digits of tau_g(c1) are tau_g of the
    // digits, which in the evaluation domain is a permutation.
    Digits digits = decompose_digits_eval(a.c1, extIdx);

    // A zero step lifts a to P*a: [P]_q on the q-limbs, zero special
    // limbs.
    std::vector<u64> pModQ(limbs);
    for (std::size_t i = 0; i < limbs; ++i) pModQ[i] = ctx_->p_mod_qi(i);
    auto lift = [&](const RnsPoly &x) {
        RnsPoly y = x;
        y.mul_scalar_inplace(pModQ);
        for (std::size_t m = limbs; m < extIdx.size(); ++m) {
            y.append_limb(extIdx[m]);
        }
        return y;
    };

    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    for (long step : steps) {
        u64 g = galois_element_for_step(n, step);
        Ciphertext r;
        r.scale = a.scale;
        if (g == 1) {
            r.c0 = lift(a.c0);
            r.c1 = lift(a.c1);
        } else {
            std::tie(r.c0, r.c1) =
                key_product(digits, keys.get(g), extIdx,
                            make_eval_permutation(n, g), &a.c0, nullptr);
        }
        out.push_back(std::move(r));
    }
    return out;
}

Ciphertext
CkksEvaluator::rotate_ext(const Ciphertext &a, long step,
                          const GaloisKeys &keys) const
{
    u64 g = galois_element_for_step(ctx_->degree(), step);
    POSEIDON_REQUIRE(g != 1, "rotate_ext: zero rotation step");
    return galois_ext(a, g, keys.get(g));
}

Ciphertext
CkksEvaluator::galois_ext(const Ciphertext &a, u64 g,
                          const KSwitchKey &key) const
{
    // tau_g on both components, then tau_g(c1)'s key back to s in QP.
    KeyswitchTelemetry ks;
    telemetry::count("ckks.ops.rotation");
    require_q_basis(a.c0, "rotate");
    RnsPoly c0g = automorphism(a.c0, g);
    RnsPoly c1g = automorphism(a.c1, g);
    std::vector<std::size_t> extIdx =
        ctx_->extended_indices(a.num_limbs());
    Ciphertext out;
    std::tie(out.c0, out.c1) = key_product(
        decompose_digits_eval(c1g, extIdx), key, extIdx, {}, &c0g,
        nullptr);
    out.scale = a.scale;
    return out;
}

Ciphertext
CkksEvaluator::mod_down(Ciphertext &&a) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch, ctx_->is_extended(a.c0),
                       "mod_down: ciphertext is not over an extended "
                       "basis");
    std::size_t limbs = a.num_limbs() - ctx_->params().K;
    Ciphertext out;
    std::tie(out.c0, out.c1) =
        mod_down_pair(std::move(a.c0), std::move(a.c1), limbs);
    out.scale = a.scale;
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &a, long steps,
                      const GaloisKeys &keys) const
{
    require_q_basis(a.c0, "rotate");
    u64 g = galois_element_for_step(ctx_->degree(), steps);
    if (g == 1) return a;
    return mod_down(galois_ext(a, g, keys.get(g)));
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &a, const GaloisKeys &keys) const
{
    require_q_basis(a.c0, "conjugate");
    u64 g = galois_element_conjugate(ctx_->degree());
    return mod_down(galois_ext(a, g, keys.get(g)));
}

} // namespace poseidon
