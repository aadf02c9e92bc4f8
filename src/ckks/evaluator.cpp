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
CkksEvaluator::sub_plain(const Ciphertext &a, const Plaintext &p) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch, a.num_limbs() == p.num_limbs(),
                       "sub_plain: level mismatch (" << a.num_limbs()
                       << " vs " << p.num_limbs() << " limbs)");
    POSEIDON_REQUIRE_T(ShapeMismatch, scales_close(a.scale, p.scale),
                       "sub_plain: scale mismatch (" << a.scale
                       << " vs " << p.scale << ")");
    Ciphertext out = a;
    out.c0.sub_inplace(p.poly);
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
    parallel::parallel_for(0, limbs, 1,
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 q = out.c0.prime(k);
                u64 *o0 = out.c0.limb(k); // zero-initialized
                u64 *o1 = out.c1.limb(k);
                for (std::size_t t = 0; t < cts.size(); ++t) {
                    const u64 *pt = pts[t]->poly.limb(k);
                    kernels::mul_mod_acc_lazy_n(o0, cts[t]->c0.limb(k),
                                                pt, n, q);
                    kernels::mul_mod_acc_lazy_n(o1, cts[t]->c1.limb(k),
                                                pt, n, q);
                }
                kernels::normalize_n(o0, n, q);
                kernels::normalize_n(o1, n, q);
            }
        }, "ckks.dot_plain");
    return out;
}

Ciphertext
CkksEvaluator::mul_scalar(const Ciphertext &a, double value,
                          double scale) const
{
    if (scale <= 0.0) scale = ctx_->params().scale();
    i64 scaled = static_cast<i64>(std::llround(value * scale));
    Ciphertext out = a;
    std::vector<u64> s(a.num_limbs());
    for (std::size_t k = 0; k < a.num_limbs(); ++k) {
        u64 q = a.c0.prime(k);
        if (scaled >= 0) {
            s[k] = static_cast<u64>(scaled) % q;
        } else {
            u64 m = static_cast<u64>(-(scaled + 1)) + 1;
            u64 r = m % q;
            s[k] = r == 0 ? 0 : q - r;
        }
    }
    out.c0.mul_scalar_inplace(s);
    out.c1.mul_scalar_inplace(s);
    out.scale = a.scale * scale;
    return out;
}

Ciphertext
CkksEvaluator::mul_integer(const Ciphertext &a, i64 value) const
{
    Ciphertext out = a;
    std::vector<u64> s(a.num_limbs());
    for (std::size_t k = 0; k < a.num_limbs(); ++k) {
        u64 q = a.c0.prime(k);
        if (value >= 0) {
            s[k] = static_cast<u64>(value) % q;
        } else {
            u64 m = static_cast<u64>(-(value + 1)) + 1;
            u64 r = m % q;
            s[k] = r == 0 ? 0 : q - r;
        }
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
                u64 *d = d1.limb(k); // zero-initialized by ct()
                kernels::mul_mod_acc_lazy_n(d, a.c0.limb(k),
                                            b.c1.limb(k), n, q);
                kernels::mul_mod_acc_lazy_n(d, a.c1.limb(k),
                                            b.c0.limb(k), n, q);
                kernels::normalize_n(d, n, q);
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

        if (len > 1) {
            // digit_conv's destination is extIdx without the digit's
            // own primes, in order: convert straight into those rows.
            std::vector<const u64*> src(len);
            for (std::size_t k = 0; k < len; ++k) {
                src[k] = dCoeff.limb(start + k);
            }
            std::vector<u64*> dst;
            dst.reserve(extIdx.size() - len);
            for (std::size_t m = 0; m < extIdx.size(); ++m) {
                if (!own(m)) dst.push_back(out[j][m].data());
            }
            ctx_->digit_conv(limbs, j).convert(src, dst, n,
                                               /*correct=*/true);
        }

        // The digit's own residues are d's evaluation-domain limbs
        // already; every other row is reduced (one-prime digits) or
        // converted above, then forward-transformed. Rows are
        // independent, so the m loop parallelizes cleanly.
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
                    if (len == 1) {
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

    // The loop nest is m-outer / j-inner so each extended limb m is
    // owned by exactly one chunk; within a limb the digits accumulate
    // in ascending-j order, so the sum is bit-identical to the serial
    // nest at any thread count. The permuted-digit scratch is
    // chunk-local.
    std::size_t limbs = c0 ? c0->num_limbs() : 0;
    RnsPoly acc0(ring, extIdx, Domain::Eval);
    RnsPoly acc1(ring, extIdx, Domain::Eval);
    parallel::parallel_for(0, extIdx.size(), 1,
        [&](std::size_t m0, std::size_t m1) {
            std::vector<u64> tmp(perm.empty() ? 0 : n);
            auto permuted = [&](const u64 *src) -> const u64* {
                if (perm.empty()) return src;
                automorphism_eval_limb(src, tmp.data(), n, perm);
                return tmp.data();
            };
            for (std::size_t m = m0; m < m1; ++m) {
                std::size_t pidx = extIdx[m];
                u64 qm = ring->prime(pidx);
                u64 *o0 = acc0.limb(m);
                u64 *o1 = acc1.limb(m);
                // Lazy Barrett accumulate over the digit inner
                // products; one normalization after the j loop.
                for (std::size_t j = 0; j < numDigits; ++j) {
                    const KSwitchKey::Piece &piece = key.pieces[j];
                    const u64 *dg = permuted(digits[j][m].data());
                    kernels::mul_mod_acc_lazy_n(o0, dg,
                                                piece.b.limb(pidx), n,
                                                qm);
                    kernels::mul_mod_acc_lazy_n(o1, dg,
                                                piece.a.limb(pidx), n,
                                                qm);
                }
                if (m < limbs) {
                    // P*c is exact mod q_m and zero mod every p_j.
                    u64 pm = ctx_->p_mod_qi(pidx);
                    u64 pmShoup = static_cast<u64>((u128(pm) << 64) / qm);
                    kernels::scalar_mul_mod_acc_n(o0, permuted(c0->limb(m)),
                                                  n, pm, pmShoup, qm);
                    if (c1) {
                        kernels::scalar_mul_mod_acc_n(
                            o1, permuted(c1->limb(m)), n, pm, pmShoup, qm);
                    }
                }
                kernels::normalize_n(o0, n, qm);
                kernels::normalize_n(o1, n, qm);
            }
        }, "ckks.keyswitch_acc");
    return {std::move(acc0), std::move(acc1)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::mod_down_pair(RnsPoly &&acc0, RnsPoly &&acc1,
                             std::size_t limbs) const
{
    // ModDown in the evaluation domain: only the divided-out tail
    // limbs go to the coefficient domain (base conversion needs them
    // there), and only their `limbs` converted images come back.
    // finish() is linear mod q_i, so subtracting and scaling the
    // eval-domain q-limbs gives the same bytes as the
    // coefficient-domain apply().
    telemetry::count("ckks.ops.mod_down");
    POSEIDON_REQUIRE_T(ShapeMismatch, acc1.compatible(acc0),
                       "mod_down: ciphertext components disagree");
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t tail = acc0.num_limbs() - limbs;
    const ModDown &md = tail == ctx_->params().K
                            ? ctx_->mod_down(limbs)
                            : ctx_->rescale_mod_down(limbs + 1);

    auto run_moddown = [&](RnsPoly &acc) {
        parallel::parallel_for(0, tail, 1,
            [&](std::size_t j0, std::size_t j1) {
                for (std::size_t jp = j0; jp < j1; ++jp) {
                    std::size_t m = limbs + jp;
                    ring->table(acc.prime_index(m)).inverse(acc.limb(m));
                }
            }, "ckks.moddown_intt");
        RnsPoly out = RnsPoly::ct(ring, limbs, Domain::Coeff);
        std::vector<const u64*> xq(limbs), xp(tail), c(limbs);
        std::vector<u64*> o(limbs);
        for (std::size_t iq = 0; iq < limbs; ++iq) {
            xq[iq] = acc.limb(iq);
            o[iq] = out.limb(iq);
            c[iq] = o[iq];
        }
        for (std::size_t jp = 0; jp < tail; ++jp) {
            xp[jp] = acc.limb(limbs + jp);
        }
        md.conv().convert(xp, o, n, /*correct=*/true);
        out.to_eval();
        md.finish(xq, c, o, n);
        return out;
    };

    return {run_moddown(acc0), run_moddown(acc1)};
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
CkksEvaluator::rescale_poly(RnsPoly &p) const
{
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t last = p.num_limbs() - 1;
    u64 ql = p.prime(last);
    u64 qlHalf = ql >> 1;

    // Bring the dropped limb to coefficient domain (it arrives in Eval).
    std::vector<u64> cl(p.limb(last), p.limb(last) + n);
    ring->table(p.prime_index(last)).inverse(cl.data());
    kernels::add_scalar_mod_n(cl.data(), cl.data(), n, qlHalf, ql);

    // Each remaining limb folds the dropped limb in independently; the
    // NTT scratch is chunk-local and cl is read-only shared.
    parallel::parallel_for(0, last, 1,
        [&](std::size_t j0, std::size_t j1) {
            std::vector<u64> buf(n);
            for (std::size_t j = j0; j < j1; ++j) {
                u64 qj = p.prime(j);
                u64 halfModQj = qlHalf % qj;
                kernels::reduce_mod_n(buf.data(), cl.data(), n, qj);
                kernels::sub_scalar_mod_n(buf.data(), buf.data(), n,
                                          halfModQj, qj);
                ring->table(p.prime_index(j)).forward(buf.data());
                u64 qlInv = inv_mod(ql % qj, qj);
                u64 qlInvShoup =
                    static_cast<u64>((u128(qlInv) << 64) / qj);
                u64 *limb = p.limb(j);
                kernels::sub_mod_n(limb, limb, buf.data(), n, qj);
                kernels::scalar_mul_shoup_n(limb, limb, n, qlInv,
                                            qlInvShoup, qj);
            }
        }, "ckks.rescale");
    p.drop_last_limb();
}

void
CkksEvaluator::rescale_inplace(Ciphertext &a) const
{
    POSEIDON_SPAN("Evaluator::rescale");
    telemetry::count("ckks.ops.rescale");
    telemetry::ScopedLatency lat("ckks.rescale_us");
    bool extended = ctx_->is_extended(a.c0);
    std::size_t limbs = a.num_limbs();
    if (extended) limbs -= ctx_->params().K;
    POSEIDON_REQUIRE_T(NoiseBudgetExhausted, limbs >= 2,
                       "rescale: no modulus level left to drop");
    u64 ql = a.c0.prime(limbs - 1);
    if (extended) {
        // Fused: one ModDown divides by q_l * P.
        std::tie(a.c0, a.c1) =
            mod_down_pair(std::move(a.c0), std::move(a.c1), limbs - 1);
    } else {
        rescale_poly(a.c0);
        rescale_poly(a.c1);
    }
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

Ciphertext
CkksEvaluator::apply_galois(const Ciphertext &a, u64 galois,
                            const KSwitchKey &key) const
{
    POSEIDON_SPAN("Evaluator::apply_galois");
    telemetry::count("ckks.ops.rotation");
    require_q_basis(a.c0, "apply_galois");
    // tau_g on both components (Eval-domain permutation), then switch
    // tau_g(c1)'s key tau_g(s) back to s.
    RnsPoly c0g = automorphism(a.c0, galois);
    RnsPoly c1g = automorphism(a.c1, galois);

    auto [u0, u1] = keyswitch_core(c1g, key);
    c0g.add_inplace(u0);

    Ciphertext out;
    out.c0 = std::move(c0g);
    out.c1 = std::move(u1);
    out.scale = a.scale;
    return out;
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
    KeyswitchTelemetry ks;
    telemetry::count("ckks.ops.rotation");
    require_q_basis(a.c0, "rotate_ext");
    u64 g = galois_element_for_step(ctx_->degree(), step);
    POSEIDON_REQUIRE(g != 1, "rotate_ext: zero rotation step");
    RnsPoly c0g = automorphism(a.c0, g);
    RnsPoly c1g = automorphism(a.c1, g);
    std::vector<std::size_t> extIdx =
        ctx_->extended_indices(a.num_limbs());
    Ciphertext out;
    std::tie(out.c0, out.c1) = key_product(
        decompose_digits_eval(c1g, extIdx), keys.get(g), extIdx, {}, &c0g,
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
    return apply_galois(a, g, keys.get(g));
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &a, const GaloisKeys &keys) const
{
    require_q_basis(a.c0, "conjugate");
    u64 g = galois_element_conjugate(ctx_->degree());
    return apply_galois(a, g, keys.get(g));
}

} // namespace poseidon
