#include "ckks/bootstrap.h"

#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace poseidon {

namespace {

/// EvalMod's Taylor degree for exp(i*y) and its number r of
/// double-angle squarings; the argument is divided by 2^r, so larger r
/// widens the valid range of the integer I.
constexpr unsigned kTaylorDegree = 7;
constexpr unsigned kDoubleAngles = 8;

/// EvalMod's cost. Per half: Horner's degree-1 ct-ct mults, the r
/// squarings and the sine extraction's conjugation are one keyswitch
/// each; the argument scaling, the leading Taylor coefficient and the
/// final constant are scalar mults. Its levels are the argument
/// scaling 1, Horner's degree, r and the final constant 1.
constexpr BootstrapPlan::EvalMod kEvalMod = {
    2 * (kTaylorDegree - 1 + kDoubleAngles + 1), 2 * 3,
    1 + kTaylorDegree + kDoubleAngles + 1};

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

/// floor(a / b) for b > 0.
long
floor_div(long a, long b)
{
    return a >= 0 ? a / b : -((-a + b - 1) / b);
}

/// A rotation step as a slot offset in [0, n).
std::size_t
slot_offset(long step, std::size_t n)
{
    long m = static_cast<long>(n);
    return static_cast<std::size_t>((step % m + m) % m);
}

} // namespace

std::size_t
BootstrapPlan::table_bytes() const
{
    std::size_t b = 0;
    for (const auto *t : {&coeffToSlot, &slotToCoeff}) {
        for (const Stage &s : *t) b += s.bytes;
    }
    return b;
}

std::size_t
BootstrapPlan::keyswitches() const
{
    std::size_t k = 1 + evalMod.keyswitches;
    for (const auto *t : {&coeffToSlot, &slotToCoeff}) {
        for (const Stage &s : *t) k += s.giantSteps;
    }
    return k;
}

std::size_t
BootstrapPlan::mod_downs() const
{
    std::size_t m = 1 + evalMod.keyswitches;
    for (const auto *t : {&coeffToSlot, &slotToCoeff}) {
        for (const Stage &s : *t) m += s.modDowns;
    }
    return m;
}

std::size_t
BootstrapPlan::plain_mults() const
{
    std::size_t p = evalMod.plainMults;
    for (const auto *t : {&coeffToSlot, &slotToCoeff}) {
        for (const Stage &s : *t) p += s.diagonals;
    }
    return p;
}

std::size_t
BootstrapPlan::levels() const
{
    return coeffToSlot.size() + evalMod.levels + slotToCoeff.size();
}

Bootstrapper::Bootstrapper(CkksContextPtr ctx, const CkksEncoder &encoder,
                           KeyGenerator &keygen)
    : ctx_(std::move(ctx)), encoder_(encoder)
{
    std::size_t ns = ctx_->slots();
    unsigned logNs = log2_floor(ns);
    std::size_t L = ctx_->params().L;
    // Stages sit at fixed levels; a chain too short to bootstrap (which
    // bootstrap() rejects) clamps them to one limb.
    auto level = [&](std::size_t spent) {
        return L > spent ? L - spent : std::size_t(1);
    };

    // CoeffToSlot: the inverse FFT's butterfly layers split in two,
    // its bit reversal dropped. The stages fold in the FFT's 1/ns, the
    // Delta/q0 that leaves t/q0 in the slots, and the 1/2 of the
    // real/imaginary split, as sqrt(fold) each: a diagonal's encoding
    // error is absolute, so the stages' relative errors are smallest
    // when their entries are equally large.
    unsigned split = (logNs + 1) / 2;
    double q0 = static_cast<double>(ctx_->ring()->prime(0));
    double fold = std::sqrt(ctx_->params().scale() / q0 / (2.0 * ns));
    auto inv_layers = [&](unsigned begin, unsigned end) {
        return matrix_of(ns, fold, [&](std::vector<cdouble> &v) {
            encoder_.fft_inv_layers(v, begin, end);
        });
    };
    cts_.push_back(make_stage(inv_layers(0, split), level(0)));
    cts_.push_back(make_stage(inv_layers(split, logNs), level(1)));

    // SlotToCoeff: fft_special after the bit reversal that restores
    // natural order. fft_special starts with that same reversal, so
    // this is its butterfly layers alone, split in two: the short
    // butterflies (offsets within +-15 at 512 slots) on the limbs
    // EvalMod leaves, then the long ones (stride 16). Every entry of a
    // butterfly product is one unit-modulus twiddle path, so neither
    // stage needs a fold.
    auto fwd_layers = [&](unsigned begin, unsigned end) {
        return matrix_of(ns, 1.0, [&](std::vector<cdouble> &v) {
            encoder_.fft_layers(v, begin, end);
        });
    };
    std::size_t spent = cts_.size() + kEvalMod.levels;
    stc_.push_back(make_stage(fwd_layers(0, logNs / 2), level(spent)));
    stc_.push_back(make_stage(fwd_layers(logNs / 2, logNs),
                              level(spent + 1)));

    // Keys: relinearization, every stage's rotations, conjugation.
    relin_ = keygen.make_relin_key();
    std::set<long> steps;
    auto add = [&](long r) {
        if (std::size_t o = slot_offset(r, ns)) steps.insert(long(o));
    };
    auto collect = [&](const EncodedStage &st) {
        for (long r : st.baby) add(r);
        for (const auto &g : st.groups) add(g.giant);
    };
    for (const auto *t : {&cts_, &stc_}) {
        for (const EncodedStage &st : *t) collect(st);
    }
    gk_ = keygen.make_galois_keys({steps.begin(), steps.end()},
                                  /*includeConjugate=*/true);
}

Bootstrapper::EncodedStage
Bootstrapper::make_stage(const std::vector<cdouble> &m,
                         std::size_t limbs) const
{
    // Nonzero diagonals diag_o[j] = M[j][(j+o) mod n]. Butterfly layers
    // leave structural zeros exactly zero, so the test is exact.
    std::size_t n = ctx_->slots();
    POSEIDON_REQUIRE(m.size() == n * n, "make_stage: not an n x n matrix");
    auto at = [&](std::size_t j, std::size_t k) { return m[k * n + j]; };
    std::vector<std::size_t> offsets;
    std::size_t stride = n;
    for (std::size_t o = 0; o < n; ++o) {
        for (std::size_t j = 0; j < n; ++j) {
            if (at(j, (j + o) % n) != cdouble(0, 0)) {
                offsets.push_back(o);
                stride = std::gcd(stride, o);
                break;
            }
        }
    }
    POSEIDON_REQUIRE(!offsets.empty(), "make_stage: zero matrix");

    // Offset o = stride*k with k centred on zero, split as
    // k = n1*b + g: baby step stride*g, giant step stride*n1*b.
    std::size_t n1 = 1;
    while (n1 * n1 < offsets.size()) n1 <<= 1;
    long period = static_cast<long>(n / stride);
    std::map<std::pair<long, long>, std::size_t> terms; // (b, g) -> offset
    for (std::size_t o : offsets) {
        long k = static_cast<long>(o / stride);
        if (k >= (period + 1) / 2) k -= period;
        long b = floor_div(k, static_cast<long>(n1));
        terms[{b, k - b * static_cast<long>(n1)}] = o;
    }

    EncodedStage st;
    st.limbs = limbs;
    std::map<long, std::size_t> babyAt; // g -> index into st.baby
    for (const auto &[bg, o] : terms) babyAt.emplace(bg.second, 0);
    for (auto &[g, idx] : babyAt) {
        idx = st.baby.size();
        st.baby.push_back(g * static_cast<long>(stride));
    }
    double scale = static_cast<double>(ctx_->ring()->prime(limbs - 1));
    std::vector<cdouble> diag(n);
    for (const auto &[bg, o] : terms) {
        long giant = bg.first * static_cast<long>(n1 * stride);
        if (st.groups.empty() || st.groups.back().giant != giant) {
            st.groups.push_back({giant, {}});
        }
        // Pre-rotate right by the giant step, which the group's giant
        // rotation undoes.
        std::size_t shift = slot_offset(giant, n);
        for (std::size_t j = 0; j < n; ++j) {
            std::size_t row = (j + n - shift) % n;
            diag[j] = at(row, (row + o) % n);
        }
        // Encoded at the prime the stage's rescale drops, so the stage
        // returns its input's scale exactly, and over the extended
        // basis the products run in.
        st.groups.back().diags.push_back(
            {babyAt.at(bg.second),
             encoder_.encode_extended(diag, limbs, scale)});
    }
    return st;
}

std::size_t
Bootstrapper::levels_consumed() const
{
    return plan().levels();
}

BootstrapPlan
Bootstrapper::plan() const
{
    auto describe = [&](const EncodedStage &st) {
        BootstrapPlan::Stage p;
        for (long r : st.baby) p.babySteps += r != 0;
        for (const auto &g : st.groups) {
            p.diagonals += g.diags.size();
            p.giantSteps += g.giant != 0;
        }
        p.modDowns = p.giantSteps + 1;
        p.limbs = st.limbs;
        p.bytes = p.diagonals * (st.limbs + ctx_->params().K) *
                  ctx_->degree() * sizeof(u64);
        return p;
    };
    BootstrapPlan plan;
    for (const EncodedStage &st : cts_) {
        plan.coeffToSlot.push_back(describe(st));
    }
    plan.evalMod = kEvalMod;
    for (const EncodedStage &st : stc_) {
        plan.slotToCoeff.push_back(describe(st));
    }
    return plan;
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
Bootstrapper::linear_transform(const Ciphertext &ct, const EncodedStage &st,
                               const CkksEvaluator &eval) const
{
    POSEIDON_REQUIRE(ct.num_limbs() >= st.limbs,
                     "linear_transform: input below the stage's level");
    Ciphertext in = ct;
    if (in.num_limbs() > st.limbs) eval.drop_to_limbs_inplace(in, st.limbs);

    // Double hoisting (Bossuat et al. 2021): the baby-step rotations
    // share one digit decomposition of c1 and stay over the extended
    // basis QP, where each group multiplies its diagonals. A group with
    // a giant step pays one ModDown before its rotation, whose
    // keyswitch lands back in QP; one fused ModDown + rescale of the
    // sum ends the stage.
    std::vector<Ciphertext> rots = eval.rotate_hoisted_ext(in, st.baby, gk_);

    Ciphertext acc;
    bool accSet = false;
    std::vector<const Ciphertext*> cts;
    std::vector<const Plaintext*> pts;
    for (const auto &group : st.groups) {
        cts.clear();
        pts.clear();
        for (const auto &d : group.diags) {
            cts.push_back(&rots[d.babyIndex]);
            pts.push_back(&d.pt);
        }
        Ciphertext inner = eval.dot_plain(cts, pts);
        if (group.giant != 0) {
            inner = eval.rotate_ext(eval.mod_down(std::move(inner)),
                                    group.giant, gk_);
        }
        if (accSet) {
            eval.add_inplace(acc, inner);
        } else {
            acc = std::move(inner);
            accSet = true;
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
    for (const EncodedStage &st : cts_) z = linear_transform(z, st, eval);
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
    for (const EncodedStage &st : stc_) z = linear_transform(z, st, eval);
    return z;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct,
                        const CkksEvaluator &eval) const
{
    POSEIDON_SPAN("Bootstrapper::bootstrap");
    telemetry::count("ckks.ops.bootstrap");
    std::size_t levels = levels_consumed();
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
