#include "ckks/encoder.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"

namespace poseidon {

namespace {

void
array_bit_reverse(std::vector<cdouble> &vals)
{
    std::size_t n = vals.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(vals[i], vals[j]);
    }
}

const CkksContextPtr&
require_ctx(const CkksContextPtr &ctx)
{
    POSEIDON_REQUIRE(ctx != nullptr, "CkksEncoder: null context");
    return ctx;
}

/// Checks `limbs`; resolves a scale <= 0 to the context default.
double
checked_scale(const CkksContext &ctx, std::size_t limbs, double scale)
{
    POSEIDON_REQUIRE(limbs >= 1 && limbs <= ctx.params().L,
                     "encode: limb count " << limbs << " outside [1, "
                     << ctx.params().L << "]");
    if (scale <= 0.0) scale = ctx.params().scale();
    POSEIDON_REQUIRE(std::isfinite(scale),
                     "encode: scale must be finite, got " << scale);
    return scale;
}

/// Largest |coefficient| an encoding may round to (i64 headroom).
constexpr double kMaxCoeff = 4.0e18;

i64
round_coeff(double v)
{
    POSEIDON_REQUIRE(std::abs(v) < kMaxCoeff,
                     "encode: coefficient overflows 62 bits — "
                     "scale too large for these values");
    return static_cast<i64>(std::llround(v));
}

/// a*b by the textbook formula. std::complex's operator* computes the
/// same two expressions but then tests both parts for NaN and may call
/// the C99 Annex G fallback, which blocks vectorization; the twiddles
/// and inputs here are always finite.
inline cdouble
mul(cdouble a, cdouble b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

} // namespace

CkksEncoder::CkksEncoder(CkksContextPtr ctx)
    : ctx_(std::move(ctx)), slots_(require_ctx(ctx_)->slots())
{
    // Twiddle of butterfly j in the layer of half-width h: the
    // primitive M-th root (M = 2N) raised to 5^j mod 8h, scaled to M.
    std::size_t m = 2 * ctx_->degree();
    auto ksi = [m](std::size_t k) {
        double angle = 2.0 * M_PI * static_cast<double>(k) /
                       static_cast<double>(m);
        return cdouble(std::cos(angle), std::sin(angle));
    };
    fwdTwiddles_.resize(slots_ - 1);
    invTwiddles_.resize(slots_ - 1);
    for (std::size_t lenh = 1; lenh < slots_; lenh <<= 1) {
        std::size_t lenq = lenh << 3;
        std::size_t fivePow = 1;
        for (std::size_t j = 0; j < lenh; ++j) {
            std::size_t r = fivePow % lenq;
            fwdTwiddles_[lenh - 1 + j] = ksi(r * (m / lenq));
            invTwiddles_[lenh - 1 + j] = ksi((lenq - r) * (m / lenq));
            fivePow = (fivePow * 5) % m;
        }
    }

    // Coefficient slots_ = N/2 holds a slot's imaginary part.
    imagUnit_ = RnsPoly::ct(ctx_->ring(), ctx_->params().L, Domain::Coeff);
    for (std::size_t k = 0; k < imagUnit_.num_limbs(); ++k) {
        imagUnit_.limb(k)[slots_] = 1;
    }
    imagUnit_.to_eval();
}

void
CkksEncoder::fft_layers(std::vector<cdouble> &vals, unsigned begin,
                        unsigned end) const
{
    std::size_t size = vals.size();
    POSEIDON_REQUIRE(is_pow2(size) && size <= slots_ &&
                     (std::size_t(1) << end) <= size && begin <= end,
                     "fft_layers: bad size or layer range");
    for (std::size_t lenh = std::size_t(1) << begin;
         lenh < (std::size_t(1) << end); lenh <<= 1) {
        const cdouble *tw = &fwdTwiddles_[lenh - 1];
        for (std::size_t i = 0; i < size; i += 2 * lenh) {
            for (std::size_t j = 0; j < lenh; ++j) {
                cdouble u = vals[i + j];
                cdouble v = mul(vals[i + j + lenh], tw[j]);
                vals[i + j] = u + v;
                vals[i + j + lenh] = u - v;
            }
        }
    }
}

void
CkksEncoder::fft_inv_layers(std::vector<cdouble> &vals, unsigned begin,
                            unsigned end) const
{
    std::size_t size = vals.size();
    POSEIDON_REQUIRE(is_pow2(size) && size <= slots_ &&
                     (std::size_t(1) << end) <= size && begin <= end,
                     "fft_inv_layers: bad size or layer range");
    for (unsigned layer = begin; layer < end; ++layer) {
        std::size_t lenh = size >> (layer + 1);
        const cdouble *tw = &invTwiddles_[lenh - 1];
        for (std::size_t i = 0; i < size; i += 2 * lenh) {
            for (std::size_t j = 0; j < lenh; ++j) {
                cdouble u = vals[i + j] + vals[i + j + lenh];
                cdouble v = mul(vals[i + j] - vals[i + j + lenh], tw[j]);
                vals[i + j] = u;
                vals[i + j + lenh] = v;
            }
        }
    }
}

void
CkksEncoder::fft_special(std::vector<cdouble> &vals) const
{
    std::size_t size = vals.size();
    POSEIDON_REQUIRE(is_pow2(size) && size <= slots_,
                     "fft_special: bad size");
    array_bit_reverse(vals);
    fft_layers(vals, 0, log2_floor(size));
}

void
CkksEncoder::fft_special_inv(std::vector<cdouble> &vals) const
{
    std::size_t size = vals.size();
    POSEIDON_REQUIRE(is_pow2(size) && size <= slots_,
                     "fft_special_inv: bad size");
    fft_inv_layers(vals, 0, log2_floor(size));
    array_bit_reverse(vals);
    double inv = 1.0 / static_cast<double>(size);
    for (auto &v : vals) v *= inv;
}

Plaintext
CkksEncoder::encode(const std::vector<cdouble> &values, std::size_t limbs,
                    double scale) const
{
    scale = checked_scale(*ctx_, limbs, scale);
    std::vector<std::size_t> idx(limbs);
    for (std::size_t k = 0; k < limbs; ++k) idx[k] = k;
    return encode_on(values, std::move(idx), scale);
}

Plaintext
CkksEncoder::encode_extended(const std::vector<cdouble> &values,
                             std::size_t limbs, double scale) const
{
    scale = checked_scale(*ctx_, limbs, scale);
    return encode_on(values, ctx_->extended_indices(limbs), scale);
}

Plaintext
CkksEncoder::encode_on(const std::vector<cdouble> &values,
                       std::vector<std::size_t> primeIdx, double scale) const
{
    POSEIDON_REQUIRE(values.size() <= slots_,
                     "encode: " << values.size() << " values exceed the "
                     << slots_ << " available slots");
    std::vector<cdouble> vals(slots_, cdouble(0, 0));
    std::copy(values.begin(), values.end(), vals.begin());
    fft_special_inv(vals);

    std::size_t n = ctx_->degree();
    std::vector<i64> coeffs(n);
    for (std::size_t j = 0; j < slots_; ++j) {
        coeffs[j] = round_coeff(vals[j].real() * scale);
        coeffs[j + slots_] = round_coeff(vals[j].imag() * scale);
    }

    Plaintext pt;
    pt.poly = RnsPoly(ctx_->ring(), std::move(primeIdx), Domain::Coeff);
    pt.poly.assign_signed(coeffs);
    pt.poly.to_eval();
    pt.scale = scale;
    return pt;
}

Plaintext
CkksEncoder::encode_real(const std::vector<double> &values,
                         std::size_t limbs, double scale) const
{
    std::vector<cdouble> v(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];
    return encode(v, limbs, scale);
}

Plaintext
CkksEncoder::encode_scalar(cdouble value, std::size_t limbs,
                           double scale) const
{
    // encode() of a constant vector: the inverse FFT leaves exactly
    // the value in slot 0 and zeros elsewhere, so coefficient 0 is
    // round(re*scale) and coefficient N/2 is round(im*scale). The NTT
    // is linear mod q, so re + im*X^{N/2} per limb has its bytes.
    scale = checked_scale(*ctx_, limbs, scale);
    i64 re = round_coeff(value.real() * scale);
    i64 im = round_coeff(value.imag() * scale);
    std::size_t n = ctx_->degree();
    Plaintext pt;
    pt.poly = RnsPoly::ct(ctx_->ring(), limbs, Domain::Eval);
    for (std::size_t k = 0; k < limbs; ++k) {
        u64 q = pt.poly.prime(k);
        u64 b = signed_residue(im, q);
        u64 bShoup = static_cast<u64>((u128(b) << 64) / q);
        u64 *out = pt.poly.limb(k);
        kernels::scalar_mul_shoup_n(out, imagUnit_.limb(k), n, b, bShoup,
                                    q);
        kernels::add_scalar_mod_n(out, out, n, signed_residue(re, q), q);
    }
    pt.scale = scale;
    return pt;
}

std::vector<cdouble>
CkksEncoder::decode(const Plaintext &pt) const
{
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pt.poly.degree() == ctx_->degree(),
                       "decode: plaintext degree " << pt.poly.degree()
                       << " does not match the context N="
                       << ctx_->degree());
    POSEIDON_REQUIRE(pt.scale > 0.0 && std::isfinite(pt.scale),
                     "decode: plaintext carries invalid scale "
                     << pt.scale);
    RnsPoly poly = pt.poly;
    poly.to_coeff();

    std::size_t limbs = poly.num_limbs();
    const RnsBasis &basis = ctx_->ring()->ct_basis(limbs);

    // Each slot composes its residues independently; the residue
    // gather buffer is chunk-local.
    std::vector<cdouble> vals(slots_);
    parallel::parallel_for(0, slots_, 1024,
        [&](std::size_t j0, std::size_t j1) {
            std::vector<u64> res(limbs);
            for (std::size_t j = j0; j < j1; ++j) {
                for (std::size_t k = 0; k < limbs; ++k) {
                    res[k] = poly.limb(k)[j];
                }
                double re = basis.compose_centered_double(res.data());
                for (std::size_t k = 0; k < limbs; ++k) {
                    res[k] = poly.limb(k)[j + slots_];
                }
                double im = basis.compose_centered_double(res.data());
                vals[j] = cdouble(re / pt.scale, im / pt.scale);
            }
        }, "ckks.decode");
    fft_special(vals);
    return vals;
}

} // namespace poseidon
