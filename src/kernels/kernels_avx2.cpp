/**
 * @file
 * AVX2 backend for the kernel layer.
 *
 * AVX2 has no 64-bit multiply and no unsigned 64-bit compare, so the
 * backend is built from three local primitives: a 64x64->128 multiply
 * decomposed into four `_mm256_mul_epu32` partial products with exact
 * carry propagation, an unsigned compare via the sign-flip trick, and
 * runtime-count shifts through `_mm256_srl_epi64`. On top of those:
 *
 *  - Shoup multiplication in its lazy form: for any 64-bit v and
 *    w < q, r = v*w - floor(v*w'/2^64)*q < q*(1 + v/2^64) < 2q, so a
 *    single conditional subtraction canonicalizes.
 *  - A width-parameterized Barrett multiply for variable operands
 *    a, b < q: with s = bitlen(q), mu = floor(2^(2s+1)/q) < 2^(s+2)
 *    fits a word, t = (a*b) >> (s-2) < 2^(s+2) fits a word, and
 *    est = (t*mu) >> (s+3) satisfies Q-2 <= est <= Q (error analysis
 *    in DESIGN.md §14), so r = a*b - est*q < 3q needs at most two
 *    conditional subtractions.
 *  - reduce_mod of a full 64-bit word via nu = floor(2^64/q):
 *    est = mulhi(a, nu) >= Q-2, same two-subtraction finish.
 *  - Harvey-style lazy NTT passes: the forward transform keeps
 *    coefficients < 4q across stages (conditional-subtract 2q on u,
 *    lazy Shoup twiddle product < 2q, u+t < 4q, u-t+2q < 4q) and
 *    normalizes once at the end; the inverse keeps < 2q and folds the
 *    n^{-1} scaling into the final canonicalizing pass. 4q < 2^64
 *    because q < 2^62 (kMaxModulus).
 *
 * Scalar tails replicate the vector lane math *exactly* (same lazy
 * representatives), so chunked invocation under parallel_for produces
 * the same bytes as one full-span call at any POSEIDON_THREADS.
 */

#include "kernels/kernels_internal.h"

#ifdef __AVX2__

#include <immintrin.h>

namespace poseidon::kernels::internal {

namespace {

// ---- Lane primitives. ----

/// Runtime-count logical shifts (immediate forms need constants).
inline __m256i
vsrl(__m256i x, unsigned k)
{
    return _mm256_srl_epi64(x, _mm_cvtsi32_si128(static_cast<int>(k)));
}

inline __m256i
vsll(__m256i x, unsigned k)
{
    return _mm256_sll_epi64(x, _mm_cvtsi32_si128(static_cast<int>(k)));
}

/// Low 64 bits of the lanewise 64x64 product.
inline __m256i
mullo64(__m256i a, __m256i b)
{
    __m256i aH = _mm256_srli_epi64(a, 32);
    __m256i bH = _mm256_srli_epi64(b, 32);
    __m256i ll = _mm256_mul_epu32(a, b);
    __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, bH),
                                     _mm256_mul_epu32(aH, b));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of the lanewise 64x64 product, exact carry.
inline __m256i
mulhi64(__m256i a, __m256i b)
{
    __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
    __m256i aH = _mm256_srli_epi64(a, 32);
    __m256i bH = _mm256_srli_epi64(b, 32);
    __m256i ll = _mm256_mul_epu32(a, b);   // aL*bL
    __m256i lh = _mm256_mul_epu32(a, bH);  // aL*bH
    __m256i hl = _mm256_mul_epu32(aH, b);  // aH*bL
    __m256i hh = _mm256_mul_epu32(aH, bH); // aH*bH
    // carry of the middle 32-bit column into bit 64.
    __m256i carry = _mm256_srli_epi64(
        _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                             _mm256_and_si256(lh, mask32)),
            _mm256_and_si256(hl, mask32)),
        32);
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32), carry));
}

/// Both halves of the lanewise 64x64 product from one set of partial
/// products (a separate mullo64 + mulhi64 pair would recompute ll,
/// lh and hl — three of the four `_mm256_mul_epu32` each).
inline void
mul64wide(__m256i a, __m256i b, __m256i &lo, __m256i &hi)
{
    __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
    __m256i aH = _mm256_srli_epi64(a, 32);
    __m256i bH = _mm256_srli_epi64(b, 32);
    __m256i ll = _mm256_mul_epu32(a, b);
    __m256i lh = _mm256_mul_epu32(a, bH);
    __m256i hl = _mm256_mul_epu32(aH, b);
    __m256i hh = _mm256_mul_epu32(aH, bH);
    __m256i cross = _mm256_add_epi64(lh, hl);
    lo = _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
    __m256i carry = _mm256_srli_epi64(
        _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                             _mm256_and_si256(lh, mask32)),
            _mm256_and_si256(hl, mask32)),
        32);
    hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32), carry));
}

/// Lanewise unsigned x < y (AVX2 only has signed compares; flipping
/// the sign bit of both sides makes the signed compare unsigned).
inline __m256i
ltu(__m256i x, __m256i y)
{
    __m256i s = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(y, s),
                              _mm256_xor_si256(x, s));
}

/// x - (x >= m ? m : 0), lanewise.
inline __m256i
csub(__m256i x, __m256i m)
{
    return _mm256_sub_epi64(x, _mm256_andnot_si256(ltu(x, m), m));
}

/// Lazy Shoup product: v*w - floor(v*ws/2^64)*q < 2q for any v, w<q.
inline __m256i
shoup_lazy(__m256i v, __m256i w, __m256i ws, __m256i q)
{
    __m256i hi = mulhi64(v, ws);
    return _mm256_sub_epi64(mullo64(v, w), mullo64(hi, q));
}

/// Scalar replica of shoup_lazy for vector-tail elements.
inline u64
shoup_lazy_s(u64 v, u64 w, u64 ws, u64 q)
{
    u64 hi = static_cast<u64>((u128(v) * ws) >> 64);
    return v * w - hi * q;
}

inline u64
csub_s(u64 x, u64 m)
{
    return x >= m ? x - m : x;
}

// ---- Width-parameterized Barrett for variable a*b mod q. ----

struct WidthBarrett
{
    u64 mu = 0;       ///< floor(2^(2s+1) / q), s = bitlen(q)
    unsigned sh1 = 0; ///< s - 2
    unsigned sh2 = 0; ///< s + 3 (may be > 64; see wb_mu_broadcast)
};

WidthBarrett
make_wb(u64 q)
{
    unsigned s = log2_floor(q) + 1;
    WidthBarrett wb;
    wb.mu = static_cast<u64>((u128(1) << (2 * s + 1)) / q);
    wb.sh1 = s - 2;
    wb.sh2 = s + 3;
    return wb;
}

/// The mu constant the vector path multiplies by. For sh2 <= 64 it is
/// pre-shifted so the estimate is a plain high product:
/// mulhi(t, mu << (64-sh2)) = floor(t*mu*2^(64-sh2) / 2^64)
///                          = floor(t*mu / 2^sh2) exactly
/// (the shift is exact: mu < 2^(s+2) so mu << (61-s) < 2^63). For
/// sh2 > 64 (s = 62) the raw mu is used and the high product shifted
/// right afterwards — nested floors by powers of two compose exactly,
/// so both paths equal the scalar replica's (t*mu) >> sh2.
inline __m256i
wb_mu_broadcast(const WidthBarrett &wb)
{
    u64 m = wb.sh2 > 64 ? wb.mu : wb.mu << (64 - wb.sh2);
    return _mm256_set1_epi64x(static_cast<long long>(m));
}

/// Lazy product a*b mod q in [0, 2q), vector lanes. muv from
/// wb_mu_broadcast.
inline __m256i
wb_mul_lazy(__m256i av, __m256i bv, const WidthBarrett &wb,
            __m256i muv, __m256i qv, __m256i twoqv)
{
    __m256i xlo, xhi;
    mul64wide(av, bv, xlo, xhi);
    __m256i t = _mm256_or_si256(vsll(xhi, 64 - wb.sh1),
                                vsrl(xlo, wb.sh1));
    __m256i est = mulhi64(t, muv);
    if (wb.sh2 > 64) est = vsrl(est, wb.sh2 - 64);
    __m256i r = _mm256_sub_epi64(xlo, mullo64(est, qv));
    return csub(r, twoqv); // r < 3q -> < 2q
}

/// Scalar replica of wb_mul_lazy (identical est, identical bytes).
inline u64
wb_mul_lazy_s(u64 a, u64 b, const WidthBarrett &wb, u64 q)
{
    u128 x = u128(a) * b;
    u64 t = static_cast<u64>(x >> wb.sh1);
    u64 est = static_cast<u64>((u128(t) * wb.mu) >> wb.sh2);
    u64 r = static_cast<u64>(x) - est * q;
    return csub_s(r, 2 * q);
}

// ---- Elementwise kernels. ----

void
avx2_add_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
               u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + t));
        __m256i s = csub(_mm256_add_epi64(av, bv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t), s);
    }
    for (; t < n; ++t) out[t] = add_mod(a[t], b[t], q);
}

void
avx2_sub_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
               u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + t));
        __m256i d = _mm256_add_epi64(
            _mm256_sub_epi64(av, bv),
            _mm256_and_si256(ltu(av, bv), qv));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t), d);
    }
    for (; t < n; ++t) out[t] = sub_mod(a[t], b[t], q);
}

void
avx2_neg_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i zero = _mm256_setzero_si256();
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i r = _mm256_andnot_si256(
            _mm256_cmpeq_epi64(av, zero), _mm256_sub_epi64(qv, av));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t), r);
    }
    for (; t < n; ++t) out[t] = neg_mod(a[t], q);
}

void
avx2_add_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c,
                      u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i s = csub(_mm256_add_epi64(av, cv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t), s);
    }
    for (; t < n; ++t) out[t] = add_mod(a[t], c, q);
}

void
avx2_scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w,
                        u64 ws, u64 q)
{
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i wv = _mm256_set1_epi64x(static_cast<long long>(w));
    __m256i wsv = _mm256_set1_epi64x(static_cast<long long>(ws));
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i r = csub(shoup_lazy(av, wv, wsv, qv), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t), r);
    }
    for (; t < n; ++t) {
        out[t] = csub_s(shoup_lazy_s(a[t], w, ws, q), q);
    }
}

void
avx2_mul_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
               u64 q)
{
    if (q < 8) { // bitlen(q)-2 underflows; never a real NTT prime
        Barrett64 br(q);
        for (std::size_t t = 0; t < n; ++t) out[t] = br.mul(a[t], b[t]);
        return;
    }
    WidthBarrett wb = make_wb(q);
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i muv = wb_mu_broadcast(wb);
    __m256i twoqv = _mm256_add_epi64(qv, qv);
    std::size_t t = 0;
    // 2x unroll: the Barrett chain (wide mul -> shift -> high mul ->
    // low mul -> subtract) is latency-bound; two independent chains
    // keep the multiply ports busy. Per-element math is unchanged, so
    // any chunk split still yields identical bytes.
    for (; t + 8 <= n; t += 8) {
        __m256i a0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + t));
        __m256i a1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t + 4));
        __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + t + 4));
        __m256i r0 = wb_mul_lazy(a0, b0, wb, muv, qv, twoqv);
        __m256i r1 = wb_mul_lazy(a1, b1, wb, muv, qv, twoqv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t),
                            csub(r0, qv));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t + 4),
                            csub(r1, qv));
    }
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + t));
        __m256i r = wb_mul_lazy(av, bv, wb, muv, qv, twoqv);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t),
                            csub(r, qv));
    }
    for (; t < n; ++t) {
        out[t] = csub_s(wb_mul_lazy_s(a[t], b[t], wb, q), q);
    }
}

/// The dot product runs the scalar u128 sums: AVX2 has no 64x64-bit
/// multiply, and four-lane 128-bit products built from
/// `_mm256_mul_epu32` partials are no faster than one native `mul`
/// per product (EXPERIMENTS.md), while a lazy per-product reduction
/// is what the fused kernel exists to avoid.
void
avx2_dot_mod_n(u64 *out, const u64 *const *a, const u64 *const *b,
               const u64 *w, std::size_t terms, std::size_t n,
               u64 aBound, u64 q)
{
    (void)aBound;
    dot_mod_scalar(out, a, b, w, terms, 0, n, q);
}

void
avx2_reduce_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    if (q < 2) {
        for (std::size_t t = 0; t < n; ++t) out[t] = 0;
        return;
    }
    u64 nu = static_cast<u64>((u128(1) << 64) / q);
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i nuv = _mm256_set1_epi64x(static_cast<long long>(nu));
    __m256i twoqv = _mm256_add_epi64(qv, qv);
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
        __m256i av = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + t));
        // est = mulhi(a, nu) >= floor(a/q) - 2, so r < 3q.
        __m256i r = _mm256_sub_epi64(av,
                                     mullo64(mulhi64(av, nuv), qv));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + t),
                            csub(csub(r, twoqv), qv));
    }
    for (; t < n; ++t) {
        u64 est = static_cast<u64>((u128(a[t]) * nu) >> 64);
        out[t] = csub_s(csub_s(a[t] - est * q, 2 * q), q);
    }
}

// ---- Lazy NTT passes. ----

/// One vector CT butterfly under the < 4q invariant: u,v enter
/// arbitrary < 4q, leave < 4q; the twiddle product is lazy < 2q.
inline void
ct_lazy(__m256i &u, __m256i &v, __m256i w, __m256i ws, __m256i qv,
        __m256i twoqv)
{
    __m256i uc = csub(u, twoqv);                // < 2q
    __m256i t = shoup_lazy(v, w, ws, qv);       // < 2q
    u = _mm256_add_epi64(uc, t);                // < 4q
    v = _mm256_add_epi64(_mm256_sub_epi64(uc, t), twoqv); // < 4q
}

/// One vector GS butterfly under the < 2q invariant.
inline void
gs_lazy(__m256i &u, __m256i &v, __m256i w, __m256i ws, __m256i qv,
        __m256i twoqv)
{
    __m256i s = csub(_mm256_add_epi64(u, v), twoqv);      // < 2q
    __m256i d = _mm256_add_epi64(_mm256_sub_epi64(u, v), twoqv);
    v = shoup_lazy(d, w, ws, qv);                         // < 2q
    u = s;
}

void
avx2_ntt_forward(u64 *a, std::size_t n, unsigned logn, const u64 *psi,
                 const u64 *psiShoup, u64 q)
{
    if (n < 8) {
        table(SimdLevel::Scalar).ntt_forward(a, n, logn, psi, psiShoup,
                                             q);
        return;
    }
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i twoqv = _mm256_add_epi64(qv, qv);
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            for (std::size_t i = 0; i < m; ++i) {
                std::size_t j1 = 2 * i * t;
                __m256i w = _mm256_set1_epi64x(
                    static_cast<long long>(psi[m + i]));
                __m256i ws = _mm256_set1_epi64x(
                    static_cast<long long>(psiShoup[m + i]));
                for (std::size_t j = j1; j < j1 + t; j += 4) {
                    __m256i u = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(a + j));
                    __m256i v = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(a + j + t));
                    ct_lazy(u, v, w, ws, qv, twoqv);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(a + j), u);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(a + j + t), v);
                }
            }
        } else if (t == 2) {
            // Two butterfly groups of 4 per iteration; 128-bit
            // halves split each group into its u and v pairs.
            for (std::size_t i = 0; i < m; i += 2) {
                u64 *p = a + 4 * i;
                __m256i x0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p));
                __m256i x1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4));
                __m256i u = _mm256_permute2x128_si256(x0, x1, 0x20);
                __m256i v = _mm256_permute2x128_si256(x0, x1, 0x31);
                __m256i w = _mm256_set_epi64x(
                    static_cast<long long>(psi[m + i + 1]),
                    static_cast<long long>(psi[m + i + 1]),
                    static_cast<long long>(psi[m + i]),
                    static_cast<long long>(psi[m + i]));
                __m256i ws = _mm256_set_epi64x(
                    static_cast<long long>(psiShoup[m + i + 1]),
                    static_cast<long long>(psiShoup[m + i + 1]),
                    static_cast<long long>(psiShoup[m + i]),
                    static_cast<long long>(psiShoup[m + i]));
                ct_lazy(u, v, w, ws, qv, twoqv);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p),
                    _mm256_permute2x128_si256(u, v, 0x20));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + 4),
                    _mm256_permute2x128_si256(u, v, 0x31));
            }
        } else { // t == 1: u/v interleave within 128-bit lanes
            for (std::size_t i = 0; i < m; i += 4) {
                u64 *p = a + 2 * i;
                __m256i x0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p));
                __m256i x1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4));
                // [u0,u2,u1,u3] / [v0,v2,v1,v3]; 0xD8 scrambles the
                // contiguous twiddle load to match.
                __m256i u = _mm256_unpacklo_epi64(x0, x1);
                __m256i v = _mm256_unpackhi_epi64(x0, x1);
                __m256i w = _mm256_permute4x64_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(psi + m +
                                                          i)),
                    0xD8);
                __m256i ws = _mm256_permute4x64_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(psiShoup +
                                                          m + i)),
                    0xD8);
                ct_lazy(u, v, w, ws, qv, twoqv);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p),
                    _mm256_unpacklo_epi64(u, v));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + 4),
                    _mm256_unpackhi_epi64(u, v));
            }
        }
    }
    for (std::size_t j = 0; j < n; j += 4) { // < 4q -> canonical
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + j),
                            csub(csub(x, twoqv), qv));
    }
}

void
avx2_ntt_inverse(u64 *a, std::size_t n, unsigned logn, const u64 *ipsi,
                 const u64 *ipsiShoup, u64 nInv, u64 nInvShoup, u64 q)
{
    if (n < 8) {
        table(SimdLevel::Scalar).ntt_inverse(a, n, logn, ipsi,
                                             ipsiShoup, nInv,
                                             nInvShoup, q);
        return;
    }
    __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    __m256i twoqv = _mm256_add_epi64(qv, qv);
    std::size_t t = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
        std::size_t h = m >> 1;
        if (t == 1) {
            for (std::size_t i = 0; i < h; i += 4) {
                u64 *p = a + 2 * i;
                __m256i x0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p));
                __m256i x1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4));
                __m256i u = _mm256_unpacklo_epi64(x0, x1);
                __m256i v = _mm256_unpackhi_epi64(x0, x1);
                __m256i w = _mm256_permute4x64_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(ipsi + h +
                                                          i)),
                    0xD8);
                __m256i ws = _mm256_permute4x64_epi64(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(ipsiShoup +
                                                          h + i)),
                    0xD8);
                gs_lazy(u, v, w, ws, qv, twoqv);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p),
                    _mm256_unpacklo_epi64(u, v));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + 4),
                    _mm256_unpackhi_epi64(u, v));
            }
        } else if (t == 2) {
            for (std::size_t i = 0; i < h; i += 2) {
                u64 *p = a + 4 * i;
                __m256i x0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p));
                __m256i x1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + 4));
                __m256i u = _mm256_permute2x128_si256(x0, x1, 0x20);
                __m256i v = _mm256_permute2x128_si256(x0, x1, 0x31);
                __m256i w = _mm256_set_epi64x(
                    static_cast<long long>(ipsi[h + i + 1]),
                    static_cast<long long>(ipsi[h + i + 1]),
                    static_cast<long long>(ipsi[h + i]),
                    static_cast<long long>(ipsi[h + i]));
                __m256i ws = _mm256_set_epi64x(
                    static_cast<long long>(ipsiShoup[h + i + 1]),
                    static_cast<long long>(ipsiShoup[h + i + 1]),
                    static_cast<long long>(ipsiShoup[h + i]),
                    static_cast<long long>(ipsiShoup[h + i]));
                gs_lazy(u, v, w, ws, qv, twoqv);
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p),
                    _mm256_permute2x128_si256(u, v, 0x20));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(p + 4),
                    _mm256_permute2x128_si256(u, v, 0x31));
            }
        } else {
            std::size_t j1 = 0;
            for (std::size_t i = 0; i < h; ++i) {
                __m256i w = _mm256_set1_epi64x(
                    static_cast<long long>(ipsi[h + i]));
                __m256i ws = _mm256_set1_epi64x(
                    static_cast<long long>(ipsiShoup[h + i]));
                for (std::size_t j = j1; j < j1 + t; j += 4) {
                    __m256i u = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(a + j));
                    __m256i v = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(a + j + t));
                    gs_lazy(u, v, w, ws, qv, twoqv);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(a + j), u);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i *>(a + j + t), v);
                }
                j1 += 2 * t;
            }
        }
        t <<= 1;
    }
    // Fold n^{-1} into the canonicalizing pass: inputs < 2q, lazy
    // product < 2q, one subtraction finishes.
    __m256i niv = _mm256_set1_epi64x(static_cast<long long>(nInv));
    __m256i nisv = _mm256_set1_epi64x(
        static_cast<long long>(nInvShoup));
    for (std::size_t j = 0; j < n; j += 4) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(a + j),
            csub(shoup_lazy(x, niv, nisv, qv), qv));
    }
}

} // namespace

const KernelTable *
avx2_table()
{
    static const KernelTable t = [] {
        KernelTable k;
        k.add_mod_n = avx2_add_mod_n;
        k.sub_mod_n = avx2_sub_mod_n;
        k.neg_mod_n = avx2_neg_mod_n;
        k.add_scalar_mod_n = avx2_add_scalar_mod_n;
        k.scalar_mul_shoup_n = avx2_scalar_mul_shoup_n;
        k.mul_mod_n = avx2_mul_mod_n;
        k.dot_mod_n = avx2_dot_mod_n;
        k.reduce_mod_n = avx2_reduce_mod_n;
        k.ntt_forward = avx2_ntt_forward;
        k.ntt_inverse = avx2_ntt_inverse;
        return k;
    }();
    return &t;
}

} // namespace poseidon::kernels::internal

#else // !__AVX2__

namespace poseidon::kernels::internal {

const KernelTable *
avx2_table()
{
    return nullptr;
}

} // namespace poseidon::kernels::internal

#endif // __AVX2__
