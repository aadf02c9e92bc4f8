/**
 * @file
 * AVX-512F backend for the kernel layer: elementwise kernels, the
 * fused dot product and the NTT butterfly passes.
 *
 * Relative to AVX2 this gains native unsigned 64-bit compares
 * (`_mm512_cmpge_epu64_mask`) and masked subtraction, halving the
 * instruction count of every conditional-subtract, plus twice the
 * lane width. The elementwise kernels build 64-bit products from
 * `_mm512_mul_epu32` partial products — `_mm512_mullo_epi64` is
 * AVX-512DQ, which this backend deliberately does not require. So do
 * the NTT passes for q >= 2^50 and on CPUs without IFMA; below 2^50,
 * on an IFMA CPU, they take a 52-bit `vpmadd52` Shoup product instead
 * (per-function target attribute; the TU stays -mavx512f), as does
 * scalar_mul_shoup_n, and the dot product accumulates 104-bit products
 * in vpmadd52lo/hi pairs. The NTT
 * passes are multiply-bound, not shuffle-bound: the three short-stride
 * stages (t = 4, 2, 1) cost two two-source permutes per vector on each
 * side of the butterfly, and every stage does 8 butterflies per vector
 * op (about 1.4-1.6x the speed of the AVX2 passes at N = 2^14,
 * EXPERIMENTS.md).
 * Transforms shorter than 16 use the AVX2 table.
 *
 * The number-theoretic bounds (lazy Shoup < 2q, width-Barrett < 3q,
 * nu-reduce < 3q) are identical to the AVX2 backend; see that file
 * and DESIGN.md §14. Scalar tails replicate vector lane math exactly
 * so chunked calls stay byte-stable.
 */

#include "kernels/kernels_internal.h"

// GCC before 13 reports -Wmaybe-uninitialized false positives from
// inside avx512fintrin.h (the `__Y = __Y` idiom its intrinsics use for
// an undefined vector) wherever they are inlined here: some 240 lines
// per compile that bury any real warning. Only that warning, only in
// this file, only for those compilers.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#ifdef __AVX512F__

#include <immintrin.h>

namespace poseidon::kernels::internal {

namespace {

inline __m512i
vsrl(__m512i x, unsigned k)
{
    return _mm512_srl_epi64(x, _mm_cvtsi32_si128(static_cast<int>(k)));
}

inline __m512i
vsll(__m512i x, unsigned k)
{
    return _mm512_sll_epi64(x, _mm_cvtsi32_si128(static_cast<int>(k)));
}

inline __m512i
mullo64(__m512i a, __m512i b)
{
    __m512i aH = _mm512_srli_epi64(a, 32);
    __m512i bH = _mm512_srli_epi64(b, 32);
    __m512i ll = _mm512_mul_epu32(a, b);
    __m512i cross = _mm512_add_epi64(_mm512_mul_epu32(a, bH),
                                     _mm512_mul_epu32(aH, b));
    return _mm512_add_epi64(ll, _mm512_slli_epi64(cross, 32));
}

inline __m512i
mulhi64(__m512i a, __m512i b)
{
    __m512i mask32 = _mm512_set1_epi64(0xffffffff);
    __m512i aH = _mm512_srli_epi64(a, 32);
    __m512i bH = _mm512_srli_epi64(b, 32);
    __m512i ll = _mm512_mul_epu32(a, b);
    __m512i lh = _mm512_mul_epu32(a, bH);
    __m512i hl = _mm512_mul_epu32(aH, b);
    __m512i hh = _mm512_mul_epu32(aH, bH);
    __m512i carry = _mm512_srli_epi64(
        _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                             _mm512_and_si512(lh, mask32)),
            _mm512_and_si512(hl, mask32)),
        32);
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32), carry));
}

/// Both halves of the lanewise 64x64 product from one set of partial
/// products (a mullo64 + mulhi64 pair would recompute three of them).
inline void
mul64wide(__m512i a, __m512i b, __m512i &lo, __m512i &hi)
{
    __m512i mask32 = _mm512_set1_epi64(0xffffffff);
    __m512i aH = _mm512_srli_epi64(a, 32);
    __m512i bH = _mm512_srli_epi64(b, 32);
    __m512i ll = _mm512_mul_epu32(a, b);
    __m512i lh = _mm512_mul_epu32(a, bH);
    __m512i hl = _mm512_mul_epu32(aH, b);
    __m512i hh = _mm512_mul_epu32(aH, bH);
    __m512i cross = _mm512_add_epi64(lh, hl);
    lo = _mm512_add_epi64(ll, _mm512_slli_epi64(cross, 32));
    __m512i carry = _mm512_srli_epi64(
        _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                             _mm512_and_si512(lh, mask32)),
            _mm512_and_si512(hl, mask32)),
        32);
    hi = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32), carry));
}

/// x - (x >= m ? m : 0) with the native unsigned compare.
inline __m512i
csub(__m512i x, __m512i m)
{
    __mmask8 ge = _mm512_cmpge_epu64_mask(x, m);
    return _mm512_mask_sub_epi64(x, ge, x, m);
}

inline __m512i
shoup_lazy(__m512i v, __m512i w, __m512i ws, __m512i q)
{
    __m512i hi = mulhi64(v, ws);
    return _mm512_sub_epi64(mullo64(v, w), mullo64(hi, q));
}

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

struct WidthBarrett
{
    u64 mu = 0;
    unsigned sh1 = 0;
    unsigned sh2 = 0;
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

/// Same pre-shifted mu trick as the AVX2 backend: for sh2 <= 64 the
/// estimate is one high product of t and mu << (64-sh2); for sh2 > 64
/// the raw high product is shifted after. Both equal (t*mu) >> sh2
/// exactly, matching the scalar replica.
inline __m512i
wb_mu_broadcast(const WidthBarrett &wb)
{
    u64 m = wb.sh2 > 64 ? wb.mu : wb.mu << (64 - wb.sh2);
    return _mm512_set1_epi64(static_cast<long long>(m));
}

inline __m512i
wb_mul_lazy(__m512i av, __m512i bv, const WidthBarrett &wb,
            __m512i muv, __m512i qv, __m512i twoqv)
{
    __m512i xlo, xhi;
    mul64wide(av, bv, xlo, xhi);
    __m512i t = _mm512_or_si512(vsll(xhi, 64 - wb.sh1),
                                vsrl(xlo, wb.sh1));
    __m512i est = mulhi64(t, muv);
    if (wb.sh2 > 64) est = vsrl(est, wb.sh2 - 64);
    __m512i r = _mm512_sub_epi64(xlo, mullo64(est, qv));
    return csub(r, twoqv);
}

inline u64
wb_mul_lazy_s(u64 a, u64 b, const WidthBarrett &wb, u64 q)
{
    u128 x = u128(a) * b;
    u64 t = static_cast<u64>(x >> wb.sh1);
    u64 est = static_cast<u64>((u128(t) * wb.mu) >> wb.sh2);
    u64 r = static_cast<u64>(x) - est * q;
    return csub_s(r, 2 * q);
}

void
avx512_add_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __m512i bv = _mm512_loadu_si512(b + t);
        _mm512_storeu_si512(out + t,
                            csub(_mm512_add_epi64(av, bv), qv));
    }
    for (; t < n; ++t) out[t] = add_mod(a[t], b[t], q);
}

void
avx512_sub_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __m512i bv = _mm512_loadu_si512(b + t);
        __mmask8 lt = _mm512_cmplt_epu64_mask(av, bv);
        __m512i d = _mm512_sub_epi64(av, bv);
        d = _mm512_mask_add_epi64(d, lt, d, qv);
        _mm512_storeu_si512(out + t, d);
    }
    for (; t < n; ++t) out[t] = sub_mod(a[t], b[t], q);
}

void
avx512_neg_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i zero = _mm512_setzero_si512();
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __mmask8 nz = _mm512_cmpneq_epi64_mask(av, zero);
        _mm512_storeu_si512(
            out + t, _mm512_maskz_sub_epi64(nz, qv, av));
    }
    for (; t < n; ++t) out[t] = neg_mod(a[t], q);
}

void
avx512_add_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c,
                        u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i cv = _mm512_set1_epi64(static_cast<long long>(c));
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        _mm512_storeu_si512(out + t,
                            csub(_mm512_add_epi64(av, cv), qv));
    }
    for (; t < n; ++t) out[t] = add_mod(a[t], c, q);
}

void
avx512_scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w,
                          u64 ws, u64 q)
{
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i wv = _mm512_set1_epi64(static_cast<long long>(w));
    __m512i wsv = _mm512_set1_epi64(static_cast<long long>(ws));
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        _mm512_storeu_si512(
            out + t, csub(shoup_lazy(av, wv, wsv, qv), qv));
    }
    for (; t < n; ++t) {
        out[t] = csub_s(shoup_lazy_s(a[t], w, ws, q), q);
    }
}

void
avx512_mul_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    if (q < 8) {
        Barrett64 br(q);
        for (std::size_t t = 0; t < n; ++t) out[t] = br.mul(a[t], b[t]);
        return;
    }
    WidthBarrett wb = make_wb(q);
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i muv = wb_mu_broadcast(wb);
    __m512i twoqv = _mm512_add_epi64(qv, qv);
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __m512i bv = _mm512_loadu_si512(b + t);
        __m512i r = wb_mul_lazy(av, bv, wb, muv, qv, twoqv);
        _mm512_storeu_si512(out + t, csub(r, qv));
    }
    for (; t < n; ++t) {
        out[t] = csub_s(wb_mul_lazy_s(a[t], b[t], wb, q), q);
    }
}

/// The constants of fold128: Shoup's for 2^64 mod q, and
/// nu = floor(2^64 / q).
struct Fold128
{
    __m512i qv, twoqv, c, cs, nu;

    explicit Fold128(u64 q)
    {
        u64 c64 = static_cast<u64>((u128(1) << 64) % q);
        qv = _mm512_set1_epi64(static_cast<long long>(q));
        twoqv = _mm512_add_epi64(qv, qv);
        c = _mm512_set1_epi64(static_cast<long long>(c64));
        cs = _mm512_set1_epi64(
            static_cast<long long>((u128(c64) << 64) / q));
        nu = _mm512_set1_epi64(
            static_cast<long long>((u128(1) << 64) / q));
    }
};

/// Canonical (hi * 2^64 + lo) mod q for any hi, lo: the lazy Shoup
/// product hi * (2^64 mod q) < 2q plus lo mod q (nu-reduced, < 3q,
/// two subtractions) stays below 3q < 2^64.
inline __m512i
fold128(__m512i lo, __m512i hi, const Fold128 &f)
{
    __m512i l = _mm512_sub_epi64(lo, mullo64(mulhi64(lo, f.nu), f.qv));
    l = csub(csub(l, f.twoqv), f.qv);
    __m512i r = _mm512_add_epi64(shoup_lazy(hi, f.c, f.cs, f.qv), l);
    return csub(csub(r, f.twoqv), f.qv);
}

/// The 64-bit dot product, for q >= 2^50, an operand bound above 2^50
/// and CPUs without IFMA: the full 128-bit products summed in a (lo, hi)
/// register pair, folded every 15 terms (15 products < 2^124 plus a
/// folded value < q stay below 2^128, as in the scalar path) and
/// reduced once.
void
avx512_dot_mod_n(u64 *out, const u64 *const *a, const u64 *const *b,
                 const u64 *w, std::size_t terms, std::size_t n,
                 u64 aBound, u64 q)
{
    (void)aBound;
    Fold128 f(q);
    const __m512i one = _mm512_set1_epi64(1);
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i lo = _mm512_setzero_si512();
        __m512i hi = _mm512_setzero_si512();
        for (std::size_t k = 0; k < terms; ++k) {
            if (k != 0 && k % 15 == 0) {
                lo = fold128(lo, hi, f);
                hi = _mm512_setzero_si512();
            }
            __m512i av = _mm512_loadu_si512(a[k] + t);
            __m512i bv = b[k] ? _mm512_loadu_si512(b[k] + t)
                              : _mm512_set1_epi64(
                                    static_cast<long long>(w[k]));
            __m512i plo, phi;
            mul64wide(av, bv, plo, phi);
            lo = _mm512_add_epi64(lo, plo);
            __mmask8 carry = _mm512_cmplt_epu64_mask(lo, plo);
            hi = _mm512_add_epi64(hi, phi);
            hi = _mm512_mask_add_epi64(hi, carry, hi, one);
        }
        _mm512_storeu_si512(out + t, fold128(lo, hi, f));
    }
    dot_mod_scalar(out, a, b, w, terms, t, n, q);
}

void
avx512_reduce_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    if (q < 2) {
        for (std::size_t t = 0; t < n; ++t) out[t] = 0;
        return;
    }
    u64 nu = static_cast<u64>((u128(1) << 64) / q);
    __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    __m512i nuv = _mm512_set1_epi64(static_cast<long long>(nu));
    __m512i twoqv = _mm512_add_epi64(qv, qv);
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __m512i r = _mm512_sub_epi64(av,
                                     mullo64(mulhi64(av, nuv), qv));
        _mm512_storeu_si512(out + t, csub(csub(r, twoqv), qv));
    }
    for (; t < n; ++t) {
        u64 est = static_cast<u64>((u128(a[t]) * nu) >> 64);
        out[t] = csub_s(csub_s(a[t] - est * q, 2 * q), q);
    }
}

// ---- Lazy NTT passes. ----
//
// Same Harvey bounds as the AVX2 passes: forward coefficients stay
// < 4q between stages, inverse ones < 2q, and the last pass of each
// canonicalizes (the inverse folding in n^{-1}). Stages with t >= 8
// pair whole vectors; t = 4, 2, 1 load two vectors and split them
// into their u and v halves with one 64-bit permute each, so every
// stage runs 8 butterflies per vector op.

inline __m512i
bcast(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

inline __m512i
idx8(long long e0, long long e1, long long e2, long long e3,
     long long e4, long long e5, long long e6, long long e7)
{
    return _mm512_set_epi64(e7, e6, e5, e4, e3, e2, e1, e0);
}

/// The twiddle product of the 64-bit passes: a lazy Shoup product
/// (< 2q) from _mm512_mul_epu32 partial products, for any q < 2^62.
struct Shoup64
{
    /// The Shoup constant as the tables store it, floor(w * 2^64 / q).
    static inline __m512i quotient(__m512i ws) { return ws; }

    static inline __m512i
    mul(__m512i v, __m512i w, __m512i ws, __m512i qv)
    {
        return shoup_lazy(v, w, ws, qv);
    }
};

#ifdef POSEIDON_HAVE_AVX512IFMA

#define POSEIDON_IFMA __attribute__((target("avx512f,avx512ifma")))

/// Largest modulus the IFMA passes take: every lazy operand stays
/// below 4q <= 2^52, the width of the 52-bit multiplier.
constexpr u64 kIfmaModulusBound = u64(1) << 50;

/**
 * The twiddle product of the IFMA passes (Intel HEXL's approach,
 * Boemer et al. 2021): a 52-bit Shoup product. With the constant
 * w' = floor(w * 2^52 / q), which is the 64-bit one shifted right by
 * 12, hi = floor(v * w' / 2^52) and r = v*w - hi*q lies in [0, 2q)
 * for every v < 2^52, so its low 52 bits are all of it: three
 * vpmadd52 instructions and a mask instead of ten 32-bit partial
 * products. Needs v, w, q < 2^52.
 */
struct Shoup52
{
    static inline __m512i
    quotient(__m512i ws)
    {
        return _mm512_srli_epi64(ws, 12);
    }

    static inline POSEIDON_IFMA __m512i
    mul(__m512i v, __m512i w, __m512i ws, __m512i qv)
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);
        // vpmadd52 reads the low 52 bits of -q, 2^52 - q, so one more
        // multiply-add subtracts hi * q mod 2^52.
        __m512i negq = _mm512_sub_epi64(zero, qv);
        __m512i hi = _mm512_madd52hi_epu64(zero, v, ws);
        __m512i r = _mm512_madd52lo_epu64(zero, v, w);
        r = _mm512_madd52lo_epu64(r, hi, negq);
        return _mm512_and_si512(r, mask52);
    }
};

#endif // POSEIDON_HAVE_AVX512IFMA

/// One vector CT butterfly: u, v enter and leave < 4q; the twiddle
/// product is lazy < 2q.
template <class Mul>
inline __attribute__((always_inline)) void
ct_lazy(__m512i &u, __m512i &v, __m512i w, __m512i ws, __m512i qv,
        __m512i twoqv)
{
    __m512i uc = csub(u, twoqv);
    __m512i t = Mul::mul(v, w, ws, qv);
    u = _mm512_add_epi64(uc, t);
    v = _mm512_add_epi64(_mm512_sub_epi64(uc, t), twoqv);
}

/// One vector GS butterfly: u, v enter and leave < 2q.
template <class Mul>
inline __attribute__((always_inline)) void
gs_lazy(__m512i &u, __m512i &v, __m512i w, __m512i ws, __m512i qv,
        __m512i twoqv)
{
    __m512i s = csub(_mm512_add_epi64(u, v), twoqv);
    __m512i d = _mm512_add_epi64(_mm512_sub_epi64(u, v), twoqv);
    v = Mul::mul(d, w, ws, qv);
    u = s;
}

/**
 * Split/merge of two loaded vectors x0 = a[p..p+8), x1 = a[p+8..p+16)
 * into the u and v operands of a stage with butterfly distance t < 8,
 * and the twiddle layout that matches. Group g (2t elements) holds its
 * u half first; a pair of vectors covers 8/t groups.
 */
struct SmallStride
{
    __m512i uIdx, vIdx;   ///< permutex2var picks u / v from (x0, x1)
    __m512i lo, hi;       ///< permutex2var rebuilds x0 / x1 from (u, v)
    __m512i wIdx;         ///< lane -> group within the 8/t twiddles

    explicit SmallStride(std::size_t t)
    {
        if (t == 4) {
            uIdx = lo = idx8(0, 1, 2, 3, 8, 9, 10, 11);
            vIdx = hi = idx8(4, 5, 6, 7, 12, 13, 14, 15);
            wIdx = idx8(0, 0, 0, 0, 1, 1, 1, 1);
        } else if (t == 2) {
            uIdx = idx8(0, 1, 4, 5, 8, 9, 12, 13);
            vIdx = idx8(2, 3, 6, 7, 10, 11, 14, 15);
            lo = idx8(0, 1, 8, 9, 2, 3, 10, 11);
            hi = idx8(4, 5, 12, 13, 6, 7, 14, 15);
            wIdx = idx8(0, 0, 1, 1, 2, 2, 3, 3);
        } else {
            uIdx = idx8(0, 2, 4, 6, 8, 10, 12, 14);
            vIdx = idx8(1, 3, 5, 7, 9, 11, 13, 15);
            lo = idx8(0, 8, 1, 9, 2, 10, 3, 11);
            hi = idx8(4, 12, 5, 13, 6, 14, 7, 15);
            wIdx = idx8(0, 1, 2, 3, 4, 5, 6, 7);
        }
    }
};

/// Twiddles for the 8/t groups starting at tw[0], spread per lane.
inline __m512i
small_twiddles(const u64 *tw, std::size_t t, __m512i wIdx)
{
    if (t == 1) return _mm512_loadu_si512(tw);
    // 2 (t = 4) or 4 (t = 2) values, spread by wIdx.
    __m512i raw = _mm512_maskz_loadu_epi64(t == 4 ? 0x03 : 0x0f, tw);
    return _mm512_permutexvar_epi64(wIdx, raw);
}

/// The forward passes for n >= 16, with the twiddle product `Mul`.
template <class Mul>
inline __attribute__((always_inline)) void
forward_passes(u64 *a, std::size_t n, const u64 *psi, const u64 *psiShoup,
               u64 q)
{
    __m512i qv = bcast(q);
    __m512i twoqv = _mm512_add_epi64(qv, qv);
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 8) {
            for (std::size_t i = 0; i < m; ++i) {
                std::size_t j1 = 2 * i * t;
                __m512i w = bcast(psi[m + i]);
                __m512i ws = Mul::quotient(bcast(psiShoup[m + i]));
                for (std::size_t j = j1; j < j1 + t; j += 8) {
                    __m512i u = _mm512_loadu_si512(a + j);
                    __m512i v = _mm512_loadu_si512(a + j + t);
                    ct_lazy<Mul>(u, v, w, ws, qv, twoqv);
                    _mm512_storeu_si512(a + j, u);
                    _mm512_storeu_si512(a + j + t, v);
                }
            }
            continue;
        }
        SmallStride ss(t);
        std::size_t groups = 8 / t; // per pair of vectors
        for (std::size_t i = 0; i < m; i += groups) {
            u64 *p = a + 2 * t * i;
            __m512i x0 = _mm512_loadu_si512(p);
            __m512i x1 = _mm512_loadu_si512(p + 8);
            __m512i u = _mm512_permutex2var_epi64(x0, ss.uIdx, x1);
            __m512i v = _mm512_permutex2var_epi64(x0, ss.vIdx, x1);
            __m512i w = small_twiddles(psi + m + i, t, ss.wIdx);
            __m512i ws = Mul::quotient(
                small_twiddles(psiShoup + m + i, t, ss.wIdx));
            ct_lazy<Mul>(u, v, w, ws, qv, twoqv);
            _mm512_storeu_si512(p, _mm512_permutex2var_epi64(u, ss.lo, v));
            _mm512_storeu_si512(p + 8,
                                _mm512_permutex2var_epi64(u, ss.hi, v));
        }
    }
    for (std::size_t j = 0; j < n; j += 8) { // < 4q -> canonical
        __m512i x = _mm512_loadu_si512(a + j);
        _mm512_storeu_si512(a + j, csub(csub(x, twoqv), qv));
    }
}

/// The inverse passes for n >= 16, with the twiddle product `Mul`.
template <class Mul>
inline __attribute__((always_inline)) void
inverse_passes(u64 *a, std::size_t n, const u64 *ipsi,
               const u64 *ipsiShoup, u64 nInv, u64 nInvShoup, u64 q)
{
    __m512i qv = bcast(q);
    __m512i twoqv = _mm512_add_epi64(qv, qv);
    std::size_t t = 1;
    for (std::size_t m = n; m > 1; m >>= 1, t <<= 1) {
        std::size_t h = m >> 1;
        if (t >= 8) {
            for (std::size_t i = 0; i < h; ++i) {
                std::size_t j1 = 2 * i * t;
                __m512i w = bcast(ipsi[h + i]);
                __m512i ws = Mul::quotient(bcast(ipsiShoup[h + i]));
                for (std::size_t j = j1; j < j1 + t; j += 8) {
                    __m512i u = _mm512_loadu_si512(a + j);
                    __m512i v = _mm512_loadu_si512(a + j + t);
                    gs_lazy<Mul>(u, v, w, ws, qv, twoqv);
                    _mm512_storeu_si512(a + j, u);
                    _mm512_storeu_si512(a + j + t, v);
                }
            }
            continue;
        }
        SmallStride ss(t);
        std::size_t groups = 8 / t;
        for (std::size_t i = 0; i < h; i += groups) {
            u64 *p = a + 2 * t * i;
            __m512i x0 = _mm512_loadu_si512(p);
            __m512i x1 = _mm512_loadu_si512(p + 8);
            __m512i u = _mm512_permutex2var_epi64(x0, ss.uIdx, x1);
            __m512i v = _mm512_permutex2var_epi64(x0, ss.vIdx, x1);
            __m512i w = small_twiddles(ipsi + h + i, t, ss.wIdx);
            __m512i ws = Mul::quotient(
                small_twiddles(ipsiShoup + h + i, t, ss.wIdx));
            gs_lazy<Mul>(u, v, w, ws, qv, twoqv);
            _mm512_storeu_si512(p, _mm512_permutex2var_epi64(u, ss.lo, v));
            _mm512_storeu_si512(p + 8,
                                _mm512_permutex2var_epi64(u, ss.hi, v));
        }
    }
    // Fold n^{-1} into the canonicalizing pass: inputs < 2q, lazy
    // product < 2q, one subtraction finishes.
    __m512i niv = bcast(nInv);
    __m512i nisv = Mul::quotient(bcast(nInvShoup));
    for (std::size_t j = 0; j < n; j += 8) {
        __m512i x = _mm512_loadu_si512(a + j);
        _mm512_storeu_si512(a + j,
                            csub(Mul::mul(x, niv, nisv, qv), qv));
    }
}

void
avx512_ntt_forward(u64 *a, std::size_t n, unsigned logn, const u64 *psi,
                   const u64 *psiShoup, u64 q)
{
    if (n < 16) {
        table(SimdLevel::Avx2).ntt_forward(a, n, logn, psi, psiShoup, q);
        return;
    }
    forward_passes<Shoup64>(a, n, psi, psiShoup, q);
}

void
avx512_ntt_inverse(u64 *a, std::size_t n, unsigned logn, const u64 *ipsi,
                   const u64 *ipsiShoup, u64 nInv, u64 nInvShoup, u64 q)
{
    if (n < 16) {
        table(SimdLevel::Avx2).ntt_inverse(a, n, logn, ipsi, ipsiShoup,
                                           nInv, nInvShoup, q);
        return;
    }
    inverse_passes<Shoup64>(a, n, ipsi, ipsiShoup, nInv, nInvShoup, q);
}

#ifdef POSEIDON_HAVE_AVX512IFMA

// The IFMA entry points: the 52-bit passes for q < 2^50, the 64-bit
// ones otherwise. Both leave canonical, hence identical, outputs.

POSEIDON_IFMA void
ifma_ntt_forward(u64 *a, std::size_t n, unsigned logn, const u64 *psi,
                 const u64 *psiShoup, u64 q)
{
    if (n < 16 || q >= kIfmaModulusBound) {
        avx512_ntt_forward(a, n, logn, psi, psiShoup, q);
        return;
    }
    forward_passes<Shoup52>(a, n, psi, psiShoup, q);
}

POSEIDON_IFMA void
ifma_ntt_inverse(u64 *a, std::size_t n, unsigned logn, const u64 *ipsi,
                 const u64 *ipsiShoup, u64 nInv, u64 nInvShoup, u64 q)
{
    if (n < 16 || q >= kIfmaModulusBound) {
        avx512_ntt_inverse(a, n, logn, ipsi, ipsiShoup, nInv, nInvShoup,
                           q);
        return;
    }
    inverse_passes<Shoup52>(a, n, ipsi, ipsiShoup, nInv, nInvShoup, q);
}

/// scalar_mul_shoup_n with the 52-bit Shoup product for q < 2^50. A
/// vector holding an operand >= 2^52 (the kernel accepts any a) takes
/// the 64-bit product.
POSEIDON_IFMA void
ifma_scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w,
                        u64 ws, u64 q)
{
    if (q >= kIfmaModulusBound) {
        avx512_scalar_mul_shoup_n(out, a, n, w, ws, q);
        return;
    }
    __m512i qv = bcast(q);
    __m512i wv = bcast(w);
    __m512i wsv = bcast(ws);
    __m512i ws52 = Shoup52::quotient(wsv);
    const __m512i high = bcast(~((u64(1) << 52) - 1));
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        __m512i av = _mm512_loadu_si512(a + t);
        __m512i r = _mm512_test_epi64_mask(av, high)
                        ? shoup_lazy(av, wv, wsv, qv)
                        : Shoup52::mul(av, wv, ws52, qv);
        _mm512_storeu_si512(out + t, csub(r, qv));
    }
    for (; t < n; ++t) {
        out[t] = csub_s(shoup_lazy_s(a[t], w, ws, q), q);
    }
}

/// The constants of the IFMA dot product's final reduction.
struct Fold52
{
    __m512i qv, twoqv;
    __m512i c, cs;     ///< 2^52 mod q and its 52-bit Shoup constant
    __m512i one, ones; ///< 1 and its 52-bit Shoup constant

    explicit Fold52(u64 q)
    {
        u64 c52 = (u64(1) << 52) % q;
        qv = bcast(q);
        twoqv = bcast(2 * q);
        c = bcast(c52);
        cs = bcast(static_cast<u64>((u128(c52) << 52) / q));
        one = bcast(1);
        ones = bcast((u64(1) << 52) / q);
    }
};

/// Canonical (hi * 2^52 + lo) mod q for a sum below 2^104: then
/// H = hi + (lo >> 52) < 2^52 and L = lo mod 2^52, and the 52-bit
/// Shoup products H * (2^52 mod q) and L * 1 are each < 2q.
POSEIDON_IFMA inline __m512i
fold52(__m512i lo, __m512i hi, const Fold52 &f)
{
    const __m512i mask52 = _mm512_set1_epi64((1LL << 52) - 1);
    __m512i h = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
    __m512i l = _mm512_and_si512(lo, mask52);
    __m512i r = _mm512_add_epi64(Shoup52::mul(h, f.c, f.cs, f.qv),
                                 Shoup52::mul(l, f.one, f.ones, f.qv));
    return csub(csub(r, f.twoqv), f.qv);
}

/// Terms accumulated between folds. Each product of two values
/// < 2^50 is < 2^100, so 16 of them plus a folded value < q stay below
/// 2^104 (and lo, a sum of 52-bit halves, below 2^57).
constexpr std::size_t kFold52Terms = 16;

/// The IFMA dot product over V vectors (8V elements) at out + t: two
/// accumulators per vector, the full 104-bit product split between
/// them, reduced every kFold52Terms terms and once at the end.
template <int V>
POSEIDON_IFMA inline __attribute__((always_inline)) void
dot_block52(u64 *out, const u64 *const *a, const u64 *const *b,
            const u64 *w, std::size_t terms, std::size_t t,
            const Fold52 &f)
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i lo[V], hi[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) lo[v] = hi[v] = zero;
    for (std::size_t k = 0; k < terms; ++k) {
        if (k != 0 && k % kFold52Terms == 0) {
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v) {
                lo[v] = fold52(lo[v], hi[v], f);
                hi[v] = zero;
            }
        }
        const u64 *ak = a[k] + t;
        if (b[k]) {
            const u64 *bk = b[k] + t;
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v) {
                __m512i av = _mm512_loadu_si512(ak + 8 * v);
                __m512i bv = _mm512_loadu_si512(bk + 8 * v);
                lo[v] = _mm512_madd52lo_epu64(lo[v], av, bv);
                hi[v] = _mm512_madd52hi_epu64(hi[v], av, bv);
            }
        } else {
            __m512i wv = bcast(w[k]);
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v) {
                __m512i av = _mm512_loadu_si512(ak + 8 * v);
                lo[v] = _mm512_madd52lo_epu64(lo[v], av, wv);
                hi[v] = _mm512_madd52hi_epu64(hi[v], av, wv);
            }
        }
    }
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
        _mm512_storeu_si512(out + t + 8 * v, fold52(lo[v], hi[v], f));
    }
}

/// The IFMA dot product for q < 2^50 and a operands < 2^50, the 64-bit
/// one otherwise. Four vectors per block keep eight independent
/// multiply-add chains in flight.
POSEIDON_IFMA void
ifma_dot_mod_n(u64 *out, const u64 *const *a, const u64 *const *b,
               const u64 *w, std::size_t terms, std::size_t n, u64 aBound,
               u64 q)
{
    if (q >= kIfmaModulusBound || aBound > kIfmaModulusBound) {
        avx512_dot_mod_n(out, a, b, w, terms, n, aBound, q);
        return;
    }
    Fold52 f(q);
    std::size_t t = 0;
    for (; t + 32 <= n; t += 32) dot_block52<4>(out, a, b, w, terms, t, f);
    for (; t + 8 <= n; t += 8) dot_block52<1>(out, a, b, w, terms, t, f);
    dot_mod_scalar(out, a, b, w, terms, t, n, q);
}

#endif // POSEIDON_HAVE_AVX512IFMA

} // namespace

const KernelTable *
avx512_table()
{
    static const KernelTable t = [] {
        KernelTable k;
        k.add_mod_n = avx512_add_mod_n;
        k.sub_mod_n = avx512_sub_mod_n;
        k.neg_mod_n = avx512_neg_mod_n;
        k.add_scalar_mod_n = avx512_add_scalar_mod_n;
        k.scalar_mul_shoup_n = avx512_scalar_mul_shoup_n;
        k.mul_mod_n = avx512_mul_mod_n;
        k.dot_mod_n = avx512_dot_mod_n;
        k.reduce_mod_n = avx512_reduce_mod_n;
        k.ntt_forward = avx512_ntt_forward;
        k.ntt_inverse = avx512_ntt_inverse;
#ifdef POSEIDON_HAVE_AVX512IFMA
        if (ifma_supported()) {
            k.ntt_forward = ifma_ntt_forward;
            k.ntt_inverse = ifma_ntt_inverse;
            k.dot_mod_n = ifma_dot_mod_n;
            k.scalar_mul_shoup_n = ifma_scalar_mul_shoup_n;
        }
#endif
        return k;
    }();
    return &t;
}

bool
avx512_ifma_compiled()
{
#ifdef POSEIDON_HAVE_AVX512IFMA
    return true;
#else
    return false;
#endif
}

} // namespace poseidon::kernels::internal

#else // !__AVX512F__

namespace poseidon::kernels::internal {

const KernelTable *
avx512_table()
{
    return nullptr;
}

bool
avx512_ifma_compiled()
{
    return false;
}

} // namespace poseidon::kernels::internal

#endif // __AVX512F__
