#ifndef POSEIDON_KERNELS_KERNELS_H_
#define POSEIDON_KERNELS_KERNELS_H_

/**
 * @file
 * Runtime-dispatched SIMD kernels for the host CKKS hot loops.
 *
 * Every serving attempt, bench and test ultimately bottoms out in a
 * handful of batched u64 primitives: elementwise modular add/sub/mul,
 * Shoup multiplication by a fixed constant, the fused inner product
 * behind the keyswitch and RNS base conversion, and the NTT butterfly
 * passes. This
 * layer provides one scalar reference implementation plus AVX2 and
 * AVX-512 variants of each, selected once at startup:
 *
 *  - CPUID picks the best level the CPU (and this binary) supports;
 *  - `POSEIDON_SIMD=scalar|avx2|avx512` overrides the choice (an
 *    unsupported request warns once on stderr and clamps down);
 *  - the decision lands in the `kernels.dispatch.*` gauges so
 *    profiler/bench/journal surfaces record which ISA level ran.
 *
 * Within the AVX-512 level, the NTT passes and `scalar_mul_shoup_n`
 * take a 52-bit IFMA Shoup product, and `dot_mod_n` a 52-bit IFMA
 * accumulation, for q < 2^50 on CPUs with avx512ifma
 * (ifma_supported()).
 *
 * Correctness contract (asserted by tests/test_kernels.cpp):
 * canonical outputs are **bit-identical across dispatch levels** for
 * every modulus width (28-60 bit NTT primes, any q < 2^62), every
 * length (including non-multiples of the vector width) and at every
 * POSEIDON_THREADS setting. The SIMD paths use lazy (< 2q / < 4q)
 * intermediate reduction internally — see DESIGN.md §14 for the
 * bounds — but every kernel performs the final reduction itself and
 * returns canonical values.
 *
 * `dot_mod_n` reduces a sum of products once, not once per product
 * (the paper's shared Barrett reduction, SBT):
 *  - scalar and AVX2: a u128 sum per element, folded by one Barrett
 *    reduction every 15 products (15 products < 2^124 plus a folded
 *    value < q stay below 2^128), then one final Barrett reduction.
 *    AVX2 has no 64x64-bit multiply, so one native `mul` per product
 *    is as fast as its four-lane emulation;
 *  - AVX-512 64-bit (q or the a operands >= 2^50, or no IFMA): the
 *    same schedule with the 128-bit sums in (lo, hi) register pairs,
 *    stored once; the fold is hi * (2^64 mod q) as a lazy Shoup
 *    product plus lo mod q;
 *  - AVX-512 IFMA, when q < 2^50 and every a operand < 2^50: per term
 *    one `madd52lo` into a lo and one `madd52hi` into a hi
 *    accumulator. Each product is < 2^100, so its high half is
 *    < 2^48, and the sum is folded every 16 terms while it is still
 *    below 2^104: with H = hi + (lo >> 52) < 2^52 and L = lo mod 2^52,
 *    two 52-bit Shoup products H * (2^52 mod q) and L * 1, each < 2q,
 *    and two conditional subtractions leave the canonical value.
 * A caller whose a operands are canonical mod another prime (RNS base
 * conversion) passes their bound; a bound above 2^50 keeps the 64-bit
 * path.
 *
 * Aliasing: `out` may be exactly `a` (and/or `b`; for `dot_mod_n`,
 * any a[k] or b[k]); partial overlap is undefined. All kernels are
 * pure elementwise (or whole-transform) functions of their inputs, so
 * chunked invocation under parallel_for yields the same bytes as one
 * call over the full span.
 */

#include <cstddef>

#include "common/modmath.h"

namespace poseidon::kernels {

/// Instruction-set level of a kernel implementation.
enum class SimdLevel { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// "scalar" / "avx2" / "avx512".
const char *level_name(SimdLevel lvl);

/// true when this binary contains an implementation for `lvl`.
bool level_compiled(SimdLevel lvl);

/// true when `lvl` is compiled in *and* the CPU can execute it.
bool level_supported(SimdLevel lvl);

/// The dispatch decision: best supported level, after the
/// POSEIDON_SIMD override. Computed once on first use.
SimdLevel active_level();

/**
 * true when the AVX-512 NTT passes and `scalar_mul_shoup_n` take the
 * 52-bit IFMA Shoup product, and `dot_mod_n` the 52-bit IFMA
 * accumulation, for q < 2^50: the backend
 * was built with them and the CPU reports avx512ifma (checked once).
 * Larger moduli, and CPUs without IFMA, run the 64-bit paths; the
 * outputs are the same bytes.
 */
bool ifma_supported();

/**
 * Batched kernel entry points. Unless noted otherwise inputs are
 * canonical (< q) and outputs canonical; "any a" kernels accept
 * arbitrary u64 values. q < 2^62 throughout (kMaxModulus).
 */
struct KernelTable
{
    /// out[t] = (a[t] + b[t]) mod q.
    void (*add_mod_n)(u64 *out, const u64 *a, const u64 *b,
                      std::size_t n, u64 q) = nullptr;
    /// out[t] = (a[t] - b[t]) mod q.
    void (*sub_mod_n)(u64 *out, const u64 *a, const u64 *b,
                      std::size_t n, u64 q) = nullptr;
    /// out[t] = -a[t] mod q.
    void (*neg_mod_n)(u64 *out, const u64 *a, std::size_t n,
                      u64 q) = nullptr;
    /// out[t] = (a[t] + c) mod q for a constant c < q.
    void (*add_scalar_mod_n)(u64 *out, const u64 *a, std::size_t n,
                             u64 c, u64 q) = nullptr;
    /// out[t] = a[t] * w mod q, Shoup precomputed ws; any a, w < q.
    void (*scalar_mul_shoup_n)(u64 *out, const u64 *a, std::size_t n,
                               u64 w, u64 ws, u64 q) = nullptr;
    /// out[t] = a[t] * b[t] mod q (both canonical).
    void (*mul_mod_n)(u64 *out, const u64 *a, const u64 *b,
                      std::size_t n, u64 q) = nullptr;
    /// out[t] = sum_k a[k][t] * (b[k] ? b[k][t] : w[k]) mod q over
    /// `terms` terms, reduced once. Every a[k][t] < aBound <= 2^62
    /// (pass q when they are canonical mod q); b[k][t], w[k] < q. w is
    /// read only for terms whose b[k] is null, and may be null when
    /// none is.
    void (*dot_mod_n)(u64 *out, const u64 *const *a,
                      const u64 *const *b, const u64 *w,
                      std::size_t terms, std::size_t n, u64 aBound,
                      u64 q) = nullptr;
    /// out[t] = a[t] mod q for any u64 a[t].
    void (*reduce_mod_n)(u64 *out, const u64 *a, std::size_t n,
                         u64 q) = nullptr;
    /// In-place forward negacyclic NTT (natural -> bit-reversed),
    /// merged-psi Cooley-Tukey over the psi^bitrev twiddle tables.
    void (*ntt_forward)(u64 *a, std::size_t n, unsigned logn,
                        const u64 *psi, const u64 *psiShoup,
                        u64 q) = nullptr;
    /// In-place inverse negacyclic NTT (bit-reversed -> natural),
    /// Gentleman-Sande, folding in the final n^{-1} multiply.
    void (*ntt_inverse)(u64 *a, std::size_t n, unsigned logn,
                        const u64 *ipsi, const u64 *ipsiShoup,
                        u64 nInv, u64 nInvShoup, u64 q) = nullptr;
};

/**
 * The kernel table for one level; every backend fills every entry.
 * Asking for an unsupported level returns the best supported one at
 * or below it. References stay valid for the process lifetime.
 */
const KernelTable &table(SimdLevel lvl);

/// The dispatched table — table(active_level()).
const KernelTable &ops();

// ---- Convenience wrappers over the dispatched table. ----

inline void
add_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    ops().add_mod_n(out, a, b, n, q);
}

inline void
sub_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    ops().sub_mod_n(out, a, b, n, q);
}

inline void
neg_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    ops().neg_mod_n(out, a, n, q);
}

inline void
add_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c, u64 q)
{
    ops().add_scalar_mod_n(out, a, n, c, q);
}

inline void
scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w, u64 ws,
                   u64 q)
{
    ops().scalar_mul_shoup_n(out, a, n, w, ws, q);
}

inline void
mul_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    ops().mul_mod_n(out, a, b, n, q);
}

inline void
dot_mod_n(u64 *out, const u64 *const *a, const u64 *const *b,
          const u64 *w, std::size_t terms, std::size_t n, u64 aBound,
          u64 q)
{
    ops().dot_mod_n(out, a, b, w, terms, n, aBound, q);
}

inline void
reduce_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    ops().reduce_mod_n(out, a, n, q);
}

inline void
ntt_forward(u64 *a, std::size_t n, unsigned logn, const u64 *psi,
            const u64 *psiShoup, u64 q)
{
    ops().ntt_forward(a, n, logn, psi, psiShoup, q);
}

inline void
ntt_inverse(u64 *a, std::size_t n, unsigned logn, const u64 *ipsi,
            const u64 *ipsiShoup, u64 nInv, u64 nInvShoup, u64 q)
{
    ops().ntt_inverse(a, n, logn, ipsi, ipsiShoup, nInv, nInvShoup, q);
}

// ---- Shared scalar butterfly primitives. ----
//
// One definition of the butterfly math for every scalar path (the
// reference NTT backend and the fused radix-2^k kernels in
// src/ntt/fusion.cpp), so the paper-model code and the kernel layer
// cannot drift apart.

/// Cooley-Tukey: (u, v) -> (u + wv, u - wv) mod q, canonical in/out.
inline void
ct_butterfly(u64 &u, u64 &v, u64 w, u64 ws, u64 q)
{
    u64 t = mul_shoup(v, w, ws, q);
    v = sub_mod(u, t, q);
    u = add_mod(u, t, q);
}

/// Gentleman-Sande: (u, v) -> (u + v, (u - v) w) mod q.
inline void
gs_butterfly(u64 &u, u64 &v, u64 w, u64 ws, u64 q)
{
    u64 t = sub_mod(u, v, q);
    u = add_mod(u, v, q);
    v = mul_shoup(t, w, ws, q);
}

} // namespace poseidon::kernels

#endif // POSEIDON_KERNELS_KERNELS_H_
