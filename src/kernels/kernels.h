#ifndef POSEIDON_KERNELS_KERNELS_H_
#define POSEIDON_KERNELS_KERNELS_H_

/**
 * @file
 * Runtime-dispatched SIMD kernels for the host CKKS hot loops.
 *
 * Every serving attempt, bench and test ultimately bottoms out in a
 * handful of batched u64 primitives: elementwise modular add/sub/mul,
 * Shoup multiplication by a fixed constant, the keyswitch
 * inner-product accumulation, and the NTT butterfly passes. This
 * layer provides one scalar reference implementation plus AVX2 and
 * AVX-512 variants of each, selected once at startup:
 *
 *  - CPUID picks the best level the CPU (and this binary) supports;
 *  - `POSEIDON_SIMD=scalar|avx2|avx512` overrides the choice (an
 *    unsupported request warns once on stderr and clamps down);
 *  - the decision lands in the `kernels.dispatch.*` gauges so
 *    profiler/bench/journal surfaces record which ISA level ran.
 *
 * Within the AVX-512 level, the NTT passes take 52-bit IFMA
 * butterflies for q < 2^50 on CPUs with avx512ifma (ifma_supported()).
 *
 * Correctness contract (asserted by tests/test_kernels.cpp):
 * canonical outputs are **bit-identical across dispatch levels** for
 * every modulus width (28-60 bit NTT primes, any q < 2^62), every
 * length (including non-multiples of the vector width) and at every
 * POSEIDON_THREADS setting. The SIMD paths use lazy (< 2q / < 4q)
 * intermediate reduction internally — see DESIGN.md §14 for the
 * bounds — but every kernel that returns canonical values performs
 * the final reduction itself, and the two explicitly-lazy kernels
 * (`mul_mod_acc_lazy_n`, `scalar_mul_mod_acc_n`) are only canonical
 * after `normalize_n`, which call sites must apply before results
 * escape.
 *
 * Aliasing: `out` may be exactly `a` (and/or `b`); partial overlap is
 * undefined. All kernels are pure elementwise (or whole-transform)
 * functions of their inputs, so chunked invocation under
 * parallel_for yields the same bytes as one call over the full span.
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
 * true when the AVX-512 NTT passes take 52-bit IFMA butterflies for
 * q < 2^50: the backend was built with them and the CPU reports
 * avx512ifma (checked once). Larger moduli, and CPUs without IFMA,
 * run the 64-bit butterflies; the outputs are the same bytes.
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
    /// out[t] = (a[t] - c) mod q for a constant c < q.
    void (*sub_scalar_mod_n)(u64 *out, const u64 *a, std::size_t n,
                             u64 c, u64 q) = nullptr;
    /// out[t] = a[t] * w mod q, Shoup precomputed ws; any a, w < q.
    void (*scalar_mul_shoup_n)(u64 *out, const u64 *a, std::size_t n,
                               u64 w, u64 ws, u64 q) = nullptr;
    /// acc[t] = lazy(acc[t] + a[t] * w mod q): acc enters and leaves
    /// in [0, 2q); any a, w < q. Finish with normalize_n.
    void (*scalar_mul_mod_acc_n)(u64 *acc, const u64 *a, std::size_t n,
                                 u64 w, u64 ws, u64 q) = nullptr;
    /// out[t] = a[t] * b[t] mod q (both canonical).
    void (*mul_mod_n)(u64 *out, const u64 *a, const u64 *b,
                      std::size_t n, u64 q) = nullptr;
    /// acc[t] = lazy(acc[t] + a[t] * b[t] mod q): acc enters and
    /// leaves in [0, 2q); a, b canonical. Finish with normalize_n.
    void (*mul_mod_acc_lazy_n)(u64 *acc, const u64 *a, const u64 *b,
                               std::size_t n, u64 q) = nullptr;
    /// out[t] = a[t] mod q for any u64 a[t].
    void (*reduce_mod_n)(u64 *out, const u64 *a, std::size_t n,
                         u64 q) = nullptr;
    /// In place: a[t] in [0, 2q) -> canonical [0, q).
    void (*normalize_n)(u64 *a, std::size_t n, u64 q) = nullptr;
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
sub_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c, u64 q)
{
    ops().sub_scalar_mod_n(out, a, n, c, q);
}

inline void
scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w, u64 ws,
                   u64 q)
{
    ops().scalar_mul_shoup_n(out, a, n, w, ws, q);
}

inline void
scalar_mul_mod_acc_n(u64 *acc, const u64 *a, std::size_t n, u64 w,
                     u64 ws, u64 q)
{
    ops().scalar_mul_mod_acc_n(acc, a, n, w, ws, q);
}

inline void
mul_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    ops().mul_mod_n(out, a, b, n, q);
}

inline void
mul_mod_acc_lazy_n(u64 *acc, const u64 *a, const u64 *b, std::size_t n,
                   u64 q)
{
    ops().mul_mod_acc_lazy_n(acc, a, b, n, q);
}

inline void
reduce_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    ops().reduce_mod_n(out, a, n, q);
}

inline void
normalize_n(u64 *a, std::size_t n, u64 q)
{
    ops().normalize_n(a, n, q);
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
