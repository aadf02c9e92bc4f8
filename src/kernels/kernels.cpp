#include "kernels/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/metric_sink.h"
#include "kernels/kernels_internal.h"

namespace poseidon::kernels {

namespace {

// ---- Scalar reference backend. ----
//
// This is the baseline every SIMD variant is differentially tested
// against (and the bench speedups are measured against). It reuses
// the shared scalar primitives from common/modmath.h one element at a
// time, so it is exactly the code the hot loops ran before this layer
// existed.

void
scalar_add_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    for (std::size_t t = 0; t < n; ++t) out[t] = add_mod(a[t], b[t], q);
}

void
scalar_sub_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    for (std::size_t t = 0; t < n; ++t) out[t] = sub_mod(a[t], b[t], q);
}

void
scalar_neg_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    for (std::size_t t = 0; t < n; ++t) out[t] = neg_mod(a[t], q);
}

void
scalar_add_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c,
                        u64 q)
{
    for (std::size_t t = 0; t < n; ++t) out[t] = add_mod(a[t], c, q);
}

void
scalar_sub_scalar_mod_n(u64 *out, const u64 *a, std::size_t n, u64 c,
                        u64 q)
{
    for (std::size_t t = 0; t < n; ++t) out[t] = sub_mod(a[t], c, q);
}

void
scalar_scalar_mul_shoup_n(u64 *out, const u64 *a, std::size_t n, u64 w,
                          u64 ws, u64 q)
{
    for (std::size_t t = 0; t < n; ++t) {
        out[t] = mul_shoup(a[t], w, ws, q);
    }
}

void
scalar_scalar_mul_mod_acc_n(u64 *acc, const u64 *a, std::size_t n,
                            u64 w, u64 ws, u64 q)
{
    u64 twoq = 2 * q;
    for (std::size_t t = 0; t < n; ++t) {
        u64 s = acc[t] + mul_shoup(a[t], w, ws, q);
        acc[t] = s >= twoq ? s - twoq : s;
    }
}

void
scalar_mul_mod_n(u64 *out, const u64 *a, const u64 *b, std::size_t n,
                 u64 q)
{
    Barrett64 br(q);
    for (std::size_t t = 0; t < n; ++t) out[t] = br.mul(a[t], b[t]);
}

void
scalar_mul_mod_acc_lazy_n(u64 *acc, const u64 *a, const u64 *b,
                          std::size_t n, u64 q)
{
    Barrett64 br(q);
    u64 twoq = 2 * q;
    for (std::size_t t = 0; t < n; ++t) {
        u64 s = acc[t] + br.mul(a[t], b[t]);
        acc[t] = s >= twoq ? s - twoq : s;
    }
}

void
scalar_reduce_mod_n(u64 *out, const u64 *a, std::size_t n, u64 q)
{
    Barrett64 br(q);
    for (std::size_t t = 0; t < n; ++t) {
        out[t] = a[t] < q ? a[t] : br.reduce(a[t]);
    }
}

void
scalar_normalize_n(u64 *a, std::size_t n, u64 q)
{
    for (std::size_t t = 0; t < n; ++t) {
        a[t] -= q & (0 - static_cast<u64>(a[t] >= q));
    }
}

void
scalar_ntt_forward(u64 *a, std::size_t n, unsigned logn, const u64 *psi,
                   const u64 *psiShoup, u64 q)
{
    (void)logn;
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            std::size_t j1 = 2 * i * t;
            u64 w = psi[m + i];
            u64 ws = psiShoup[m + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                ct_butterfly(a[j], a[j + t], w, ws, q);
            }
        }
    }
}

void
scalar_ntt_inverse(u64 *a, std::size_t n, unsigned logn,
                   const u64 *ipsi, const u64 *ipsiShoup, u64 nInv,
                   u64 nInvShoup, u64 q)
{
    (void)logn;
    std::size_t t = 1;
    for (std::size_t m = n; m > 1; m >>= 1) {
        std::size_t j1 = 0;
        std::size_t h = m >> 1;
        for (std::size_t i = 0; i < h; ++i) {
            u64 w = ipsi[h + i];
            u64 ws = ipsiShoup[h + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                gs_butterfly(a[j], a[j + t], w, ws, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::size_t j = 0; j < n; ++j) {
        a[j] = mul_shoup(a[j], nInv, nInvShoup, q);
    }
}

const KernelTable &
scalar_table()
{
    static const KernelTable t = [] {
        KernelTable k;
        k.add_mod_n = scalar_add_mod_n;
        k.sub_mod_n = scalar_sub_mod_n;
        k.neg_mod_n = scalar_neg_mod_n;
        k.add_scalar_mod_n = scalar_add_scalar_mod_n;
        k.sub_scalar_mod_n = scalar_sub_scalar_mod_n;
        k.scalar_mul_shoup_n = scalar_scalar_mul_shoup_n;
        k.scalar_mul_mod_acc_n = scalar_scalar_mul_mod_acc_n;
        k.mul_mod_n = scalar_mul_mod_n;
        k.mul_mod_acc_lazy_n = scalar_mul_mod_acc_lazy_n;
        k.reduce_mod_n = scalar_reduce_mod_n;
        k.normalize_n = scalar_normalize_n;
        k.ntt_forward = scalar_ntt_forward;
        k.ntt_inverse = scalar_ntt_inverse;
        return k;
    }();
    return t;
}

// ---- Dispatch. ----

bool
cpu_supports(SimdLevel lvl)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (lvl) {
      case SimdLevel::Scalar: return true;
      case SimdLevel::Avx2: return __builtin_cpu_supports("avx2");
      case SimdLevel::Avx512: return __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return lvl == SimdLevel::Scalar;
#endif
}

bool
cpu_has_ifma()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512ifma");
#else
    return false;
#endif
}

const KernelTable *
backend(SimdLevel lvl)
{
    switch (lvl) {
      case SimdLevel::Scalar: return &scalar_table();
      case SimdLevel::Avx2: return internal::avx2_table();
      case SimdLevel::Avx512: return internal::avx512_table();
    }
    return nullptr;
}

/// Highest supported level <= lvl.
SimdLevel
clamp_supported(SimdLevel lvl)
{
    int want = static_cast<int>(lvl);
    for (int l = want; l > 0; --l) {
        if (level_supported(static_cast<SimdLevel>(l))) {
            return static_cast<SimdLevel>(l);
        }
    }
    return SimdLevel::Scalar;
}

/// Parse POSEIDON_SIMD; returns false when unset or unrecognized
/// (unrecognized warns once).
bool
env_level(SimdLevel *out)
{
    const char *env = std::getenv("POSEIDON_SIMD");
    if (env == nullptr || *env == '\0') return false;
    if (std::strcmp(env, "scalar") == 0) {
        *out = SimdLevel::Scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
        *out = SimdLevel::Avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
        *out = SimdLevel::Avx512;
    } else {
        std::fprintf(stderr,
                     "poseidon: unrecognized POSEIDON_SIMD='%s' "
                     "(want scalar|avx2|avx512); using auto-detect\n",
                     env);
        return false;
    }
    return true;
}

SimdLevel
detect_level()
{
    SimdLevel lvl = SimdLevel::Avx512; // best-supported by default
    SimdLevel want;
    if (env_level(&want)) {
        lvl = want;
        if (!level_supported(want)) {
            std::fprintf(stderr,
                         "poseidon: POSEIDON_SIMD=%s not %s on this "
                         "host; falling back to %s\n",
                         level_name(want),
                         level_compiled(want) ? "supported by the CPU"
                                              : "compiled into this "
                                                "binary",
                         level_name(clamp_supported(want)));
        }
    }
    SimdLevel chosen = clamp_supported(lvl);
    const MetricSink &sink = metric_sink();
    if (sink.gauge) {
        sink.gauge("kernels.dispatch.level",
                   static_cast<double>(chosen));
        sink.gauge("kernels.dispatch.avx2_supported",
                   level_supported(SimdLevel::Avx2) ? 1.0 : 0.0);
        sink.gauge("kernels.dispatch.avx512_supported",
                   level_supported(SimdLevel::Avx512) ? 1.0 : 0.0);
        sink.gauge("kernels.dispatch.avx512ifma_supported",
                   ifma_supported() ? 1.0 : 0.0);
    }
    return chosen;
}

} // namespace

const char *
level_name(SimdLevel lvl)
{
    switch (lvl) {
      case SimdLevel::Scalar: return "scalar";
      case SimdLevel::Avx2: return "avx2";
      case SimdLevel::Avx512: return "avx512";
    }
    return "unknown";
}

bool
level_compiled(SimdLevel lvl)
{
    return backend(lvl) != nullptr;
}

bool
level_supported(SimdLevel lvl)
{
    return level_compiled(lvl) && cpu_supports(lvl);
}

bool
ifma_supported()
{
    // Not level_supported(): the AVX-512 table asks this while it is
    // being built.
    static const bool ok = internal::avx512_ifma_compiled() &&
                           cpu_supports(SimdLevel::Avx512) &&
                           cpu_has_ifma();
    return ok;
}

SimdLevel
active_level()
{
    static const SimdLevel lvl = detect_level();
    return lvl;
}

const KernelTable &
table(SimdLevel lvl)
{
    return *backend(clamp_supported(lvl));
}

const KernelTable &
ops()
{
    static const KernelTable &t = table(active_level());
    return t;
}

} // namespace poseidon::kernels
