#ifndef POSEIDON_KERNELS_KERNELS_INTERNAL_H_
#define POSEIDON_KERNELS_KERNELS_INTERNAL_H_

/**
 * @file
 * Backend registration for the kernel layer. Each SIMD backend TU is
 * compiled with its own -m flags (see src/kernels/CMakeLists.txt) and
 * exposes exactly one accessor; a TU built by a compiler without the
 * ISA support returns nullptr and the dispatcher falls back.
 */

#include "kernels/kernels.h"

namespace poseidon::kernels::internal {

/**
 * The scalar `dot_mod_n` over elements [t0, t1), shared by the scalar
 * backend and the SIMD backends' tails. It lives in kernels.cpp, built
 * with the default flags, so no ISA-specific copy of it can be linked.
 */
void dot_mod_scalar(u64 *out, const u64 *const *a, const u64 *const *b,
                    const u64 *w, std::size_t terms, std::size_t t0,
                    std::size_t t1, u64 q);

/// AVX2 kernel table, or nullptr when not compiled in.
const KernelTable *avx2_table();

/// AVX-512 kernel table (elementwise kernels and NTT passes), or
/// nullptr. Its NTT, Shoup and dot entries take the IFMA paths for
/// q < 2^50 when ifma_supported().
const KernelTable *avx512_table();

/// true when the AVX-512 backend was built with the IFMA paths.
bool avx512_ifma_compiled();

} // namespace poseidon::kernels::internal

#endif // POSEIDON_KERNELS_KERNELS_INTERNAL_H_
