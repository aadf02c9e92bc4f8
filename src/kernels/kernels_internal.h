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

/// AVX2 kernel table, or nullptr when not compiled in.
const KernelTable *avx2_table();

/// AVX-512 kernel table (elementwise kernels and NTT passes), or
/// nullptr. Its NTT entries take the IFMA passes for q < 2^50 when
/// ifma_supported().
const KernelTable *avx512_table();

/// true when the AVX-512 backend was built with the IFMA NTT passes.
bool avx512_ifma_compiled();

} // namespace poseidon::kernels::internal

#endif // POSEIDON_KERNELS_KERNELS_INTERNAL_H_
