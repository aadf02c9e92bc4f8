#ifndef POSEIDON_COMMON_MODMATH_H_
#define POSEIDON_COMMON_MODMATH_H_

/**
 * @file
 * 64-bit modular arithmetic primitives used throughout Poseidon.
 *
 * All moduli handled here are < 2^62 so that `a + b` of two reduced
 * operands never overflows an unsigned 64-bit word. The FHE layers use
 * word-sized NTT primes (typically 28-60 bits); the hardware model's
 * 32-bit lane width is a separate, orthogonal parameter.
 *
 * Two modular-multiplication strategies are provided:
 *  - `mul_mod` via native 128-bit arithmetic (reference, always correct);
 *  - `Barrett64`, the precomputed Barrett reducer that mirrors the
 *    "Shared Barrett Reduction (SBT)" operator in the Poseidon paper;
 *  - `ShoupMul`, a Shoup-precomputed multiplication for fixed multiplicands
 *    (twiddle factors), matching what high-throughput NTT cores do.
 */

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace poseidon {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;

/// Maximum supported modulus (exclusive bound), 2^62.
inline constexpr u64 kMaxModulus = u64(1) << 62;

/// (a + b) mod q for reduced a, b < q < 2^62.
inline u64
add_mod(u64 a, u64 b, u64 q)
{
    u64 s = a + b;
    return s >= q ? s - q : s;
}

/// (a - b) mod q for reduced a, b < q.
inline u64
sub_mod(u64 a, u64 b, u64 q)
{
    return a >= b ? a - b : a + q - b;
}

/// -a mod q for reduced a < q.
inline u64
neg_mod(u64 a, u64 q)
{
    return a == 0 ? 0 : q - a;
}

/// (a * b) mod q via 128-bit widening; reference implementation.
inline u64
mul_mod(u64 a, u64 b, u64 q)
{
    return static_cast<u64>((u128(a) * b) % q);
}

/// a^e mod q by square-and-multiply.
u64 pow_mod(u64 a, u64 e, u64 q);

/// Modular inverse of a mod q (q need not be prime; requires gcd==1).
u64 inv_mod(u64 a, u64 q);

/// Deterministic Miller-Rabin primality test, valid for all 64-bit inputs.
bool is_prime(u64 n);

/// Reverse the low `bits` bits of `x`.
inline u64
bit_reverse(u64 x, unsigned bits)
{
    u64 r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

/// true iff x is a power of two (and nonzero).
inline bool
is_pow2(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)) for x >= 1.
inline unsigned
log2_floor(u64 x)
{
    unsigned r = 0;
    while (x >>= 1) ++r;
    return r;
}

/**
 * Barrett reducer for a fixed modulus q < 2^62.
 *
 * This is the software model of the paper's SBT (Shared Barrett
 * Reduction) operator: one precomputed reciprocal `mu = floor(2^128/q)`
 * (stored as a 128-bit value split across two 64-bit words) turns the
 * division in a modular reduction into two multiplications and a shift,
 * exactly the transformation Fig. 3 of the paper performs in hardware.
 */
class Barrett64
{
  public:
    Barrett64() = default;

    /// Precompute the Barrett constant for modulus q (1 < q < 2^62).
    explicit Barrett64(u64 q);

    /// The modulus.
    u64 modulus() const { return q_; }

    /// Reduce a 128-bit value to [0, q).
    u64
    reduce(u128 x) const
    {
        // mu = floor(2^128 / q) is held as (muHi_ * 2^64 + muLo_).
        u64 xhi = static_cast<u64>(x >> 64);
        u64 xlo = static_cast<u64>(x);
        // quot = floor((x * mu) / 2^128), computed *exactly* from the
        // four partial products: x*mu = hi*2^128 + (midA + midB)*2^64
        // + xlo*muLo, and `carry` is precisely the overflow of the
        // middle column into bit 128.
        u128 midA = u128(xhi) * muLo_;
        u128 midB = u128(xlo) * muHi_;
        u128 hi = u128(xhi) * muHi_;
        u128 carry = (u128(static_cast<u64>(midA)) +
                      u128(static_cast<u64>(midB)) +
                      (u128(xlo) * muLo_ >> 64)) >> 64;
        u128 quot = hi + (midA >> 64) + (midB >> 64) + carry;
        // Quotient-error bound (so the old `while (r >= q)` loop is
        // provably at most one branchless conditional subtraction —
        // well inside the classical two-subtraction Barrett bound):
        // write mu = (2^128 - rho)/q with rho = 2^128 mod q in [0, q).
        // Then x*mu/2^128 = x/q - x*rho/(q*2^128) > x/q - rho/q
        // >= x/q - 1 since x < 2^128 and rho < q. With Q = floor(x/q)
        // this gives quot >= Q - 1, and quot <= x*mu/2^128 <= x/q
        // gives quot <= Q. Hence r = x - quot*q is in [0, 2q), and
        // 2q < 2^63, so r fits a u64 and one subtraction finishes.
        u64 r = static_cast<u64>(x - quot * q_);
        r -= q_ & (0 - static_cast<u64>(r >= q_));
        return r;
    }

    /// (a * b) mod q with reduced inputs.
    u64
    mul(u64 a, u64 b) const
    {
        return reduce(u128(a) * b);
    }

  private:
    u64 q_ = 0;
    u64 muHi_ = 0;  ///< floor(2^128/q) >> 64
    u64 muLo_ = 0;  ///< floor(2^128/q) & (2^64-1)
};

/**
 * Shoup-style multiplication by a fixed constant w modulo q.
 *
 * Precomputing w' = floor(w * 2^64 / q) makes `mul(a)` a single high
 * multiplication plus one correction — the standard trick for twiddle
 * multiplication in NTT hardware pipelines.
 */
class ShoupMul
{
  public:
    ShoupMul() = default;

    ShoupMul(u64 w, u64 q)
        : w_(w), q_(q),
          wshoup_(static_cast<u64>((u128(w) << 64) / q))
    {
        // w >= q makes floor(w * 2^64 / q) overflow 64 bits and mul()
        // silently wrong; the precondition was previously assumed.
        POSEIDON_REQUIRE(w < q,
                         "ShoupMul: constant " << w
                         << " not reduced mod " << q);
    }

    u64 value() const { return w_; }

    u64
    mul(u64 a) const
    {
        u64 hi = static_cast<u64>((u128(a) * wshoup_) >> 64);
        u64 r = a * w_ - hi * q_;
        return r >= q_ ? r - q_ : r;
    }

  private:
    u64 w_ = 0;
    u64 q_ = 0;
    u64 wshoup_ = 0;
};

/**
 * Shoup multiplication with caller-held constants: a * w mod q where
 * wshoup = floor(w * 2^64 / q). This is the loose-constant form of
 * ShoupMul::mul used by the NTT butterflies (reference and fused),
 * which stream (w, wshoup) pairs out of precomputed twiddle tables.
 */
inline u64
mul_shoup(u64 a, u64 w, u64 wshoup, u64 q)
{
    // Same precondition as ShoupMul (w reduced mod q), debug-checked
    // only: this is the innermost butterfly primitive.
    POSEIDON_DCHECK(w < q, "mul_shoup: constant " << w
                               << " not reduced mod " << q);
    u64 hi = static_cast<u64>((u128(a) * wshoup) >> 64);
    u64 r = a * w - hi * q;
    return r >= q ? r - q : r;
}

/// Find a generator of the multiplicative group (Z/q)* for prime q.
u64 find_primitive_root(u64 q);

/// Find a primitive n-th root of unity mod prime q (requires n | q-1).
u64 find_nth_root(u64 n, u64 q);

/// v mod q in [0, q) for any signed v.
inline u64
signed_residue(i64 v, u64 q)
{
    if (v >= 0) return static_cast<u64>(v) % q;
    u64 r = (u64(0) - static_cast<u64>(v)) % q; // |v|, even for INT64_MIN
    return r == 0 ? 0 : q - r;
}

/// Centered representative of x mod q in (-q/2, q/2].
inline i64
centered(u64 x, u64 q)
{
    return x > q / 2 ? static_cast<i64>(x) - static_cast<i64>(q)
                     : static_cast<i64>(x);
}

} // namespace poseidon

#endif // POSEIDON_COMMON_MODMATH_H_
