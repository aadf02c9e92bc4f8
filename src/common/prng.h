#ifndef POSEIDON_COMMON_PRNG_H_
#define POSEIDON_COMMON_PRNG_H_

/**
 * @file
 * Deterministic pseudo-random generation and the lattice samplers used
 * by the CKKS key generator and encryptor.
 *
 * A seeded xoshiro256** generator keeps every test and benchmark
 * reproducible. Cryptographic strength is irrelevant for this
 * reproduction; distributional shape (uniform / ternary / discrete
 * Gaussian) is what affects correctness and noise growth.
 *
 * Thread confinement: a Prng (and the Sampler wrapping it) is a
 * mutable sequential stream — sharing one across threads would both
 * race on the state and make the stream order depend on scheduling,
 * destroying reproducibility. Each instance therefore binds to the
 * first thread that draws from it and asserts if any other thread
 * draws later. Code running under parallel_for must not touch a
 * shared Prng from the loop body (see encrypt_symmetric for the
 * pattern: sample serially, parallelize the arithmetic that follows).
 * `rebind_thread()` is the explicit escape hatch for handing an
 * instance to another thread between (not during) uses.
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/modmath.h"

namespace poseidon {

/// xoshiro256** PRNG (Blackman & Vigna), seeded deterministically.
class Prng
{
  public:
    explicit Prng(u64 seed = 0x505345494E4F44ULL); // "POSEIDON"-ish

    /// Copies restart confinement: the copy binds to whichever thread
    /// draws from it first, independent of the original.
    Prng(const Prng &o)
        : haveSpare_(o.haveSpare_), spare_(o.spare_)
    {
        for (int i = 0; i < 4; ++i) s_[i] = o.s_[i];
    }
    Prng& operator=(const Prng &o)
    {
        for (int i = 0; i < 4; ++i) s_[i] = o.s_[i];
        haveSpare_ = o.haveSpare_;
        spare_ = o.spare_;
        owner_.store(std::thread::id(), std::memory_order_relaxed);
        return *this;
    }

    /// Next raw 64-bit output.
    u64 next();

    /// Uniform value in [0, bound) without modulo bias (bound >= 1).
    u64 uniform(u64 bound);

    /**
     * out[t] = uniform(bound) for t in [0, n), drawn in the same stream
     * order with the same rejections, so the output is identical to the
     * loop. The owner check and the rejection threshold run once per
     * call, and bounds below kMaxModulus reduce with Barrett64 instead
     * of a division.
     */
    void uniform_fill(u64 *out, std::size_t n, u64 bound);

    /// Uniform double in [0, 1).
    double uniform_double();

    /// Standard normal via Box-Muller.
    double gaussian();

    /// Release thread confinement so a *different* thread may draw
    /// next. Only call between uses — never while another thread may
    /// still be drawing.
    void rebind_thread()
    {
        owner_.store(std::thread::id(), std::memory_order_relaxed);
    }

  private:
    void check_owner();

    /// One xoshiro256** step, without the owner check.
    u64 step();

    u64 s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
    /// Bound on first draw (see file header). Atomic so the bind
    /// itself cannot race: two threads hitting a fresh instance
    /// concurrently must resolve to exactly one owner, with the loser
    /// asserting, instead of both silently binding.
    std::atomic<std::thread::id> owner_{std::thread::id()};
};

/**
 * Samplers for the three RLWE distributions, producing signed
 * coefficients that callers reduce into each RNS modulus.
 */
class Sampler
{
  public:
    explicit Sampler(u64 seed) : prng_(seed) {}

    /// Ternary secret in {-1, 0, 1}^n with hamming-ish density 2/3.
    std::vector<i64> ternary(std::size_t n);

    /// Ternary secret with exactly h nonzero entries (sparse secret).
    std::vector<i64> sparse_ternary(std::size_t n, std::size_t h);

    /// Rounded Gaussian error, sigma = 3.2 (RLWE standard).
    std::vector<i64> gaussian(std::size_t n, double sigma = 3.2);

    /// Uniform residues in [0, q)^n.
    std::vector<u64> uniform_mod(std::size_t n, u64 q);

    Prng& prng() { return prng_; }

    /// Forwarded confinement release; see Prng::rebind_thread().
    void rebind_thread() { prng_.rebind_thread(); }

  private:
    Prng prng_;
};

} // namespace poseidon

#endif // POSEIDON_COMMON_PRNG_H_
