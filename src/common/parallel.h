#ifndef POSEIDON_COMMON_PARALLEL_H_
#define POSEIDON_COMMON_PARALLEL_H_

/**
 * @file
 * Host-side parallel execution engine.
 *
 * RNS-CKKS work decomposes naturally across residue channels: every
 * limb lives under its own prime, so per-limb NTTs, element-wise
 * arithmetic and base-conversion columns are embarrassingly parallel —
 * the same property Poseidon exploits with 512 hardware lanes. This
 * module exploits it in host threads so the functional layer and the
 * benches stop running single-threaded while every other core idles.
 *
 * Design contract (see DESIGN.md §8):
 *
 *  - One lazily started process-wide pool. Size comes from the
 *    POSEIDON_THREADS environment variable, defaulting to
 *    std::thread::hardware_concurrency(); POSEIDON_THREADS=1 is the
 *    fully serial fallback and never starts a single worker.
 *  - `parallel_for(begin, end, grain, fn)` partitions [begin, end)
 *    into at most `threads` contiguous chunks of at least `grain`
 *    indices and invokes fn(chunkBegin, chunkEnd) for each, possibly
 *    concurrently. Chunk geometry depends only on (range, grain,
 *    thread count) — never on timing — and chunks are disjoint, so any
 *    body with chunk-local writes produces bit-identical results at
 *    every thread count. This is *host wall-clock* optimization only;
 *    simulated cycle counts are computed elsewhere and are unaffected.
 *  - Exceptions thrown by fn are captured (first one wins) and
 *    rethrown on the calling thread after the region completes.
 *  - Nested parallel_for calls execute inline on the calling worker,
 *    so composing parallel code cannot deadlock the pool.
 *
 * The engine is dependency-free (std only). It reports
 * `parallel.regions` / `parallel.tasks` counters, a
 * `parallel.threads` gauge and per-region `parallel.region_us.<name>`
 * histograms through the common MetricSink, which the telemetry
 * library installs when present.
 */

#include <cstddef>
#include <cstdint>
#include <functional>

namespace poseidon::parallel {

/// Worker count the pool targets (env default until overridden).
std::size_t num_threads();

/**
 * Override the pool size: joins any running workers and re-reads the
 * target (n == 0 restores the POSEIDON_THREADS / hardware default).
 * Blocks until the pool is idle; do not call concurrently with
 * parallel_for from another thread. Intended for tests and the
 * thread-scaling bench.
 */
void set_num_threads(std::size_t n);

/// true while the calling thread is executing inside a parallel_for
/// body (used to run nested regions inline).
bool in_parallel_region();

/**
 * Deterministic statically partitioned parallel loop over
 * [begin, end). fn(chunkBegin, chunkEnd) is called for disjoint
 * contiguous chunks covering the range in full. Runs serially (one
 * chunk, calling thread) when the pool has one thread, when the range
 * cannot be split into >= 2 chunks of `grain` indices, or when called
 * from inside another parallel region.
 *
 * @param grain   minimum indices per chunk (0 is treated as 1)
 * @param region  optional name for per-region telemetry; a string
 *                literal, since its address keys the per-thread
 *                metric handle
 */
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)> &fn,
                  const char *region = nullptr);

/// Aggregate pool statistics (always maintained, telemetry or not).
struct PoolStats
{
    std::size_t threads = 0;      ///< current target pool size
    std::uint64_t regions = 0;    ///< parallel_for calls issued
    std::uint64_t tasks = 0;      ///< chunks executed across regions
    std::uint64_t serialRegions = 0; ///< regions that ran inline
};

PoolStats pool_stats();

} // namespace poseidon::parallel

#endif // POSEIDON_COMMON_PARALLEL_H_
