#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/metric_sink.h"

namespace poseidon::parallel {

namespace {

thread_local bool tlInRegion = false;

/// Ceiling on pool size. Oversubscribing a little is harmless, but an
/// unbounded POSEIDON_THREADS (a typo like 100000) would spawn that
/// many OS threads or die with std::system_error mid-run, so requests
/// are silently clamped here instead.
std::size_t
max_threads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return 4 * static_cast<std::size_t>(hw == 0 ? 16 : hw);
}

std::size_t
clamp_threads(std::size_t n)
{
    return std::min(std::max<std::size_t>(n, 1), max_threads());
}

std::size_t
default_threads()
{
    if (const char *env = std::getenv("POSEIDON_THREADS")) {
        char *endp = nullptr;
        long v = std::strtol(env, &endp, 10);
        if (endp != env && *endp == '\0' && v >= 1) {
            return clamp_threads(static_cast<std::size_t>(v));
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// One parallel_for invocation: fixed chunk geometry plus completion
/// tracking. Chunk c covers a contiguous slice; the first `rem` chunks
/// carry one extra index so the partition is as even as possible.
struct Batch
{
    std::size_t begin = 0;
    std::size_t chunkLen = 0;
    std::size_t rem = 0;
    std::size_t nchunks = 0;
    const std::function<void(std::size_t, std::size_t)> *fn = nullptr;

    std::atomic<std::size_t> next{0};
    /// Workers currently inside execute_chunks for this batch. The
    /// caller waits for it to reach zero before the (stack-allocated)
    /// batch dies, so a late-waking worker can never touch a freed one.
    std::atomic<std::size_t> attached{0};

    std::mutex doneMu;
    std::condition_variable doneCv;
    std::size_t completed = 0;        ///< guarded by doneMu
    std::exception_ptr error;         ///< guarded by doneMu (first wins)

    std::pair<std::size_t, std::size_t>
    chunk_bounds(std::size_t c) const
    {
        std::size_t lo = begin + c * chunkLen + std::min(c, rem);
        std::size_t len = chunkLen + (c < rem ? 1 : 0);
        return {lo, lo + len};
    }
};

class Pool
{
  public:
    static Pool&
    instance()
    {
        static Pool *p = new Pool(); // leaked: workers may outlive main
        return *p;
    }

    std::size_t
    threads()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return nthreads_;
    }

    void
    resize(std::size_t n)
    {
        std::unique_lock<std::mutex> lk(mu_);
        idleCv_.wait(lk, [&] { return current_ == nullptr; });
        if (!workers_.empty()) {
            stop_ = true;
            workCv_.notify_all();
            std::vector<std::thread> joinable = std::move(workers_);
            workers_.clear();
            lk.unlock();
            for (auto &t : joinable) t.join();
            lk.lock();
            stop_ = false;
        }
        nthreads_ = n == 0 ? default_threads() : clamp_threads(n);
    }

    /// Run one batch to completion; the calling thread participates.
    void
    run(Batch &b)
    {
        {
            std::unique_lock<std::mutex> lk(mu_);
            idleCv_.wait(lk, [&] { return current_ == nullptr; });
            ensure_workers(lk);
            current_ = &b;
            ++gen_;
            workCv_.notify_all();
        }
        execute_chunks(b);
        {
            std::unique_lock<std::mutex> lk(b.doneMu);
            b.doneCv.wait(lk, [&] {
                return b.completed == b.nchunks &&
                       b.attached.load(std::memory_order_relaxed) == 0;
            });
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            current_ = nullptr;
            idleCv_.notify_one();
        }
        if (b.error) std::rethrow_exception(b.error);
    }

  private:
    Pool() : nthreads_(default_threads()) {}

    void
    ensure_workers(std::unique_lock<std::mutex>&)
    {
        // The caller participates, so a pool of T threads means T-1
        // workers. POSEIDON_THREADS=1 therefore never spawns anything.
        while (workers_.size() + 1 < nthreads_) {
            workers_.emplace_back([this] { worker_loop(); });
        }
        emit_metric(MetricKind::Gauge, "parallel.threads",
                    static_cast<double>(nthreads_));
    }

    void
    worker_loop()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            workCv_.wait(lk, [&] {
                return stop_ || (current_ != nullptr && gen_ != seen);
            });
            if (stop_) return;
            Batch *b = current_;
            seen = gen_;
            {
                // The claimed-check and the attach must be one atomic
                // step w.r.t. run()'s exit predicate (also under
                // doneMu). Otherwise the caller could observe
                // completed==nchunks && attached==0 between our check
                // and our increment, pass its wait, and destroy the
                // stack-allocated batch while we still hold a pointer
                // to it. Under doneMu the two outcomes are clean:
                // either we attach before the caller can pass (it then
                // waits for our detach), or the caller already passed,
                // in which case completed==nchunks implies every chunk
                // was claimed and the next-load below sees that, so we
                // never touch the batch again. Lock order is always
                // mu_ -> doneMu; nothing takes mu_ while holding
                // doneMu, so this nesting cannot deadlock.
                std::lock_guard<std::mutex> dl(b->doneMu);
                if (b->next.load(std::memory_order_relaxed) >=
                    b->nchunks) {
                    // All chunks already claimed: nothing to do, and
                    // attaching would only extend the batch's lifetime.
                    continue;
                }
                b->attached.fetch_add(1, std::memory_order_relaxed);
            }
            lk.unlock();
            execute_chunks(*b);
            {
                std::lock_guard<std::mutex> dl(b->doneMu);
                b->attached.fetch_sub(1, std::memory_order_relaxed);
                b->doneCv.notify_all();
            }
            lk.lock();
        }
    }

    static void
    execute_chunks(Batch &b)
    {
        tlInRegion = true;
        for (;;) {
            std::size_t c = b.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= b.nchunks) break;
            std::exception_ptr err;
            try {
                auto [lo, hi] = b.chunk_bounds(c);
                (*b.fn)(lo, hi);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(b.doneMu);
            if (err && !b.error) b.error = err;
            if (++b.completed == b.nchunks) b.doneCv.notify_all();
        }
        tlInRegion = false;
    }

    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    Batch *current_ = nullptr;
    std::uint64_t gen_ = 0;
    bool stop_ = false;
    std::size_t nthreads_;
    std::vector<std::thread> workers_;
};

std::atomic<std::uint64_t> gRegions{0};
std::atomic<std::uint64_t> gTasks{0};
std::atomic<std::uint64_t> gSerialRegions{0};

/// This thread's handles to the region metrics. Region names are
/// literals at their call sites, so a region's histogram handle is
/// found by the name's address: no name is built or compared per
/// region.
struct RegionHandles
{
    MetricHandle regions;
    MetricHandle tasks;
    std::vector<std::pair<const char *, MetricHandle>> histograms;

    MetricHandle&
    histogram(const char *region)
    {
        for (auto &[name, h] : histograms) {
            if (name == region) return h;
        }
        return histograms.emplace_back(region, MetricHandle{}).second;
    }
};

thread_local RegionHandles tlRegionHandles;

void
emit_region(const char *region, std::size_t chunks, double usec)
{
    const MetricSink &sink = metric_sink();
    if (!sink.emit) return;
    RegionHandles &h = tlRegionHandles;
    sink.emit(MetricKind::Counter, h.regions, "parallel.regions", "", 1.0);
    sink.emit(MetricKind::Counter, h.tasks, "parallel.tasks", "",
              static_cast<double>(chunks));
    sink.emit(MetricKind::Histogram, h.histogram(region),
              "parallel.region_us.", region, usec);
}

} // namespace

std::size_t
num_threads()
{
    return Pool::instance().threads();
}

void
set_num_threads(std::size_t n)
{
    Pool::instance().resize(n);
}

bool
in_parallel_region()
{
    return tlInRegion;
}

void
parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
             const std::function<void(std::size_t, std::size_t)> &fn,
             const char *region)
{
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    std::size_t count = end - begin;

    Pool &pool = Pool::instance();
    std::size_t nthreads = tlInRegion ? 1 : pool.threads();
    std::size_t maxChunks = count / grain; // chunks of >= grain indices
    bool wantTiming = metric_sink().emit != nullptr && region;
    auto t0 = wantTiming ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point();

    if (nthreads <= 1 || maxChunks <= 1) {
        // Serial fallback: same coverage, one chunk. Nested regions
        // (tlInRegion) land here and run inline on the worker.
        fn(begin, end);
        gRegions.fetch_add(1, std::memory_order_relaxed);
        gTasks.fetch_add(1, std::memory_order_relaxed);
        gSerialRegions.fetch_add(1, std::memory_order_relaxed);
    } else {
        Batch b;
        b.begin = begin;
        b.nchunks = std::min(nthreads, maxChunks);
        b.chunkLen = count / b.nchunks;
        b.rem = count % b.nchunks;
        b.fn = &fn;
        pool.run(b);
        gRegions.fetch_add(1, std::memory_order_relaxed);
        gTasks.fetch_add(b.nchunks, std::memory_order_relaxed);
    }

    if (wantTiming) {
        double usec = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        std::size_t chunks =
            (nthreads <= 1 || maxChunks <= 1)
                ? 1
                : std::min(nthreads, maxChunks);
        emit_region(region, chunks, usec);
    }
}

PoolStats
pool_stats()
{
    PoolStats s;
    s.threads = Pool::instance().threads();
    s.regions = gRegions.load(std::memory_order_relaxed);
    s.tasks = gTasks.load(std::memory_order_relaxed);
    s.serialRegions = gSerialRegions.load(std::memory_order_relaxed);
    return s;
}

} // namespace poseidon::parallel
