#include "ntt/table_cache.h"

#include <map>
#include <mutex>
#include <utility>

#include "common/metric_sink.h"

namespace poseidon {

namespace {

struct TableCache
{
    std::mutex mu;
    std::map<std::pair<u64, u64>, std::weak_ptr<const NttTable>> tables;
    std::map<unsigned, std::shared_ptr<const std::vector<u32>>> bitrev;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

TableCache&
cache()
{
    static TableCache *c = new TableCache();
    return *c;
}

void
emit_event(const char *name, std::size_t live)
{
    emit_metric(MetricKind::Counter, name, 1.0);
    emit_metric(MetricKind::Gauge, "ntt.table_cache.size",
                static_cast<double>(live));
}

} // namespace

std::shared_ptr<const NttTable>
shared_ntt_table(std::size_t n, u64 q)
{
    TableCache &c = cache();
    auto key = std::make_pair(static_cast<u64>(n), q);
    {
        std::lock_guard<std::mutex> lk(c.mu);
        auto it = c.tables.find(key);
        if (it != c.tables.end()) {
            if (auto live = it->second.lock()) {
                ++c.hits;
                emit_event("ntt.table_cache.hit", c.tables.size());
                return live;
            }
            c.tables.erase(it); // stale: every holder released it
        }
    }

    // Build with the mutex RELEASED: NttTable's constructor calls
    // bit_reverse_table(), which takes the same lock, and the O(N)
    // power ladder should not serialize unrelated lookups anyway.
    auto table = std::make_shared<const NttTable>(n, q);

    std::lock_guard<std::mutex> lk(c.mu);
    auto it = c.tables.find(key);
    if (it != c.tables.end()) {
        if (auto live = it->second.lock()) {
            // Lost a construction race; adopt the winner's table so
            // every holder of (n, q) still shares one instance.
            ++c.hits;
            emit_event("ntt.table_cache.hit", c.tables.size());
            return live;
        }
    }
    ++c.misses;
    c.tables[key] = table;
    emit_event("ntt.table_cache.miss", c.tables.size());
    return table;
}

std::shared_ptr<const std::vector<u32>>
bit_reverse_table(unsigned logn)
{
    TableCache &c = cache();
    std::lock_guard<std::mutex> lk(c.mu);
    auto it = c.bitrev.find(logn);
    if (it != c.bitrev.end()) return it->second;
    std::size_t n = std::size_t(1) << logn;
    auto table = std::make_shared<std::vector<u32>>(n);
    for (std::size_t i = 0; i < n; ++i) {
        (*table)[i] = static_cast<u32>(bit_reverse(i, logn));
    }
    std::shared_ptr<const std::vector<u32>> frozen = std::move(table);
    c.bitrev[logn] = frozen;
    return frozen;
}

NttCacheStats
ntt_table_cache_stats()
{
    TableCache &c = cache();
    std::lock_guard<std::mutex> lk(c.mu);
    NttCacheStats s;
    s.hits = c.hits;
    s.misses = c.misses;
    for (const auto &e : c.tables) {
        if (!e.second.expired()) ++s.liveEntries;
    }
    return s;
}

void
clear_ntt_table_cache()
{
    TableCache &c = cache();
    std::lock_guard<std::mutex> lk(c.mu);
    c.tables.clear();
    c.bitrev.clear();
    c.hits = 0;
    c.misses = 0;
}

} // namespace poseidon
