// Tests for bench::best_in_window, the one host-timing loop of the
// benchmarks.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "bench/bench_harness.h"

namespace poseidon::bench {
namespace {

void
sleep_ms(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Collapses runs of equal entries: {0,0,1,1,1,0} -> {0,1,0}.
std::vector<int>
blocks(const std::vector<int> &calls)
{
    std::vector<int> out;
    for (int c : calls) {
        if (out.empty() || out.back() != c) out.push_back(c);
    }
    return out;
}

TEST(BenchHarness, SetupTimeIsExcluded)
{
    int setups = 0;
    auto r = best_in_window(
        {{"light", [] {}, [&] { ++setups; sleep_ms(20); }}}, 0.0, 3);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].reps, 3u);
    EXPECT_EQ(setups, 4); // the warm-up rep runs its setup too
    EXPECT_LT(r[0].seconds, 0.010);
}

TEST(BenchHarness, EveryProbeReachesMinRepsInAZeroWindow)
{
    int fastCalls = 0, slowCalls = 0;
    auto r = best_in_window({{"fast", [&] { ++fastCalls; }},
                             {"slow", [&] { ++slowCalls; sleep_ms(2); }}},
                            0.0, 5);
    ASSERT_EQ(r.size(), 2u);
    for (const ProbeResult &p : r) EXPECT_GE(p.reps, 5u);
    // Rounds stop as soon as every probe has its reps, and the slowest
    // probe runs once a round.
    EXPECT_EQ(r[1].reps, 5u);
    // One untimed warm-up call each.
    EXPECT_EQ(static_cast<std::size_t>(fastCalls), r[0].reps + 1);
    EXPECT_EQ(static_cast<std::size_t>(slowCalls), r[1].reps + 1);
}

TEST(BenchHarness, ProbesRunRoundRobin)
{
    std::vector<int> calls;
    auto r = best_in_window(
        {{"a", [&] { calls.push_back(0); sleep_ms(1); }},
         {"b", [&] { calls.push_back(1); sleep_ms(1); }},
         {"c", [&] { calls.push_back(2); sleep_ms(1); }}},
        0.0, 4);
    std::vector<int> b = blocks(calls);
    // The warm-up, then at least four rounds, each visiting every
    // probe once, in order.
    ASSERT_GE(b.size(), 15u);
    ASSERT_EQ(b.size() % 3, 0u);
    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(b[i], static_cast<int>(i % 3)) << "block " << i;
    }
    std::size_t timed = 0;
    for (const ProbeResult &p : r) timed += p.reps;
    EXPECT_EQ(calls.size(), timed + 3);
}

TEST(BenchHarness, FasterProbesRunMoreRepsPerRound)
{
    std::vector<int> calls;
    auto r = best_in_window(
        {{"slow", [&] { calls.push_back(0); sleep_ms(8); }},
         {"fast", [&] { calls.push_back(1); sleep_ms(1); }}},
        0.0, 3);
    std::vector<int> b = blocks(calls);
    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(b[i], static_cast<int>(i % 2)) << "block " << i;
    }
    EXPECT_EQ(r[0].reps, 3u);
    EXPECT_GT(r[1].reps, r[0].reps);
}

TEST(BenchHarness, ResultIsTheFastestRep)
{
    int call = 0;
    // Call 0 is the warm-up; the third timed rep (call 3) is the
    // planted fast one, every other rep sleeps.
    auto r = best_in_window({{"planted",
                              [&] {
                                  if (call++ != 3) sleep_ms(5);
                              }}},
                            0.0, 6);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].reps, 6u);
    EXPECT_LT(r[0].seconds, 0.0025);
}

TEST(BenchHarness, CountsTheFastestRepsMinorFaults)
{
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t pages = 256;
    auto touchFreshPages = [&] {
        void *m = ::mmap(nullptr, pages * page, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        ASSERT_NE(m, MAP_FAILED);
        auto *bytes = static_cast<volatile char *>(m);
        for (std::size_t i = 0; i < pages; ++i) bytes[i * page] = 1;
        ::munmap(m, pages * page);
    };
    auto r = best_in_window({{"faults", touchFreshPages}, {"none", [] {}}},
                            0.0, 3);
    EXPECT_GE(r[0].minorFaults, static_cast<long>(pages));
    EXPECT_LT(r[1].minorFaults, static_cast<long>(pages));
}

} // namespace
} // namespace poseidon::bench
