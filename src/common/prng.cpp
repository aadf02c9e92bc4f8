#include "common/prng.h"

#include <cmath>

#include "common/check.h"

namespace poseidon {

namespace {

inline u64
rotl(u64 x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/// splitmix64, used only to expand the seed into xoshiro state.
inline u64
splitmix64(u64 &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Prng::Prng(u64 seed)
{
    u64 x = seed;
    for (auto &s : s_) s = splitmix64(x);
    // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

void
Prng::check_owner()
{
    std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    // CAS so first-draw binding is race-free: of two threads racing on
    // a fresh (or just-rebound) instance, exactly one becomes owner
    // and the other trips the assert below (expected then holds the
    // winner's id).
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
        return;
    }
    POSEIDON_REQUIRE(expected == self,
                     "Prng: drawn from a second thread. A Prng stream "
                     "is thread-confined for reproducibility; sample "
                     "outside the parallel region or call "
                     "rebind_thread() for an explicit handoff");
}

u64
Prng::next()
{
    check_owner();
    return step();
}

u64
Prng::step()
{
    u64 result = rotl(s_[1] * 5, 7) * 9;
    u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

u64
Prng::uniform(u64 bound)
{
    POSEIDON_REQUIRE(bound >= 1, "uniform: bound must be >= 1");
    // Rejection sampling to remove modulo bias.
    u64 threshold = (0 - bound) % bound; // (2^64 - bound) mod bound
    for (;;) {
        u64 r = next();
        if (r >= threshold) return r % bound;
    }
}

void
Prng::uniform_fill(u64 *out, std::size_t n, u64 bound)
{
    POSEIDON_REQUIRE(bound >= 1, "uniform_fill: bound must be >= 1");
    check_owner();
    u64 threshold = (0 - bound) % bound;
    auto fill = [&](auto reduce) {
        for (std::size_t t = 0; t < n; ++t) {
            u64 r;
            do {
                r = step();
            } while (r < threshold);
            out[t] = reduce(r);
        }
    };
    if (bound > 1 && bound < kMaxModulus) {
        Barrett64 br(bound);
        fill([&](u64 r) { return br.reduce(r); });
    } else {
        fill([&](u64 r) { return r % bound; });
    }
}

double
Prng::uniform_double()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Prng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1, u2;
    do {
        u1 = uniform_double();
    } while (u1 <= 1e-300);
    u2 = uniform_double();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

std::vector<i64>
Sampler::ternary(std::size_t n)
{
    std::vector<i64> out(n);
    for (auto &v : out) {
        u64 r = prng_.uniform(3);
        v = static_cast<i64>(r) - 1;
    }
    return out;
}

std::vector<i64>
Sampler::sparse_ternary(std::size_t n, std::size_t h)
{
    POSEIDON_REQUIRE(h <= n, "sparse_ternary: h > n");
    std::vector<i64> out(n, 0);
    std::size_t placed = 0;
    while (placed < h) {
        std::size_t idx = prng_.uniform(n);
        if (out[idx] == 0) {
            out[idx] = (prng_.uniform(2) == 0) ? -1 : 1;
            ++placed;
        }
    }
    return out;
}

std::vector<i64>
Sampler::gaussian(std::size_t n, double sigma)
{
    std::vector<i64> out(n);
    for (auto &v : out) {
        v = static_cast<i64>(std::llround(prng_.gaussian() * sigma));
    }
    return out;
}

std::vector<u64>
Sampler::uniform_mod(std::size_t n, u64 q)
{
    std::vector<u64> out(n);
    prng_.uniform_fill(out.data(), n, q);
    return out;
}

} // namespace poseidon
