#include "ckks/bootstrap_plan.h"

#include <cstdint>

#include "common/check.h"
#include "common/modmath.h"

namespace poseidon {

namespace {

/**
 * The stage applying the encoder's butterfly layers [begin, end) of
 * 2^logn slots, at `limbs` q-primes. Forward layer l has half-length
 * 2^l and inverse layer l half-length 2^(logn-1-l), so the stage's
 * half-lengths run 2^a .. 2^(b-1). A layer of half-length h moves a
 * slot by 0 or +-h, so the layers together move it by k*2^a with
 * |k| <= 2^m - 1, m = b - a. When the stage holds the half-span layer
 * (b = logn), +-2^(logn-1) coincide mod 2^logn and k takes every
 * residue mod 2^m, centred on zero.
 */
BootstrapPlan::Stage
make_stage(unsigned logn, unsigned begin, unsigned end, bool inverse,
           std::size_t limbs, std::size_t K, std::size_t N)
{
    unsigned a = inverse ? logn - end : begin;
    unsigned b = inverse ? logn - begin : end;
    long stride = 1L << a;
    long span = 1L << (b - a);
    long kLo = b == logn ? -(span / 2) : -(span - 1);
    long kHi = b == logn ? (span - 1) / 2 : span - 1;

    BootstrapPlan::Stage st = bsgs_stage(kLo, kHi, stride, limbs, K, N);
    st.layerBegin = begin;
    st.layerEnd = end;
    return st;
}

} // namespace

BootstrapPlan::Stage
bsgs_stage(long kLo, long kHi, long stride, std::size_t limbs,
           std::size_t K, std::size_t N, long n1)
{
    POSEIDON_REQUIRE(kLo <= kHi && n1 >= 0, "bsgs_stage: diagonals "
                     << kLo << ".." << kHi << " in groups of " << n1);
    // Ascending k walks the groups in order and each group's baby
    // steps in order.
    if (n1 == 0) {
        for (n1 = 1; n1 * n1 < kHi - kLo + 1; n1 *= 2) {}
    }
    auto group = [n1](long k) { // floor(k / n1)
        return k >= 0 ? k / n1 : -((n1 - 1 - k) / n1);
    };
    BootstrapPlan::Stage st;
    for (long j = 0; j < n1; ++j) st.babies.push_back(j * stride);
    for (long k = kLo; k <= kHi; ++k) {
        long g = group(k) * n1;
        st.offsets.push_back({g * stride, static_cast<std::size_t>(k - g)});
    }
    st.diagonals = st.offsets.size();
    st.babySteps = st.babies.size() - 1;
    st.giantSteps = static_cast<std::size_t>(group(kHi) - group(kLo));
    st.modDowns = st.giantSteps + 1;
    st.limbs = limbs;
    st.bytes = st.diagonals * (limbs + K) * N * sizeof(std::uint64_t);
    return st;
}

BootstrapPlan
plan_bootstrap(std::size_t slots, std::size_t L, std::size_t K,
               std::size_t N)
{
    POSEIDON_REQUIRE(is_pow2(N) && is_pow2(slots) && 2 * slots <= N,
                     "plan_bootstrap: " << slots << " slots at N=" << N);
    POSEIDON_REQUIRE(L >= 1, "plan_bootstrap: empty modulus chain");
    unsigned logn = log2_floor(slots);
    auto level = [&](std::size_t spent) {
        return L > spent ? L - spent : std::size_t(1);
    };

    BootstrapPlan plan;
    constexpr unsigned deg = BootstrapPlan::EvalMod::taylorDegree;
    constexpr unsigned r = BootstrapPlan::EvalMod::doubleAngles;
    plan.evalMod = {2 * (deg - 1 + r), 2, 2 * 3, 1 + deg + r + 1};

    // CoeffToSlot: the inverse FFT's layers split ceil/floor, its bit
    // reversal dropped. SlotToCoeff: the forward FFT's layers split
    // floor/ceil (its leading bit reversal cancels the one that
    // restores natural order).
    unsigned split = (logn + 1) / 2;
    plan.coeffToSlot = {
        make_stage(logn, 0, split, true, level(0), K, N),
        make_stage(logn, split, logn, true, level(1), K, N)};
    std::size_t spent = plan.coeffToSlot.size() + plan.evalMod.levels;
    plan.slotToCoeff = {
        make_stage(logn, 0, logn / 2, false, level(spent), K, N),
        make_stage(logn, logn / 2, logn, false, level(spent + 1), K, N)};
    return plan;
}

} // namespace poseidon
