#include "ckks/params.h"

#include <algorithm>

#include "common/check.h"
#include "rns/primes.h"

namespace poseidon {

CkksContext::CkksContext(const CkksParams &params)
    : params_(params)
{
    POSEIDON_REQUIRE(params_.logN >= 3 && params_.logN <= 17,
                     "CkksContext: logN out of range [3,17]");
    POSEIDON_REQUIRE(params_.L >= 1, "CkksContext: need at least one prime");
    POSEIDON_REQUIRE(params_.K >= 1,
                     "CkksContext: need at least one special prime");

    if (params_.dnum == 0) {
        alpha_ = 1;
    } else {
        POSEIDON_REQUIRE(params_.dnum <= params_.L,
                         "CkksContext: dnum must be <= L");
        alpha_ = (params_.L + params_.dnum - 1) / params_.dnum;
        POSEIDON_REQUIRE(params_.K >= alpha_,
                         "CkksContext: hybrid keyswitching needs "
                         "K >= ceil(L/dnum) special primes");
    }

    std::size_t n = params_.degree();

    // Prime chain: q_0 at firstPrimeBits, q_1..q_{L-1} near the scale,
    // then K special primes. All pairwise distinct.
    std::vector<u64> primes;
    std::vector<u64> avoid;

    auto first = generate_ntt_primes(n, params_.firstPrimeBits, 1, avoid);
    primes.push_back(first[0]);
    avoid.push_back(first[0]);

    if (params_.L > 1) {
        // Mid-chain primes sit just below 2^scaleBits so that every
        // rescale divides by ~Delta and the working scale stays put.
        auto mids = generate_ntt_primes(n, params_.scaleBits,
                                        params_.L - 1, avoid);
        for (u64 p : mids) {
            primes.push_back(p);
            avoid.push_back(p);
        }
    }
    auto specials = generate_ntt_primes(n, params_.specialPrimeBits,
                                        params_.K, avoid);
    for (u64 p : specials) primes.push_back(p);

    ring_ = std::make_shared<RingContext>(n, primes, params_.K);
    modDown_.resize(params_.L);
    rescaleDown_.resize(params_.L);

    // P mod q_i for the keyswitch key generation.
    pModQ_.resize(params_.L);
    const BigUInt &bigP = ring_->special_basis().big_product();
    for (std::size_t i = 0; i < params_.L; ++i) {
        pModQ_[i] = bigP.mod_u64(ring_->prime(i));
    }
}

const ModDown&
CkksContext::mod_down(std::size_t limbs) const
{
    POSEIDON_REQUIRE(limbs >= 1 && limbs <= params_.L,
                     "CkksContext::mod_down: bad limb count");
    auto &slot = modDown_[limbs - 1];
    if (!slot) {
        slot = std::make_unique<ModDown>(ring_->ct_basis(limbs),
                                         ring_->special_basis());
    }
    return *slot;
}

const ModDown&
CkksContext::rescale_mod_down(std::size_t limbs) const
{
    POSEIDON_REQUIRE(limbs >= 2 && limbs <= params_.L,
                     "CkksContext::rescale_mod_down: bad limb count");
    auto &slot = rescaleDown_[limbs - 1];
    if (!slot) {
        RnsBasis tail({ring_->prime(limbs - 1)});
        slot = std::make_unique<ModDown>(
            ring_->ct_basis(limbs - 1),
            tail.concat(ring_->special_basis()));
    }
    return *slot;
}

std::vector<std::size_t>
CkksContext::extended_indices(std::size_t limbs) const
{
    std::vector<std::size_t> idx;
    idx.reserve(limbs + params_.K);
    for (std::size_t i = 0; i < limbs; ++i) idx.push_back(i);
    for (std::size_t j = 0; j < params_.K; ++j) idx.push_back(params_.L + j);
    return idx;
}

bool
CkksContext::is_extended(const RnsPoly &p) const
{
    std::size_t K = params_.K;
    return p.num_limbs() > K &&
           p.prime_indices() == extended_indices(p.num_limbs() - K);
}

const RnsConv&
CkksContext::digit_conv(std::size_t limbs, std::size_t g) const
{
    POSEIDON_REQUIRE(limbs >= 1 && limbs <= params_.L,
                     "digit_conv: bad limb count");
    std::size_t start = g * alpha_;
    POSEIDON_REQUIRE(start < limbs, "digit_conv: bad group index");
    std::size_t len = std::min(alpha_, limbs - start);

    std::size_t key = limbs * (params_.L + 1) + g;
    auto it = digitConv_.find(key);
    if (it != digitConv_.end()) return *it->second;

    std::vector<u64> srcPrimes;
    for (std::size_t i = start; i < start + len; ++i) {
        srcPrimes.push_back(ring_->prime(i));
    }
    std::vector<u64> dstPrimes;
    for (std::size_t i = 0; i < limbs; ++i) {
        if (i < start || i >= start + len) {
            dstPrimes.push_back(ring_->prime(i));
        }
    }
    for (std::size_t j = 0; j < params_.K; ++j) {
        dstPrimes.push_back(ring_->prime(params_.L + j));
    }
    auto conv = std::make_unique<RnsConv>(RnsBasis(std::move(srcPrimes)),
                                          RnsBasis(std::move(dstPrimes)));
    const RnsConv &ref = *conv;
    digitConv_.emplace(key, std::move(conv));
    return ref;
}

CkksContextPtr
make_ckks_context(const CkksParams &params)
{
    return std::make_shared<CkksContext>(params);
}

} // namespace poseidon
