#include "rns/basis.h"

#include <algorithm>

#include "common/check.h"

namespace poseidon {

RnsBasis::RnsBasis(std::vector<u64> moduli)
    : moduli_(std::move(moduli))
{
    POSEIDON_REQUIRE(!moduli_.empty(), "RnsBasis: empty modulus list");
    for (std::size_t i = 0; i < moduli_.size(); ++i) {
        for (std::size_t j = i + 1; j < moduli_.size(); ++j) {
            POSEIDON_REQUIRE(moduli_[i] != moduli_[j],
                             "RnsBasis: duplicate modulus");
        }
    }
    barrett_.reserve(moduli_.size());
    for (u64 q : moduli_) barrett_.emplace_back(q);

    product_ = BigUInt::product(moduli_);
    half_ = product_;
    half_.shr1();

    qhat_.reserve(moduli_.size());
    qhatInv_.reserve(moduli_.size());
    for (std::size_t i = 0; i < moduli_.size(); ++i) {
        std::vector<u64> others;
        for (std::size_t j = 0; j < moduli_.size(); ++j) {
            if (j != i) others.push_back(moduli_[j]);
        }
        BigUInt qh = BigUInt::product(others);
        u64 qh_mod = qh.is_zero() ? 0 : qh.mod_u64(moduli_[i]);
        if (moduli_.size() == 1) qh_mod = 1; // Qhat = 1 for a single prime
        qhatInv_.push_back(inv_mod(qh_mod, moduli_[i]));
        qhat_.push_back(std::move(qh));
    }
}

RnsBasis
RnsBasis::prefix(std::size_t count) const
{
    POSEIDON_REQUIRE(count >= 1 && count <= moduli_.size(),
                     "RnsBasis::prefix: bad count");
    return RnsBasis(std::vector<u64>(moduli_.begin(),
                                     moduli_.begin() + count));
}

RnsBasis
RnsBasis::concat(const RnsBasis &other) const
{
    std::vector<u64> all = moduli_;
    all.insert(all.end(), other.moduli_.begin(), other.moduli_.end());
    return RnsBasis(std::move(all));
}

void
RnsBasis::decompose(i64 v, u64 *out) const
{
    for (std::size_t i = 0; i < moduli_.size(); ++i) {
        out[i] = signed_residue(v, moduli_[i]);
    }
}

BigUInt
RnsBasis::compose(const u64 *res) const
{
    BigUInt acc(0);
    for (std::size_t i = 0; i < moduli_.size(); ++i) {
        u64 t = barrett_[i].mul(res[i] % moduli_[i], qhatInv_[i]);
        BigUInt term = moduli_.size() == 1 ? BigUInt(1) : qhat_[i];
        term.mul_u64(t);
        acc.add(term);
    }
    // acc < L * Q; reduce by subtraction.
    while (acc.cmp(product_) >= 0) acc.sub(product_);
    return acc;
}

double
RnsBasis::compose_centered_double(const u64 *res) const
{
    BigUInt v = compose(res);
    if (v.cmp(half_) > 0) {
        BigUInt neg = product_;
        neg.sub(v);
        return -neg.to_double();
    }
    return v.to_double();
}

} // namespace poseidon
