#include "poly/poly.h"

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"

namespace poseidon {

namespace {

/// Elementwise limb loops only split across threads once a chunk
/// carries at least this many coefficients; below that, pool dispatch
/// costs more than the arithmetic it distributes.
constexpr std::size_t kMinElemsPerTask = 8192;

std::size_t
limb_grain(std::size_t n)
{
    return n >= kMinElemsPerTask ? 1 : kMinElemsPerTask / n;
}

} // namespace

RnsPoly::RnsPoly(RingContextPtr ctx, std::vector<std::size_t> primeIdx,
                 Domain d)
    : ctx_(std::move(ctx)), primeIdx_(std::move(primeIdx)), domain_(d)
{
    POSEIDON_REQUIRE(ctx_ != nullptr, "RnsPoly: null context");
    POSEIDON_REQUIRE(!primeIdx_.empty(), "RnsPoly: no primes");
    for (std::size_t idx : primeIdx_) {
        POSEIDON_REQUIRE(idx < ctx_->num_primes(), "RnsPoly: bad prime index");
    }
    data_.assign(primeIdx_.size(), std::vector<u64>(ctx_->degree(), 0));
}

RnsPoly
RnsPoly::ct(RingContextPtr ctx, std::size_t limbs, Domain d)
{
    std::vector<std::size_t> idx(limbs);
    for (std::size_t i = 0; i < limbs; ++i) idx[i] = i;
    return RnsPoly(std::move(ctx), std::move(idx), d);
}

bool
RnsPoly::compatible(const RnsPoly &o) const
{
    return ctx_ == o.ctx_ && primeIdx_ == o.primeIdx_ &&
           domain_ == o.domain_;
}

void
RnsPoly::to_eval()
{
    if (domain_ == Domain::Eval) return;
    parallel::parallel_for(0, data_.size(), 1,
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                ctx_->table(primeIdx_[k]).forward(data_[k].data());
            }
        }, "poly.ntt");
    domain_ = Domain::Eval;
}

void
RnsPoly::to_coeff()
{
    if (domain_ == Domain::Coeff) return;
    parallel::parallel_for(0, data_.size(), 1,
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                ctx_->table(primeIdx_[k]).inverse(data_[k].data());
            }
        }, "poly.intt");
    domain_ = Domain::Coeff;
}

void
RnsPoly::add_inplace(const RnsPoly &o)
{
    POSEIDON_REQUIRE(compatible(o), "RnsPoly::add_inplace: incompatible");
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 *a = data_[k].data();
                kernels::add_mod_n(a, a, o.data_[k].data(),
                                   data_[k].size(), prime(k));
            }
        }, "poly.elementwise");
}

void
RnsPoly::sub_inplace(const RnsPoly &o)
{
    POSEIDON_REQUIRE(compatible(o), "RnsPoly::sub_inplace: incompatible");
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 *a = data_[k].data();
                kernels::sub_mod_n(a, a, o.data_[k].data(),
                                   data_[k].size(), prime(k));
            }
        }, "poly.elementwise");
}

void
RnsPoly::negate_inplace()
{
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 *a = data_[k].data();
                kernels::neg_mod_n(a, a, data_[k].size(), prime(k));
            }
        }, "poly.elementwise");
}

void
RnsPoly::mul_inplace(const RnsPoly &o)
{
    POSEIDON_REQUIRE(compatible(o), "RnsPoly::mul_inplace: incompatible");
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 *a = data_[k].data();
                kernels::mul_mod_n(a, a, o.data_[k].data(),
                                   data_[k].size(), prime(k));
            }
        }, "poly.elementwise");
}

void
RnsPoly::mul_scalar_inplace(const std::vector<u64> &scalars)
{
    POSEIDON_REQUIRE(scalars.size() == data_.size(),
                     "RnsPoly::mul_scalar_inplace: scalar count mismatch");
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 q = prime(k);
                u64 w = scalars[k] % q;
                u64 ws = static_cast<u64>((u128(w) << 64) / q);
                u64 *a = data_[k].data();
                kernels::scalar_mul_shoup_n(a, a, data_[k].size(), w,
                                            ws, q);
            }
        }, "poly.elementwise");
}

void
RnsPoly::mul_scalar_inplace(u64 scalar)
{
    std::vector<u64> s(data_.size());
    for (std::size_t k = 0; k < data_.size(); ++k) s[k] = scalar % prime(k);
    mul_scalar_inplace(s);
}

void
RnsPoly::drop_last_limb()
{
    POSEIDON_REQUIRE(data_.size() >= 2,
                     "RnsPoly::drop_last_limb: would leave no limbs");
    data_.pop_back();
    primeIdx_.pop_back();
}

void
RnsPoly::append_limb(std::size_t primeIdx)
{
    POSEIDON_REQUIRE(primeIdx < ctx_->num_primes(),
                     "RnsPoly::append_limb: bad prime index");
    primeIdx_.push_back(primeIdx);
    data_.emplace_back(ctx_->degree(), 0);
}

void
RnsPoly::assign_signed(const std::vector<i64> &coeffs)
{
    POSEIDON_REQUIRE(domain_ == Domain::Coeff,
                     "RnsPoly::assign_signed: must be in Coeff domain");
    POSEIDON_REQUIRE(coeffs.size() == ctx_->degree(),
                     "RnsPoly::assign_signed: wrong coefficient count");
    parallel::parallel_for(0, data_.size(), limb_grain(degree()),
        [&](std::size_t k0, std::size_t k1) {
            for (std::size_t k = k0; k < k1; ++k) {
                u64 q = prime(k);
                for (std::size_t t = 0; t < coeffs.size(); ++t) {
                    data_[k][t] = signed_residue(coeffs[t], q);
                }
            }
        }, "poly.elementwise");
}

} // namespace poseidon
