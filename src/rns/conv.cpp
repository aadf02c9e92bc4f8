#include "rns/conv.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"

namespace poseidon {

namespace {

u64
shoup_const(u64 w, u64 q)
{
    return static_cast<u64>((u128(w) << 64) / q);
}

} // namespace

RnsConv::RnsConv(const RnsBasis &src, const RnsBasis &dst)
    : src_(src), dst_(dst)
{
    std::size_t ls = src_.size(), ld = dst_.size();
    weights_.assign(ld, std::vector<u64>(ls + 1));
    qhatInvShoup_.resize(ls);
    qInvDouble_.resize(ls);
    for (std::size_t j = 0; j < ld; ++j) {
        u64 p = dst_.modulus(j);
        for (std::size_t i = 0; i < ls; ++i) {
            weights_[j][i] = ls == 1 ? 1 % p : src_.qhat(i).mod_u64(p);
        }
        weights_[j][ls] = neg_mod(src_.big_product().mod_u64(p), p);
    }
    for (std::size_t i = 0; i < ls; ++i) {
        qhatInvShoup_[i] = shoup_const(src_.qhat_inv(i),
                                       src_.modulus(i));
        qInvDouble_[i] = 1.0 / static_cast<double>(src_.modulus(i));
        maxSrcModulus_ = std::max(maxSrcModulus_, src_.modulus(i));
    }
}

void
RnsConv::convert(const std::vector<const u64*> &src,
                 const std::vector<u64*> &dst, std::size_t n,
                 bool correct) const
{
    std::size_t ls = src_.size(), ld = dst_.size();
    POSEIDON_REQUIRE(src.size() == ls && dst.size() == ld,
                     "RnsConv::convert: limb count mismatch");

    // Coefficient columns are independent; split the coefficient range
    // across threads and run the batched kernels over each chunk's
    // rows. Every chunk writes a disjoint slice of each dst limb and
    // the kernels are chunk-invariant (same bytes under any split), so
    // results are bit-identical at any thread count. The float
    // overflow estimate accumulates in ascending-i order per column,
    // matching the historical scalar loop's rounding exactly.
    //
    // Each dst limb is one fused dot product: term i is y_i times
    // [Q/q_i] mod p_j, and with the correction one more term is e
    // times -Q mod p_j. The y_i are canonical mod q_i, not mod p_j, so
    // the operand bound is the largest q_i; e <= ls is below it too
    // (ls distinct moduli > 1 include one > ls).
    std::vector<const u64*> none(ls + 1, nullptr);
    parallel::parallel_for(0, n, 256,
        [&](std::size_t t0, std::size_t t1) {
            std::size_t c = t1 - t0;
            std::vector<std::vector<u64>> y(ls, std::vector<u64>(c));
            std::vector<double> est(c, 0.0);
            std::vector<u64> e(c, 0);
            std::vector<const u64*> terms(ls + 1);
            for (std::size_t i = 0; i < ls; ++i) {
                // y_i = x_i * [(Q/q_i)^{-1}] mod q_i, batched.
                kernels::scalar_mul_shoup_n(y[i].data(), src[i] + t0,
                                            c, src_.qhat_inv(i),
                                            qhatInvShoup_[i],
                                            src_.modulus(i));
                const u64 *yi = y[i].data();
                double qi = qInvDouble_[i];
                for (std::size_t t = 0; t < c; ++t) {
                    est[t] += static_cast<double>(yi[t]) * qi;
                }
                terms[i] = yi;
            }
            if (correct) {
                // Number of whole-Q overflows in sum_i y_i * Qhat_i.
                for (std::size_t t = 0; t < c; ++t) {
                    e[t] = static_cast<u64>(std::llround(est[t]));
                }
                terms[ls] = e.data();
            }
            for (std::size_t j = 0; j < ld; ++j) {
                kernels::dot_mod_n(dst[j] + t0, terms.data(),
                                   none.data(), weights_[j].data(),
                                   correct ? ls + 1 : ls, c,
                                   maxSrcModulus_, dst_.modulus(j));
            }
        }, "rns.conv");
}

ModDown::ModDown(const RnsBasis &qBasis, const RnsBasis &pBasis)
    : conv_(pBasis, qBasis)
{
    pInv_.reserve(qBasis.size());
    pInvShoup_.reserve(qBasis.size());
    for (std::size_t i = 0; i < qBasis.size(); ++i) {
        u64 q = qBasis.modulus(i);
        u64 pmod = pBasis.big_product().mod_u64(q);
        pInv_.push_back(inv_mod(pmod, q));
        pInvShoup_.push_back(shoup_const(pInv_.back(), q));
    }
}

void
ModDown::apply(const std::vector<const u64*> &xq,
               const std::vector<const u64*> &xp,
               const std::vector<u64*> &out, std::size_t n) const
{
    std::size_t l = conv_.dst().size();
    POSEIDON_REQUIRE(xq.size() == l && out.size() == l,
                     "ModDown::apply: limb count mismatch");

    // conv_{p->q}(x_p) into scratch buffers.
    std::vector<std::vector<u64>> scratch(l, std::vector<u64>(n));
    std::vector<u64*> scratchPtr(l);
    std::vector<const u64*> c(l);
    for (std::size_t i = 0; i < l; ++i) {
        scratchPtr[i] = scratch[i].data();
        c[i] = scratchPtr[i];
    }
    conv_.convert(xp, scratchPtr, n, /*correct=*/true);
    finish(xq, c, out, n);
}

void
ModDown::finish(const std::vector<const u64*> &xq,
                const std::vector<const u64*> &c,
                const std::vector<u64*> &out, std::size_t n) const
{
    const RnsBasis &qb = conv_.dst();
    std::size_t l = qb.size();
    POSEIDON_REQUIRE(xq.size() == l && c.size() == l && out.size() == l,
                     "ModDown::finish: limb count mismatch");
    parallel::parallel_for(0, l, 1,
        [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                u64 q = qb.modulus(i);
                kernels::sub_mod_n(out[i], xq[i], c[i], n, q);
                kernels::scalar_mul_shoup_n(out[i], out[i], n, pInv_[i],
                                            pInvShoup_[i], q);
            }
        }, "rns.moddown");
}

} // namespace poseidon
