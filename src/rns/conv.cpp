#include "rns/conv.h"

#include <algorithm>

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

/// std::llround(x) for 0 <= x < 2^62 without the libm call: rounds
/// half away from zero, and x - trunc(x) is exact.
u64
round_nonnegative(double x)
{
    i64 r = static_cast<i64>(x);
    return static_cast<u64>(r) + (x - static_cast<double>(r) >= 0.5);
}

} // namespace

RnsConv::RnsConv(const RnsBasis &src, const RnsBasis &dst)
    : src_(src), dst_(dst)
{
    std::size_t ls = src_.size(), ld = dst_.size();
    weights_.assign(ld, std::vector<u64>(ls + 1));
    none_.assign(ls + 1, nullptr);
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

RnsConv::Operands
RnsConv::operands(const std::vector<const u64*> &src, std::size_t n) const
{
    std::size_t ls = src_.size();
    POSEIDON_REQUIRE(src.size() == ls,
                     "RnsConv::operands: limb count mismatch");
    Operands ops;
    ops.n = n;
    ops.words.resize((ls + 1) * n);
    ops.rows.resize(ls + 1);
    for (std::size_t i = 0; i <= ls; ++i) {
        ops.rows[i] = ops.words.data() + i * n;
    }
    u64 *e = ops.words.data() + ls * n;

    // Coefficient columns are independent: every chunk writes its own
    // slice of each row, and the kernels are chunk-invariant, so the
    // bytes are the same at any thread count. The float overflow
    // estimate accumulates in ascending-i order per column.
    parallel::parallel_for(0, n, 256,
        [&](std::size_t t0, std::size_t t1) {
            for (std::size_t i = 0; i < ls; ++i) {
                // y_i = x_i * [(Q/q_i)^{-1}] mod q_i, batched.
                kernels::scalar_mul_shoup_n(ops.words.data() + i * n + t0,
                                            src[i] + t0, t1 - t0,
                                            src_.qhat_inv(i),
                                            qhatInvShoup_[i],
                                            src_.modulus(i));
            }
            constexpr std::size_t kTile = 64;
            double est[kTile];
            for (std::size_t s = t0; s < t1; s += kTile) {
                std::size_t len = std::min(kTile, t1 - s);
                std::fill(est, est + len, 0.0);
                for (std::size_t i = 0; i < ls; ++i) {
                    const u64 *yi = ops.rows[i] + s;
                    double qi = qInvDouble_[i];
                    for (std::size_t t = 0; t < len; ++t) {
                        est[t] += static_cast<double>(yi[t]) * qi;
                    }
                }
                // Number of whole-Q overflows in sum_i y_i * Qhat_i.
                for (std::size_t t = 0; t < len; ++t) {
                    e[s + t] = round_nonnegative(est[t]);
                }
            }
        }, "rns.conv");
    return ops;
}

void
RnsConv::row(const Operands &ops, std::size_t j, u64 *dst) const
{
    // Term i < ls is y_i times [Q/q_i] mod p_j, term ls is e times
    // -Q mod p_j. The y_i are canonical mod q_i, not mod p_j, so the
    // operand bound is the largest q_i; e <= ls is below it too (ls
    // distinct moduli > 1 include one > ls).
    POSEIDON_REQUIRE(j < dst_.size() && ops.rows.size() == none_.size(),
                     "RnsConv::row: bad row or operands");
    kernels::dot_mod_n(dst, ops.rows.data(), none_.data(),
                       weights_[j].data(), none_.size(), ops.n,
                       maxSrcModulus_, dst_.modulus(j));
}

void
RnsConv::convert(const std::vector<const u64*> &src,
                 const std::vector<u64*> &dst, std::size_t n) const
{
    POSEIDON_REQUIRE(dst.size() == dst_.size(),
                     "RnsConv::convert: limb count mismatch");
    Operands ops = operands(src, n);
    parallel::parallel_for(0, dst.size(), 1,
        [&](std::size_t j0, std::size_t j1) {
            for (std::size_t j = j0; j < j1; ++j) row(ops, j, dst[j]);
        }, "rns.conv_rows");
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
    RnsConv::Operands ops = conv_.operands(xp, n);
    parallel::parallel_for(0, l, 1,
        [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                conv_.row(ops, i, out[i]);
                finish_row(i, out[i], xq[i], out[i], n);
            }
        }, "rns.moddown");
}

void
ModDown::finish_row(std::size_t i, u64 *out, const u64 *xq, const u64 *c,
                    std::size_t n) const
{
    u64 q = conv_.dst().modulus(i);
    kernels::sub_mod_n(out, xq, c, n, q);
    kernels::scalar_mul_shoup_n(out, out, n, pInv_[i], pInvShoup_[i], q);
}

} // namespace poseidon
