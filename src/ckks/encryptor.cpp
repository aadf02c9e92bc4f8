#include "ckks/encryptor.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace poseidon {

CkksEncryptor::CkksEncryptor(CkksContextPtr ctx, PublicKey pk, u64 seed)
    : ctx_(std::move(ctx)), pk_(std::move(pk)), sampler_(seed)
{
    POSEIDON_REQUIRE(ctx_ != nullptr, "CkksEncryptor: null context");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pk_.b.degree() == ctx_->degree() &&
                       pk_.a.degree() == ctx_->degree(),
                       "CkksEncryptor: public key degree does not match "
                       "the context (N=" << ctx_->degree() << ")");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pk_.b.num_limbs() >= ctx_->params().L &&
                       pk_.a.num_limbs() >= ctx_->params().L,
                       "CkksEncryptor: public key spans "
                       << pk_.b.num_limbs() << " limbs, need "
                       << ctx_->params().L);
}

Ciphertext
CkksEncryptor::encrypt(const Plaintext &pt)
{
    POSEIDON_REQUIRE(pt.poly.domain() == Domain::Eval,
                     "encrypt: plaintext must be in Eval domain");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pt.poly.degree() == ctx_->degree(),
                       "encrypt: plaintext degree " << pt.poly.degree()
                       << " does not match the context N="
                       << ctx_->degree());
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pt.num_limbs() >= 1 &&
                       pt.num_limbs() <= ctx_->params().L,
                       "encrypt: plaintext over " << pt.num_limbs()
                       << " limbs outside [1, " << ctx_->params().L
                       << "]");
    POSEIDON_REQUIRE(pt.scale > 0.0 && std::isfinite(pt.scale),
                     "encrypt: plaintext carries invalid scale "
                     << pt.scale);
    std::size_t limbs = pt.num_limbs();
    std::size_t n = ctx_->degree();
    const auto &ring = ctx_->ring();

    // Ephemeral ternary u and errors e0, e1.
    RnsPoly u = RnsPoly::ct(ring, limbs, Domain::Coeff);
    u.assign_signed(sampler_.ternary(n));
    u.to_eval();

    RnsPoly e0 = RnsPoly::ct(ring, limbs, Domain::Coeff);
    e0.assign_signed(sampler_.gaussian(n));
    e0.to_eval();
    RnsPoly e1 = RnsPoly::ct(ring, limbs, Domain::Coeff);
    e1.assign_signed(sampler_.gaussian(n));
    e1.to_eval();

    // Restrict the public key to the ciphertext's limbs.
    Ciphertext ct;
    ct.c0 = RnsPoly::ct(ring, limbs, Domain::Eval);
    ct.c1 = RnsPoly::ct(ring, limbs, Domain::Eval);
    // Sampling above is done (PRNG stays thread-confined); combining
    // the sampled polys with the public key is pure per-limb work.
    parallel::parallel_for(0, limbs, 1,
        [&](std::size_t kk0, std::size_t kk1) {
            for (std::size_t k = kk0; k < kk1; ++k) {
                const Barrett64 &br = ring->barrett(k);
                u64 q = ring->prime(k);
                const u64 *bv = pk_.b.limb(k);
                const u64 *av = pk_.a.limb(k);
                const u64 *uv = u.limb(k);
                const u64 *m = pt.poly.limb(k);
                u64 *c0 = ct.c0.limb(k);
                u64 *c1 = ct.c1.limb(k);
                const u64 *ev0 = e0.limb(k);
                const u64 *ev1 = e1.limb(k);
                for (std::size_t t = 0; t < n; ++t) {
                    c0[t] = add_mod(add_mod(br.mul(bv[t], uv[t]),
                                            ev0[t], q),
                                    m[t], q);
                    c1[t] = add_mod(br.mul(av[t], uv[t]), ev1[t], q);
                }
            }
        }, "ckks.encrypt");
    ct.scale = pt.scale;
    return ct;
}

Ciphertext
CkksEncryptor::encrypt_symmetric(const Plaintext &pt, const SecretKey &sk)
{
    POSEIDON_REQUIRE(pt.poly.domain() == Domain::Eval,
                     "encrypt_symmetric: plaintext must be in Eval domain");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       pt.poly.degree() == ctx_->degree() &&
                       sk.s.degree() == ctx_->degree(),
                       "encrypt_symmetric: plaintext/secret degree does "
                       "not match the context (N=" << ctx_->degree()
                       << ")");
    std::size_t limbs = pt.num_limbs();
    std::size_t n = ctx_->degree();
    const auto &ring = ctx_->ring();

    RnsPoly e(ring, [&] {
        std::vector<std::size_t> idx(limbs);
        for (std::size_t i = 0; i < limbs; ++i) idx[i] = i;
        return idx;
    }(), Domain::Coeff);
    e.assign_signed(sampler_.gaussian(n));
    e.to_eval();

    Ciphertext ct;
    ct.c0 = RnsPoly::ct(ring, limbs, Domain::Eval);
    ct.c1 = RnsPoly::ct(ring, limbs, Domain::Eval);
    // Serial on purpose: c1 is drawn from the sampler's PRNG limb by
    // limb inside the loop, and the PRNG stream (and the ciphertext
    // derived from it) must not depend on the thread count.
    for (std::size_t k = 0; k < limbs; ++k) {
        u64 q = ring->prime(k);
        const Barrett64 &br = ring->barrett(k);
        const u64 *sv = sk.s.limb(k);
        const u64 *m = pt.poly.limb(k);
        const u64 *ev = e.limb(k);
        u64 *c0 = ct.c0.limb(k);
        u64 *c1 = ct.c1.limb(k);
        sampler_.prng().uniform_fill(c1, n, q);
        for (std::size_t t = 0; t < n; ++t) {
            c0[t] = add_mod(add_mod(neg_mod(br.mul(c1[t], sv[t]), q),
                                    ev[t], q),
                            m[t], q);
        }
    }
    ct.scale = pt.scale;
    return ct;
}

CkksDecryptor::CkksDecryptor(CkksContextPtr ctx, SecretKey sk)
    : ctx_(std::move(ctx)), sk_(std::move(sk))
{
    POSEIDON_REQUIRE(ctx_ != nullptr, "CkksDecryptor: null context");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       sk_.s.degree() == ctx_->degree(),
                       "CkksDecryptor: secret key degree does not match "
                       "the context (N=" << ctx_->degree() << ")");
}

Plaintext
CkksDecryptor::decrypt(const Ciphertext &ct) const
{
    POSEIDON_REQUIRE(ct.c0.domain() == Domain::Eval &&
                     ct.c1.domain() == Domain::Eval,
                     "decrypt: ciphertext must be in Eval domain");
    POSEIDON_REQUIRE_T(ShapeMismatch,
                       ct.c0.num_limbs() == ct.c1.num_limbs(),
                       "decrypt: ciphertext components disagree ("
                       << ct.c0.num_limbs() << " vs "
                       << ct.c1.num_limbs() << " limbs)");
    POSEIDON_REQUIRE_T(ShapeMismatch, ct.degree() == ctx_->degree(),
                       "decrypt: ciphertext degree " << ct.degree()
                       << " does not match the context N="
                       << ctx_->degree());
    POSEIDON_REQUIRE_T(ShapeMismatch, !ctx_->is_extended(ct.c0),
                       "decrypt: ciphertext spans the extended basis QP; "
                       "rescale_inplace or mod_down it first");
    std::size_t limbs = ct.num_limbs();
    std::size_t n = ctx_->degree();
    const auto &ring = ctx_->ring();

    Plaintext pt;
    pt.poly = RnsPoly::ct(ring, limbs, Domain::Eval);
    parallel::parallel_for(0, limbs, 1,
        [&](std::size_t kk0, std::size_t kk1) {
            for (std::size_t k = kk0; k < kk1; ++k) {
                const Barrett64 &br = ring->barrett(k);
                u64 q = ring->prime(k);
                const u64 *c0 = ct.c0.limb(k);
                const u64 *c1 = ct.c1.limb(k);
                const u64 *sv = sk_.s.limb(k); // identity prime mapping
                u64 *m = pt.poly.limb(k);
                for (std::size_t t = 0; t < n; ++t) {
                    m[t] = add_mod(c0[t], br.mul(c1[t], sv[t]), q);
                }
            }
        }, "ckks.decrypt");
    pt.scale = ct.scale;
    return pt;
}

} // namespace poseidon
