#include "ckks/keys.h"

#include "common/check.h"
#include "poly/automorphism.h"

namespace poseidon {

const KSwitchKey&
GaloisKeys::get(u64 galois) const
{
    auto it = keys.find(galois);
    POSEIDON_REQUIRE(it != keys.end(),
                     "GaloisKeys: no key for galois element " << galois
                     << " (have " << keys.size() << " keys)");
    return it->second;
}

KeyGenerator::KeyGenerator(CkksContextPtr ctx)
    : ctx_([&] {
          POSEIDON_REQUIRE(ctx != nullptr, "KeyGenerator: null context");
          return std::move(ctx);
      }()),
      sampler_(ctx_->params().seed)
{
    const auto &ring = ctx_->ring();
    allIdx_.resize(ring->num_primes());
    for (std::size_t i = 0; i < allIdx_.size(); ++i) allIdx_[i] = i;

    std::size_t n = ctx_->degree();
    std::size_t h = std::min<std::size_t>(n / 2, 64);
    sk_.s = RnsPoly(ring, allIdx_, Domain::Coeff);
    sk_.s.assign_signed(sampler_.sparse_ternary(n, h));
    sk_.s.to_eval();
}

KSwitchKey::Piece
KeyGenerator::encrypt_zero(const std::vector<std::size_t> &idx)
{
    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();

    KSwitchKey::Piece piece;
    piece.a = RnsPoly(ring, idx, Domain::Eval);
    // Uniform a in R: independent uniform residues per limb (CRT).
    for (std::size_t k = 0; k < idx.size(); ++k) {
        sampler_.prng().uniform_fill(piece.a.limb(k), n, ring->prime(idx[k]));
    }

    RnsPoly e(ring, idx, Domain::Coeff);
    e.assign_signed(sampler_.gaussian(n));
    e.to_eval();

    // b = -a*s + e. The secret is over all primes with identity index
    // mapping, so limb k of `a` pairs with limb idx[k] of s.
    piece.b = RnsPoly(ring, idx, Domain::Eval);
    for (std::size_t k = 0; k < idx.size(); ++k) {
        const Barrett64 &br = ring->barrett(idx[k]);
        u64 q = ring->prime(idx[k]);
        const u64 *av = piece.a.limb(k);
        const u64 *sv = sk_.s.limb(idx[k]);
        const u64 *ev = e.limb(k);
        u64 *bv = piece.b.limb(k);
        for (std::size_t t = 0; t < n; ++t) {
            bv[t] = add_mod(neg_mod(br.mul(av[t], sv[t]), q), ev[t], q);
        }
    }
    return piece;
}

PublicKey
KeyGenerator::make_public_key()
{
    std::vector<std::size_t> ctIdx(ctx_->params().L);
    for (std::size_t i = 0; i < ctIdx.size(); ++i) ctIdx[i] = i;
    KSwitchKey::Piece p = encrypt_zero(ctIdx);
    return PublicKey{std::move(p.b), std::move(p.a)};
}

KSwitchKey
KeyGenerator::make_kswitch_key(const RnsPoly &newKeyEval)
{
    POSEIDON_REQUIRE(newKeyEval.domain() == Domain::Eval,
                     "make_kswitch_key: new key must be in Eval domain");
    POSEIDON_REQUIRE(newKeyEval.num_limbs() == ctx_->ring()->num_primes(),
                     "make_kswitch_key: new key must span the full chain");

    const auto &ring = ctx_->ring();
    std::size_t n = ctx_->degree();
    std::size_t L = ctx_->params().L;
    std::size_t alpha = ctx_->alpha();
    std::size_t numDigits = ctx_->num_digits(L);

    KSwitchKey key;
    key.pieces.reserve(numDigits);
    for (std::size_t j = 0; j < numDigits; ++j) {
        KSwitchKey::Piece piece = encrypt_zero(allIdx_);
        // Add P * [newKey]_{q_i} into every limb of digit group j
        // (Eval domain); other limbs stay encryptions of zero, so the
        // encrypted value is P * newKey * delta_j with delta_j the CRT
        // indicator of the group.
        std::size_t end = std::min((j + 1) * alpha, L);
        for (std::size_t i = j * alpha; i < end; ++i) {
            u64 q = ring->prime(i);
            const Barrett64 &br = ring->barrett(i);
            u64 factor = ctx_->p_mod_qi(i);
            const u64 *nk = newKeyEval.limb(i);
            u64 *bv = piece.b.limb(i);
            for (std::size_t t = 0; t < n; ++t) {
                bv[t] = add_mod(bv[t], br.mul(factor, nk[t]), q);
            }
        }
        key.pieces.push_back(std::move(piece));
    }
    return key;
}

KSwitchKey
KeyGenerator::make_relin_key()
{
    // s' = s^2 over the full chain (element-wise square in Eval).
    RnsPoly s2 = sk_.s;
    s2.mul_inplace(sk_.s);
    return make_kswitch_key(s2);
}

KSwitchKey
KeyGenerator::make_galois_key(u64 galois)
{
    POSEIDON_REQUIRE(galois % 2 == 1 && galois < 2 * ctx_->degree(),
                     "make_galois_key: galois element " << galois
                     << " must be odd and < 2N = "
                     << 2 * ctx_->degree());
    RnsPoly sg = automorphism(sk_.s, galois);
    return make_kswitch_key(sg);
}

GaloisKeys
KeyGenerator::make_galois_keys(const std::vector<long> &steps,
                               bool includeConjugate)
{
    GaloisKeys gk;
    std::size_t n = ctx_->degree();
    for (long s : steps) {
        u64 g = galois_element_for_step(n, s);
        if (!gk.has(g)) gk.keys.emplace(g, make_galois_key(g));
    }
    if (includeConjugate) {
        u64 g = galois_element_conjugate(n);
        if (!gk.has(g)) gk.keys.emplace(g, make_galois_key(g));
    }
    return gk;
}

} // namespace poseidon
