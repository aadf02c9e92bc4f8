// ckks_digest — deterministic end-to-end CKKS pipeline digests.
//
// Line 1: a fixed, fully seeded encode/encrypt/evaluate pipeline
// (HAdd, CMult+relin, Rescale, Rotation, conjugation, PMult) — the
// FNV-1a hash of every intermediate ciphertext's raw limb words.
// Line 2: the same hash of one seeded logN=10 packed bootstrap's
// output, which covers the bootstrapper's set-up tables and keys too.
// Both use one keyswitch digit per prime (dnum = 0), so lines 3 and 4
// rerun them with hybrid keyswitching (dnum = 3: line 1's pipeline
// with K = 2, line 2's bootstrap with K = 8), which covers the digit
// base conversion.
// Because the kernel layer guarantees canonical outputs are
// bit-identical across dispatch levels and thread counts, no line
// may change under POSEIDON_SIMD or POSEIDON_THREADS — CI runs it once
// per SIMD level and diffs each output against the committed
// tools/ckks_digest.expected, so a drift every level shares fails too.
// A change that means to alter the arithmetic updates that file.
//
// Stdout carries the digests only, so `diff tools/ckks_digest.expected
// <(POSEIDON_SIMD=avx2 ckks_digest)` is the whole gate.

#include <cstdio>

#include "ckks/bootstrap.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

using namespace poseidon;

namespace {

u64
fnv1a(u64 h, const u64 *words, std::size_t n)
{
    for (std::size_t t = 0; t < n; ++t) {
        u64 w = words[t];
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

u64
digest_ct(u64 h, const Ciphertext &c)
{
    for (std::size_t k = 0; k < c.num_limbs(); ++k) {
        h = fnv1a(h, c.c0.limb(k), c.degree());
        h = fnv1a(h, c.c1.limb(k), c.degree());
    }
    return h;
}

constexpr u64 kFnvBasis = 1469598103934665603ull;

/// One bootstrap of a seeded bottom-level ciphertext at the shape the
/// bootstrap tests use.
u64
bootstrap_digest(std::size_t dnum, std::size_t K)
{
    CkksParams params;
    params.logN = 10;
    params.L = 24;
    params.scaleBits = 40;
    params.firstPrimeBits = 45;
    params.specialPrimeBits = 50;
    params.dnum = dnum;
    params.K = K;
    auto ctx = make_ckks_context(params);

    KeyGenerator keygen(ctx);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    Bootstrapper boot(ctx, encoder, keygen);

    std::vector<cdouble> x;
    for (std::size_t i = 0; i < ctx->slots(); ++i) {
        double d = static_cast<double>(i);
        x.push_back({0.5 - d * 1e-3, 0.25 * ((i % 5) / 4.0) - 0.125});
    }
    Ciphertext ct = encryptor.encrypt(encoder.encode(x, 1));
    return digest_ct(kFnvBasis, boot.bootstrap(ct, eval));
}

/// The seeded evaluate pipeline: every intermediate ciphertext hashed.
u64
pipeline_digest(std::size_t dnum, std::size_t K)
{
    CkksParams params;
    params.logN = 12;
    params.L = 6;
    params.scaleBits = 35;
    params.dnum = dnum;
    params.K = K;
    auto ctx = make_ckks_context(params);

    KeyGenerator keygen(ctx);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    GaloisKeys galois = keygen.make_galois_keys({1, 2}, true);

    std::vector<cdouble> x, y;
    for (std::size_t i = 0; i < ctx->slots(); ++i) {
        double d = static_cast<double>(i);
        x.push_back({0.25 + d * 1e-3, -0.125 + d * 2e-3});
        y.push_back({1.5 - d * 1e-3, 0.0625 * (i % 7)});
    }
    Ciphertext cx = encryptor.encrypt(encoder.encode(x, params.L));
    Ciphertext cy = encryptor.encrypt(encoder.encode(y, params.L));

    u64 h = kFnvBasis;
    h = digest_ct(h, cx);
    h = digest_ct(h, cy);
    h = digest_ct(h, eval.add(cx, cy));

    Ciphertext prod = eval.mul(cx, cy, relin);
    eval.rescale_inplace(prod);
    h = digest_ct(h, prod);

    h = digest_ct(h, eval.rotate(cx, 1, galois));
    h = digest_ct(h, eval.conjugate(cx, galois));

    Plaintext half = encoder.encode_scalar(0.5, cx.num_limbs());
    Ciphertext scaled = eval.mul_plain(cx, half);
    eval.rescale_inplace(scaled);
    h = digest_ct(h, scaled);

    Ciphertext deep = eval.mul(prod, scaled, relin);
    eval.rescale_inplace(deep);
    h = digest_ct(h, eval.rotate(deep, 2, galois));
    return h;
}

void
print_digest(u64 h)
{
    std::printf("%016llx\n", static_cast<unsigned long long>(h));
}

} // namespace

int
main()
{
    print_digest(pipeline_digest(0, 1));
    print_digest(bootstrap_digest(0, 1));
    print_digest(pipeline_digest(3, 2));
    print_digest(bootstrap_digest(3, 8));
    return 0;
}
