// Property tests: random homomorphic programs executed against a
// plaintext mirror, swept over parameter sets (TEST_P). Each program is
// a random sequence of HAdd/sub/PMult/CMult/rotation/rescale steps; the
// decrypted result must track the plaintext computation within noise.

#include <gtest/gtest.h>

#include <cmath>

#include "common/status.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

namespace poseidon {
namespace {

// gtest names each case by the bytes of its parameter, so the struct
// must have no padding: every field is 64-bit and fully initialised.
struct ParamCase
{
    std::size_t logN;
    std::size_t L;
    std::size_t scaleBits;
    std::size_t dnum; // 0 = digit per prime
    std::size_t K;
};
static_assert(sizeof(ParamCase) == 5 * sizeof(std::size_t),
              "ParamCase must have no padding bytes");

class RandomProgramTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(RandomProgramTest, TracksPlaintextMirror)
{
    auto pc = GetParam();
    CkksParams p;
    p.logN = static_cast<unsigned>(pc.logN);
    p.L = pc.L;
    p.scaleBits = static_cast<unsigned>(pc.scaleBits);
    p.firstPrimeBits = 45;
    p.specialPrimeBits = 45;
    p.dnum = pc.dnum;
    p.K = pc.K;

    auto ctx = make_ckks_context(p);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksDecryptor decryptor(ctx, keygen.secret_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    GaloisKeys gk = keygen.make_galois_keys({1, 2, -1});

    std::size_t ns = ctx->slots();
    Prng prng(999 + pc.logN);

    // State: ciphertext + plaintext mirror.
    std::vector<cdouble> mirror(ns);
    for (auto &v : mirror) {
        v = cdouble(prng.uniform_double() - 0.5,
                    prng.uniform_double() - 0.5);
    }
    Ciphertext ct = encryptor.encrypt(encoder.encode(mirror, p.L));

    auto check = [&](const char *what, double tol) {
        auto back = encoder.decode(decryptor.decrypt(ct));
        double m = 0;
        for (std::size_t i = 0; i < ns; ++i) {
            m = std::max(m, std::abs(back[i] - mirror[i]));
        }
        ASSERT_LT(m, tol) << what;
    };

    int steps = 24;
    for (int s = 0; s < steps; ++s) {
        u64 op = prng.uniform(5);
        switch (op) {
          case 0: { // add a fresh plaintext vector
            std::vector<cdouble> v(ns);
            for (auto &x : v) {
                x = cdouble(prng.uniform_double() - 0.5, 0.0);
            }
            Plaintext pt = encoder.encode(v, ct.num_limbs(), ct.scale);
            ct = eval.add_plain(ct, pt);
            for (std::size_t i = 0; i < ns; ++i) mirror[i] += v[i];
            break;
          }
          case 1: { // negate
            ct = eval.negate(ct);
            for (auto &v : mirror) v = -v;
            break;
          }
          case 2: { // PMult by a random vector, then rescale
            if (ct.num_limbs() < 2) break;
            std::vector<cdouble> v(ns);
            for (auto &x : v) {
                x = cdouble(prng.uniform_double() * 1.6 - 0.8, 0.0);
            }
            Plaintext pt = encoder.encode(v, ct.num_limbs());
            ct = eval.mul_plain(ct, pt);
            eval.rescale_inplace(ct);
            for (std::size_t i = 0; i < ns; ++i) mirror[i] *= v[i];
            break;
          }
          case 3: { // square + rescale (only while values stay small)
            if (ct.num_limbs() < 2) break;
            double maxMag = 0;
            for (auto &v : mirror) {
                maxMag = std::max(maxMag, std::abs(v));
            }
            if (maxMag > 1.2) break; // avoid blowup
            ct = eval.square(ct, relin);
            eval.rescale_inplace(ct);
            for (auto &v : mirror) v *= v;
            break;
          }
          default: { // rotate by +-1 or 2
            long step = prng.uniform(2) ? 1 : (prng.uniform(2) ? 2 : -1);
            ct = eval.rotate(ct, step, gk);
            std::vector<cdouble> next(ns);
            for (std::size_t i = 0; i < ns; ++i) {
                long src = (static_cast<long>(i) + step) %
                           static_cast<long>(ns);
                if (src < 0) src += static_cast<long>(ns);
                next[i] = mirror[static_cast<std::size_t>(src)];
            }
            mirror = std::move(next);
            break;
          }
        }
        if (ct.num_limbs() < 2) break; // out of levels: stop early
    }
    check("end of random program", 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramTest,
    ::testing::Values(ParamCase{10, 5, 30, 0, 1},
                      ParamCase{11, 6, 35, 0, 1},
                      ParamCase{11, 6, 35, 3, 2},
                      ParamCase{12, 7, 40, 0, 1},
                      ParamCase{12, 8, 35, 4, 2},
                      ParamCase{10, 8, 30, 2, 4}));

} // namespace
} // namespace poseidon
