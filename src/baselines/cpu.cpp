#include "baselines/cpu.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/check.h"

namespace poseidon::baselines {

namespace {

/// Fastest of `reps` runs of `fn`; `setup`, when given, runs untimed
/// before each one.
double
time_best_of(int reps, const std::function<void()> &fn,
             const std::function<void()> &setup = {})
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        if (setup)
            setup();
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

} // namespace

CpuOpTimes
CpuBaseline::measure(const CkksParams &params, int reps)
{
    auto ctx = make_ckks_context(params);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();
    GaloisKeys gk = keygen.make_galois_keys({1});

    std::size_t slots = ctx->slots();
    std::vector<cdouble> z(slots, cdouble(0.5, 0.25));
    std::size_t limbs = params.L;
    Plaintext pt = encoder.encode(z, limbs);
    Ciphertext ct = encryptor.encrypt(pt);
    Ciphertext ct2 = encryptor.encrypt(pt);

    CpuOpTimes t;
    t.hadd = time_best_of(reps, [&] { (void)eval.add(ct, ct2); });
    t.pmult = time_best_of(reps, [&] { (void)eval.mul_plain(ct, pt); });
    // mul leaves its product over QP; the ModDown completes the
    // relinearization, as it did when mul ran it itself.
    t.cmult = time_best_of(reps, [&] {
        (void)eval.mod_down(eval.mul(ct, ct2, relin));
    });
    // Each rep runs INTT + NTT on a fresh copy; report one transform.
    RnsPoly p = ct.c0;
    t.ntt = time_best_of(reps, [&] { p.to_coeff(); p.to_eval(); },
                         [&] { p = ct.c0; }) / 2.0;
    t.keyswitch = time_best_of(reps, [&] {
        (void)eval.keyswitch_core(ct.c1, relin);
    });
    t.rotation = time_best_of(reps, [&] { (void)eval.rotate(ct, 1, gk); });
    Ciphertext c = ct;
    t.rescale = time_best_of(
        reps, [&] { eval.rescale_inplace(c); }, [&] { c = ct; });
    return t;
}

} // namespace poseidon::baselines
