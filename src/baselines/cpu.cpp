#include "baselines/cpu.h"

#include <chrono>
#include <cmath>
#include <functional>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/check.h"

namespace poseidon::baselines {

namespace {

double
time_best_of(int reps, const std::function<void()> &fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
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
    t.ntt = time_best_of(reps, [&] {
        RnsPoly p = ct.c0;
        p.to_coeff();
        p.to_eval();
    }) / 2.0; // the lambda does INTT+NTT; report one transform
    t.keyswitch = time_best_of(reps, [&] {
        (void)eval.keyswitch_core(ct.c1, relin);
    });
    t.rotation = time_best_of(reps, [&] { (void)eval.rotate(ct, 1, gk); });
    t.rescale = time_best_of(reps, [&] {
        Ciphertext c = ct;
        eval.rescale_inplace(c);
    });
    return t;
}

CpuOpTimes
CpuBaseline::scale_to(const CpuOpTimes &measured, const isa::OpShape &from,
                      const isa::OpShape &to)
{
    auto linear = [&](double v) {
        return v * (static_cast<double>(to.n) * to.limbs) /
               (static_cast<double>(from.n) * from.limbs);
    };
    auto nlogn = [&](double v) {
        double a = static_cast<double>(to.n) *
                   std::log2(static_cast<double>(to.n)) * to.limbs;
        double b = static_cast<double>(from.n) *
                   std::log2(static_cast<double>(from.n)) * from.limbs;
        return v * a / b;
    };
    auto kswitch = [&](double v) {
        double a = static_cast<double>(to.digits()) * to.ext_limbs() *
                   to.n * std::log2(static_cast<double>(to.n));
        double b = static_cast<double>(from.digits()) *
                   from.ext_limbs() * from.n *
                   std::log2(static_cast<double>(from.n));
        return v * a / b;
    };

    CpuOpTimes t;
    t.hadd = linear(measured.hadd);
    t.pmult = linear(measured.pmult);
    t.rescale = linear(measured.rescale);
    t.ntt = nlogn(measured.ntt);
    t.cmult = kswitch(measured.cmult);
    t.keyswitch = kswitch(measured.keyswitch);
    t.rotation = kswitch(measured.rotation);
    return t;
}

} // namespace poseidon::baselines
