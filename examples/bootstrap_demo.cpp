// Bootstrapping demo: compute until the modulus chain is exhausted,
// refresh the ciphertext with packed bootstrapping, and keep going —
// the unbounded-depth capability that distinguishes Poseidon from
// non-bootstrapping accelerators.
//
// Build & run:  ./examples/bootstrap_demo   (takes a few seconds: it
// encodes the transform stages and generates their rotation keys)

#include <cmath>
#include <cstdio>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"

using namespace poseidon;

int
main()
{
    CkksParams params;
    params.logN = 10;   // small ring: demo-sized keys
    params.L = 24;      // enough chain for EvalMod + margin
    params.scaleBits = 40;
    params.firstPrimeBits = 45;
    params.specialPrimeBits = 50;
    auto ctx = make_ckks_context(params);

    KeyGenerator keygen(ctx);
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.make_public_key());
    CkksDecryptor decryptor(ctx, keygen.secret_key());
    CkksEvaluator eval(ctx);
    KSwitchKey relin = keygen.make_relin_key();

    std::printf("Building bootstrapper (encoded %zu-slot transform "
                "stages + rotation keys)...\n", ctx->slots());
    Bootstrapper boot(ctx, encoder, keygen);
    std::printf("One bootstrap consumes %zu levels of the %zu-prime "
                "chain.\n", boot.plan().levels(), params.L);

    // The stages one bootstrap runs; the transforms are encoded once,
    // at construction.
    const BootstrapPlan &plan = boot.plan();
    auto print_stages = [](const char *name,
                           const std::vector<BootstrapPlan::Stage> &st) {
        for (std::size_t i = 0; i < st.size(); ++i) {
            std::printf("  %s stage %zu: %3zu diagonals, %2zu hoisted + "
                        "%2zu giant rotations, %zu ModDowns, %2zu limbs, "
                        "%5.2f MB\n",
                        name, i + 1, st[i].diagonals, st[i].babySteps,
                        st[i].giantSteps, st[i].modDowns, st[i].limbs,
                        st[i].bytes / 1e6);
        }
    };
    print_stages("CoeffToSlot", plan.coeffToSlot);
    print_stages("SlotToCoeff", plan.slotToCoeff);
    std::printf("  EvalMod: %zu relinearizations + %zu conjugations, "
                "%zu levels\n", plan.evalMod.relinearizations,
                plan.evalMod.conjugations, plan.evalMod.levels);
    std::printf("  plaintext tables: %.2f MB; one bootstrap runs %zu "
                "plaintext mults, %zu keyswitches and %zu ModDowns\n\n",
                plan.table_bytes() / 1e6, plan.plain_mults(),
                plan.keyswitches(), plan.mod_downs());

    // Encrypt x = 0.9 in every slot, bottom of the chain.
    std::vector<cdouble> x(ctx->slots(), cdouble(0.9, 0.0));
    Ciphertext ct = encryptor.encrypt(encoder.encode(x, 1));
    double expect = 0.9;

    auto report = [&](const char *what) {
        auto v = encoder.decode(decryptor.decrypt(ct));
        std::printf("%-22s level=%2zu  slot0=%.5f  expected=%.5f  "
                    "err=%.1e\n", what, ct.level(), v[0].real(), expect,
                    std::abs(v[0].real() - expect));
    };

    report("fresh (bottom level)");
    std::printf("-> no multiplications possible at level 0; "
                "bootstrapping...\n");

    ct = boot.bootstrap(ct, eval);
    report("after bootstrap");

    // Now we can multiply again.
    while (ct.num_limbs() > 1) {
        ct = eval.square(ct, relin);
        eval.rescale_inplace(ct);
        expect *= expect;
        report("after square+rescale");
    }

    std::printf("-> chain exhausted again; bootstrapping once more...\n");
    ct = boot.bootstrap(ct, eval);
    report("after 2nd bootstrap");

    ct = eval.square(ct, relin);
    eval.rescale_inplace(ct);
    expect *= expect;
    report("one more square");

    auto v = encoder.decode(decryptor.decrypt(ct));
    bool ok = std::abs(v[0].real() - expect) < 0.05;
    std::printf("\n%s unbounded-depth computation via bootstrapping.\n",
                ok ? "OK:" : "FAILED:");
    return ok ? 0 : 1;
}
