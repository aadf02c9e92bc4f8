#include "workloads/workloads.h"

#include <algorithm>
#include <cctype>

#include "ckks/bootstrap_plan.h"
#include "common/check.h"

namespace poseidon::workloads {

using isa::OpShape;

isa::OpShape
paper_shape()
{
    OpShape s;
    s.n = u64(1) << 16;
    s.limbs = 44;
    // Benchmarks use hybrid keyswitching with dnum = 4 digit groups
    // and K = ceil(L/dnum) special primes, the standard configuration
    // of bootstrapping-capable RNS-CKKS stacks at this depth.
    s.dnum = 4;
    s.K = 11;
    return s;
}

Workload
make_lr(const isa::OpShape &top)
{
    Workload w;
    w.name = "LR";
    w.description =
        "HELR logistic regression, 10 iterations averaged, L=38 "
        "multiplicative depth, 2 bootstrapping operations";
    OpShape s = top;
    s.limbs = 38;

    for (int iter = 0; iter < 10; ++iter) {
        // Gradient step: inner products over the feature dimension
        // (log-rotations), sigmoid approximation (2 CMult), update.
        for (int r = 0; r < 12; ++r) isa::emit_rotation(w.trace, s);
        for (int c = 0; c < 2; ++c) isa::emit_cmult_rescale(w.trace, s);
        for (int p = 0; p < 4; ++p) isa::emit_pmult(w.trace, s);
        for (int a = 0; a < 6; ++a) isa::emit_hadd(w.trace, s);
    }
    // Two bootstraps across the 10 iterations.
    for (int b = 0; b < 2; ++b) isa::emit_bootstrap(w.trace, top, top.n / 2);
    w.bootstrapCount = 2;
    w.reportDivisor = 10; // the paper reports the per-iteration average
    return w;
}

Workload
make_lstm(const isa::OpShape &top)
{
    Workload w;
    w.name = "LSTM";
    w.description =
        "LSTM inference, 50 steps of y=sigma(W0*y + W1*x) with 128x128 "
        "weights, cubic activation, 50 bootstrapping operations";
    OpShape s = top;
    // The per-step state lives at a low level and is refreshed by a
    // thin bootstrap every step, so step arithmetic is cheap and the
    // keyswitch basis stays small.
    s.limbs = 10;
    s.K = 3;
    // Thin bootstrap: only 128 slots are packed, so EvalMod dominates,
    // and it regenerates only the per-step chain: it runs over that
    // many limbs plus the levels a bootstrap consumes.
    constexpr u64 kLstmSlots = 128;
    OpShape bootShape = top;
    bootShape.K = 5;
    bootShape.limbs =
        s.limbs +
        plan_bootstrap(kLstmSlots, top.limbs, bootShape.K, top.n).levels();

    // W0*y and W1*x: every diagonal of a dense 128x128 matrix, split
    // as the bootstrap's transforms are.
    BootstrapPlan::Stage dense = bsgs_stage(0, 127, 1, s.limbs, s.K, s.n);
    for (int step = 0; step < 50; ++step) {
        isa::emit_linear_transform(w.trace, s, dense);
        isa::emit_linear_transform(w.trace, s, dense);
        isa::emit_hadd(w.trace, s);
        // Cubic activation: two CMult + rescales.
        for (int c = 0; c < 2; ++c) isa::emit_cmult_rescale(w.trace, s);
        isa::emit_bootstrap(w.trace, bootShape, kLstmSlots);
    }
    w.bootstrapCount = 50;
    return w;
}

Workload
make_resnet20(const isa::OpShape &top)
{
    Workload w;
    w.name = "ResNet-20";
    w.description =
        "ResNet-20 FHE inference [28]: 20 convolution layers as "
        "rotation-heavy matrix products, degree-2 polynomial "
        "activations, periodic bootstrapping";
    OpShape s = top;
    s.limbs = 24;

    // Convolution lowered to shifted multiply-accumulate: a 3x3 kernel
    // over packed channels is nine tap diagonals in one giant group,
    // hoisted under one ModUp as examples/encrypted_image_filter.cpp
    // runs them (a tap's slot offset does not change its price); then
    // a dense 64x64 channel mixing.
    BootstrapPlan::Stage taps =
        bsgs_stage(0, 8, 1, s.limbs, s.K, s.n, /*n1=*/9);
    BootstrapPlan::Stage mix = bsgs_stage(0, 63, 1, s.limbs, s.K, s.n);
    for (int layer = 0; layer < 20; ++layer) {
        isa::emit_linear_transform(w.trace, s, taps);
        isa::emit_linear_transform(w.trace, s, mix);
        // Square activation.
        isa::emit_cmult_rescale(w.trace, s);
        // Bootstrap every other layer.
        if (layer % 2 == 1) {
            isa::emit_bootstrap(w.trace, top, /*slots=*/u64(1) << 14);
        }
    }
    w.bootstrapCount = 10;
    return w;
}

Workload
make_packed_bootstrapping(const isa::OpShape &top)
{
    Workload w;
    w.name = "Packed Bootstrapping";
    w.description =
        "Fully packed bootstrapping [30]: refresh a depth-exhausted "
        "ciphertext (L=3) to L=57";
    OpShape s = top;
    s.limbs = 57;
    isa::emit_bootstrap(w.trace, s, /*slots=*/top.n / 2);
    w.bootstrapCount = 1;
    return w;
}

std::vector<Workload>
paper_benchmarks()
{
    OpShape s = paper_shape();
    return {make_lr(s), make_lstm(s), make_resnet20(s),
            make_packed_bootstrapping(s)};
}

std::vector<std::string>
workload_names()
{
    return {"LR", "LSTM", "ResNet-20", "Packed Bootstrapping"};
}

namespace {

/// Lowercase and drop everything but letters and digits, so "LR",
/// "ResNet-20" and "Packed Bootstrapping" match forgiving spellings.
std::string
canonical(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        }
    }
    return out;
}

/// Levenshtein distance between two canonicalized names.
std::size_t
edit_distance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

/// Accepted spellings, canonicalized, with the display name and the
/// generator of the workload each one names.
struct Spelling
{
    const char *key;
    const char *name;
    Workload (*make)(const OpShape &);
};

constexpr Spelling kSpellings[] = {
    {"lr", "LR", make_lr},
    {"helr", "LR", make_lr},
    {"lstm", "LSTM", make_lstm},
    {"resnet20", "ResNet-20", make_resnet20},
    {"resnet", "ResNet-20", make_resnet20},
    {"packedbootstrapping", "Packed Bootstrapping",
     make_packed_bootstrapping},
    {"bootstrapping", "Packed Bootstrapping", make_packed_bootstrapping},
    {"bootstrap", "Packed Bootstrapping", make_packed_bootstrapping},
};

/// Closest known workload for a misspelled `key` (canonical form), or
/// empty when nothing is plausibly close. The threshold scales with
/// the candidate length so "lstn" suggests LSTM but "foo" stays quiet.
std::string
suggest_workload(const std::string &key)
{
    std::string best;
    std::size_t bestDist = std::string::npos;
    for (const Spelling &sp : kSpellings) {
        std::string spelling = sp.key;
        std::size_t d = edit_distance(key, spelling);
        std::size_t budget = std::max<std::size_t>(
            1, std::min(key.size(), spelling.size()) / 3);
        if (d <= budget && d < bestDist) {
            bestDist = d;
            best = sp.name;
        }
    }
    return best;
}

} // namespace

Workload
find_workload(const std::string &name)
{
    std::string key = canonical(name);
    for (const Spelling &sp : kSpellings) {
        if (key == sp.key) return sp.make(paper_shape());
    }
    std::string known;
    for (const std::string &n : workload_names()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    std::string hint = suggest_workload(key);
    if (!hint.empty()) hint = " (did you mean \"" + hint + "\"?)";
    POSEIDON_REQUIRE(false, "unknown workload \"" << name << "\""
                                                  << hint << "; known: "
                                                  << known);
    return {}; // unreachable
}

} // namespace poseidon::workloads
