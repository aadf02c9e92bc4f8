#include "workloads/workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>

#include "ckks/bootstrap_plan.h"
#include "common/check.h"

namespace poseidon::workloads {

using isa::BasicOp;
using isa::OpShape;
using isa::Trace;

namespace {

/// Matrix-vector product of dimension `dim` via the diagonal method
/// with BSGS: ~2*sqrt(dim) rotations + dim PMult + dim-1 HAdd + one
/// rescale. Charged to the caller's tag.
void
emit_matvec(Trace &t, BasicOpCounts &ops, const OpShape &s, u64 dim,
            BasicOp tag)
{
    u64 n1 = static_cast<u64>(
        std::ceil(std::sqrt(static_cast<double>(dim))));
    u64 nb = (dim + n1 - 1) / n1;
    for (u64 g = 1; g < n1; ++g) {
        isa::emit_rotation(t, s, tag);
        ops.add(BasicOp::Rotation);
    }
    for (u64 d = 0; d < dim; ++d) {
        isa::emit_pmult(t, s, tag);
        ops.add(BasicOp::PMult);
    }
    for (u64 a = 0; a + 1 < dim; ++a) {
        isa::emit_hadd(t, s, tag);
        ops.add(BasicOp::HAdd);
    }
    for (u64 b = 1; b < nb; ++b) {
        isa::emit_rotation(t, s, tag);
        ops.add(BasicOp::Rotation);
    }
    isa::emit_rescale(t, s, tag);
    ops.add(BasicOp::Rescale);
}

/// Packed bootstrap of `slots` slots from the top of `top`'s chain;
/// charged to Bootstrapping.
void
emit_boot(Trace &t, BasicOpCounts &ops, const OpShape &top, u64 slots)
{
    isa::emit_bootstrap(t, top, slots);
    ops.add(BasicOp::Bootstrapping);
}

} // namespace

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
        for (int r = 0; r < 12; ++r) {
            isa::emit_rotation(w.trace, s, BasicOp::Rotation);
            w.ops.add(BasicOp::Rotation);
        }
        for (int c = 0; c < 2; ++c) {
            isa::emit_cmult(w.trace, s, BasicOp::CMult);
            w.ops.add(BasicOp::CMult);
        }
        for (int p = 0; p < 4; ++p) {
            isa::emit_pmult(w.trace, s, BasicOp::PMult);
            w.ops.add(BasicOp::PMult);
        }
        for (int a = 0; a < 6; ++a) {
            isa::emit_hadd(w.trace, s, BasicOp::HAdd);
            w.ops.add(BasicOp::HAdd);
        }
        for (int rs = 0; rs < 2; ++rs) {
            isa::emit_rescale(w.trace, s, BasicOp::Rescale);
            w.ops.add(BasicOp::Rescale);
        }
    }
    // Two bootstraps across the 10 iterations.
    emit_boot(w.trace, w.ops, top, /*slots=*/top.n / 2);
    emit_boot(w.trace, w.ops, top, /*slots=*/top.n / 2);
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

    for (int step = 0; step < 50; ++step) {
        emit_matvec(w.trace, w.ops, s, 128, BasicOp::Rotation);
        emit_matvec(w.trace, w.ops, s, 128, BasicOp::Rotation);
        isa::emit_hadd(w.trace, s, BasicOp::HAdd);
        w.ops.add(BasicOp::HAdd);
        // Cubic activation: two CMult + rescales.
        for (int c = 0; c < 2; ++c) {
            isa::emit_cmult(w.trace, s, BasicOp::CMult);
            w.ops.add(BasicOp::CMult);
            isa::emit_rescale(w.trace, s, BasicOp::Rescale);
            w.ops.add(BasicOp::Rescale);
        }
        emit_boot(w.trace, w.ops, bootShape, kLstmSlots);
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

    for (int layer = 0; layer < 20; ++layer) {
        // Convolution lowered to shifted multiply-accumulate: a 3x3
        // kernel over packed channels — 9 rotations with per-tap
        // plaintext weights, accumulated, plus channel mixing.
        for (int tap = 0; tap < 9; ++tap) {
            isa::emit_rotation(w.trace, s, BasicOp::Rotation);
            w.ops.add(BasicOp::Rotation);
            isa::emit_pmult(w.trace, s, BasicOp::PMult);
            w.ops.add(BasicOp::PMult);
            isa::emit_hadd(w.trace, s, BasicOp::HAdd);
            w.ops.add(BasicOp::HAdd);
        }
        emit_matvec(w.trace, w.ops, s, 64, BasicOp::Rotation);
        // Square activation.
        isa::emit_cmult(w.trace, s, BasicOp::CMult);
        w.ops.add(BasicOp::CMult);
        isa::emit_rescale(w.trace, s, BasicOp::Rescale);
        w.ops.add(BasicOp::Rescale);
        // Bootstrap every other layer.
        if (layer % 2 == 1) {
            emit_boot(w.trace, w.ops, top, /*slots=*/u64(1) << 14);
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
    emit_boot(w.trace, w.ops, s, /*slots=*/top.n / 2);
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

/// Accepted spellings, canonicalized, mapped to the canonical display
/// name — the search space for near-miss suggestions.
const std::vector<std::pair<std::string, std::string>>&
accepted_spellings()
{
    static const std::vector<std::pair<std::string, std::string>> kMap =
        {
            {"lr", "LR"},
            {"helr", "LR"},
            {"lstm", "LSTM"},
            {"resnet20", "ResNet-20"},
            {"resnet", "ResNet-20"},
            {"packedbootstrapping", "Packed Bootstrapping"},
            {"bootstrapping", "Packed Bootstrapping"},
            {"bootstrap", "Packed Bootstrapping"},
        };
    return kMap;
}

/// Closest known workload for a misspelled `key` (canonical form), or
/// empty when nothing is plausibly close. The threshold scales with
/// the candidate length so "lstn" suggests LSTM but "foo" stays quiet.
std::string
suggest_workload(const std::string &key)
{
    std::string best;
    std::size_t bestDist = std::string::npos;
    for (const auto &[spelling, display] : accepted_spellings()) {
        std::size_t d = edit_distance(key, spelling);
        std::size_t budget = std::max<std::size_t>(
            1, std::min(key.size(), spelling.size()) / 3);
        if (d <= budget && d < bestDist) {
            bestDist = d;
            best = display;
        }
    }
    return best;
}

} // namespace

Workload
find_workload(const std::string &name)
{
    std::string key = canonical(name);
    OpShape s = paper_shape();
    if (key == "lr" || key == "helr") return make_lr(s);
    if (key == "lstm") return make_lstm(s);
    if (key == "resnet20" || key == "resnet") return make_resnet20(s);
    if (key == "packedbootstrapping" || key == "bootstrapping" ||
        key == "bootstrap") {
        return make_packed_bootstrapping(s);
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
