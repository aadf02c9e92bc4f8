#ifndef POSEIDON_WORKLOADS_WORKLOADS_H_
#define POSEIDON_WORKLOADS_WORKLOADS_H_

/**
 * @file
 * The paper's four evaluation benchmarks (Table V) as operator traces.
 *
 * Each generator builds the operation mix the workload structure
 * implies, priced as the library runs it: matrix-vector products and
 * convolutions as hoisted BSGS transform stages
 * (isa::emit_linear_transform, the bootstrap's own), polynomial
 * activations as fused CMult + rescales, and packed bootstraps, at the
 * paper's full-scale parameters (N = 2^16). The functional counterparts
 * at small N live in the examples/ directory; the traces here feed the
 * hardware model.
 */

#include <string>
#include <vector>

#include "isa/compiler.h"

namespace poseidon::workloads {

/// One benchmark: its trace plus bookkeeping.
struct Workload
{
    std::string name;
    std::string description;
    isa::Trace trace;
    u64 bootstrapCount = 0;
    /// Divide total time by this to get the paper's reported metric
    /// (e.g. LR reports the average per training iteration).
    u64 reportDivisor = 1;
};

/// HELR logistic regression: 10 iterations, 2 bootstraps, L=38 depth.
Workload make_lr(const isa::OpShape &top);

/// LSTM inference: 50 time steps of y = sigma(W0 y + W1 x) with
/// 128x128 weights; one (thin) bootstrap per step.
Workload make_lstm(const isa::OpShape &top);

/// ResNet-20 inference: 20 convolution layers lowered to rotation-
/// heavy matrix products plus polynomial activations and bootstraps.
Workload make_resnet20(const isa::OpShape &top);

/// A single fully packed bootstrapping (L: 3 -> 57).
Workload make_packed_bootstrapping(const isa::OpShape &top);

/// All four, at the paper's scale (N = 2^16).
std::vector<Workload> paper_benchmarks();

/// Canonical names accepted by find_workload (the Workload::name of
/// each paper benchmark, in paper_benchmarks() order).
std::vector<std::string> workload_names();

/// Look a paper benchmark up by name, case- and punctuation-
/// insensitively ("lr", "LSTM", "resnet-20", "packed_bootstrapping",
/// "bootstrapping", ...). Throws poseidon::InvalidArgument on an
/// unknown name, listing the valid ones and suggesting the closest
/// accepted spelling when the input looks like a typo ("lstn" ->
/// `did you mean "LSTM"?`).
Workload find_workload(const std::string &name);

/// The paper-scale shape: N = 2^16, 44 limbs, dnum = 4 digits and
/// K = 11 special primes.
isa::OpShape paper_shape();

} // namespace poseidon::workloads

#endif // POSEIDON_WORKLOADS_WORKLOADS_H_
