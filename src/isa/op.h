#ifndef POSEIDON_ISA_OP_H_
#define POSEIDON_ISA_OP_H_

/**
 * @file
 * The Poseidon operator ISA.
 *
 * The paper's central idea is that every CKKS basic operation
 * decomposes into five reusable operators — Modular Addition (MA),
 * Modular Multiplication (MM), NTT/INTT, Automorphism, and Shared
 * Barrett Reduction (SBT) — plus explicit HBM transfers. This header
 * defines those operators as an instruction set; the compiler lowers
 * basic operations to instruction traces and the hw/ simulator prices
 * them in cycles, bytes and energy.
 */

#include <cstdint>
#include <string>

#include "common/modmath.h"

namespace poseidon::isa {

/// The five Poseidon operators plus HBM transfer pseudo-ops.
enum class OpKind : std::uint8_t {
    MA,      ///< element-wise modular addition
    MM,      ///< element-wise modular multiplication (Barrett)
    NTT,     ///< forward number theoretic transform
    INTT,    ///< inverse number theoretic transform
    AUTO,    ///< automorphism (coordinate permutation)
    SBT,     ///< standalone shared Barrett reduction
    HBM_RD,  ///< read words from HBM into the scratchpad
    HBM_WR,  ///< write words back to HBM
};

/// The FHE basic operations of the paper's Section II (trace tags).
enum class BasicOp : std::uint8_t {
    HAdd,
    PMult,
    CMult,
    Rescale,
    ModUp,
    ModDown,
    Keyswitch,
    Rotation,
    Conjugate,
    NttOnly,      ///< standalone NTT benchmark op
    Bootstrapping,
    Other, ///< stays last: hw::TagValues sizes its arrays by it
};

/// One operator instruction.
struct Instr
{
    OpKind kind;
    /// Scalar elements processed (for NTT/INTT/AUTO: total points,
    /// i.e. limbs * N; for HBM ops: words moved).
    u64 elems;
    /// Ring degree backing this op (needed for NTT phase counts and
    /// automorphism sub-vector math); 0 for pure element-wise ops.
    u64 degree;
    /// Which basic operation emitted this instruction.
    BasicOp tag;

    bool operator==(const Instr &) const = default;
};

const char* to_string(OpKind k);
const char* to_string(BasicOp b);

} // namespace poseidon::isa

#endif // POSEIDON_ISA_OP_H_
