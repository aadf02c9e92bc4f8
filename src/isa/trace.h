#ifndef POSEIDON_ISA_TRACE_H_
#define POSEIDON_ISA_TRACE_H_

/**
 * @file
 * Operator instruction traces and their aggregate statistics.
 *
 * A Trace is the unit of work handed to the hardware simulator. The
 * statistics view answers the paper's analysis questions directly:
 * which operators a basic operation uses (Table I), how the element
 * counts split across operators (Fig. 7), and how much HBM traffic an
 * operation generates.
 */

#include <array>
#include <map>
#include <vector>

#include "isa/op.h"

namespace poseidon::isa {

/// Element counts per operator kind.
struct OpCounts
{
    std::array<u64, 8> elems = {}; ///< indexed by OpKind

    u64& operator[](OpKind k) { return elems[static_cast<int>(k)]; }
    u64 operator[](OpKind k) const { return elems[static_cast<int>(k)]; }

    OpCounts& operator+=(const OpCounts &o);

    /// Total words moved through HBM.
    u64 hbm_words() const;

    /// Total compute elements (everything except HBM transfers).
    u64 compute_elems() const;
};

/// Trace::fingerprint() is FNV-1a: it starts at kFingerprintBasis and
/// folds the kind, elems, degree and tag of every instruction in turn
/// with fingerprint_step.
constexpr u64 kFingerprintBasis = 1469598103934665603ULL;

constexpr u64
fingerprint_step(u64 h, u64 v)
{
    return (h ^ v) * 1099511628211ULL;
}

/**
 * A sequence of operator instructions. Its fingerprint, largest ring
 * degree and first malformed instruction are folded in as emit(),
 * append() and repeat() build it, so reading them (and validate())
 * never walks the trace.
 */
class Trace
{
  public:
    void emit(OpKind kind, u64 elems, u64 degree, BasicOp tag);

    /// Append another trace.
    void append(const Trace &o);

    /// Repeat this trace's contents `times` times (in place).
    void repeat(u64 times);

    const std::vector<Instr>& instrs() const { return instrs_; }
    bool empty() const { return instrs_.empty(); }
    std::size_t size() const { return instrs_.size(); }

    /// FNV-1a over (kind, elems, degree, tag) of every instruction, in
    /// order (kFingerprintBasis for an empty trace). Equal traces have
    /// equal fingerprints; unequal ones may collide.
    u64 fingerprint() const { return fingerprint_; }

    /// Largest ring degree of any instruction (0 for an empty trace).
    u64 max_degree() const { return maxDegree_; }

    /// Aggregate element counts over the whole trace.
    OpCounts totals() const;

    /// Aggregate element counts per basic-operation tag.
    std::map<BasicOp, OpCounts> totals_by_tag() const;

    /// True iff the trace contains at least one instruction of `k`
    /// under tag `b` — reproduces the checkmarks of Table I.
    bool uses(BasicOp b, OpKind k) const;

    /**
     * Structural validation before replay: every NTT/INTT/AUTO
     * instruction must carry a power-of-two degree >= 2 (the per-poly
     * cost models divide by it). Throws poseidon::InvalidArgument on
     * the first malformed instruction.
     */
    void validate() const;

  private:
    /// Fold `in`, about to be stored at index instrs_.size(), into the
    /// running fingerprint, degree and first-malformed index.
    void fold(const Instr &in);

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::vector<Instr> instrs_;
    u64 fingerprint_ = kFingerprintBasis;
    u64 maxDegree_ = 0;
    std::size_t firstMalformed_ = kNone;
};

} // namespace poseidon::isa

#endif // POSEIDON_ISA_TRACE_H_
