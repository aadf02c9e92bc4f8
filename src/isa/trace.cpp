#include "isa/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/modmath.h"

namespace poseidon::isa {

const char*
to_string(OpKind k)
{
    switch (k) {
      case OpKind::MA: return "MA";
      case OpKind::MM: return "MM";
      case OpKind::NTT: return "NTT";
      case OpKind::INTT: return "INTT";
      case OpKind::AUTO: return "Auto";
      case OpKind::SBT: return "SBT";
      case OpKind::HBM_RD: return "HBM_RD";
      case OpKind::HBM_WR: return "HBM_WR";
    }
    return "?";
}

const char*
to_string(BasicOp b)
{
    switch (b) {
      case BasicOp::HAdd: return "HAdd";
      case BasicOp::PMult: return "PMult";
      case BasicOp::CMult: return "CMult";
      case BasicOp::Rescale: return "Rescale";
      case BasicOp::ModUp: return "ModUp";
      case BasicOp::ModDown: return "ModDown";
      case BasicOp::Keyswitch: return "Keyswitch";
      case BasicOp::Rotation: return "Rotation";
      case BasicOp::Conjugate: return "Conjugate";
      case BasicOp::NttOnly: return "NTT";
      case BasicOp::Bootstrapping: return "Bootstrapping";
      case BasicOp::Other: return "Other";
    }
    return "?";
}

OpCounts&
OpCounts::operator+=(const OpCounts &o)
{
    for (std::size_t i = 0; i < elems.size(); ++i) elems[i] += o.elems[i];
    return *this;
}

u64
OpCounts::hbm_words() const
{
    return (*this)[OpKind::HBM_RD] + (*this)[OpKind::HBM_WR];
}

u64
OpCounts::compute_elems() const
{
    u64 total = 0;
    for (std::size_t i = 0; i < elems.size(); ++i) total += elems[i];
    return total - hbm_words();
}

namespace {

/// What Trace::validate rejects: no elements, or an NTT/INTT/AUTO
/// whose degree is not a power of two >= 2.
bool
malformed(const Instr &in)
{
    if (in.elems < 1) return true;
    bool perPoly = in.kind == OpKind::NTT || in.kind == OpKind::INTT ||
                   in.kind == OpKind::AUTO;
    return perPoly && !(in.degree >= 2 && is_pow2(in.degree));
}

} // namespace

void
Trace::fold(const Instr &in)
{
    for (u64 v : {static_cast<u64>(in.kind), in.elems, in.degree,
                  static_cast<u64>(in.tag)}) {
        fingerprint_ = fingerprint_step(fingerprint_, v);
    }
    maxDegree_ = std::max(maxDegree_, in.degree);
    if (firstMalformed_ == kNone && malformed(in)) {
        firstMalformed_ = instrs_.size();
    }
}

void
Trace::emit(OpKind kind, u64 elems, u64 degree, BasicOp tag)
{
    if (elems == 0) return;
    Instr in{kind, elems, degree, tag};
    fold(in);
    instrs_.push_back(in);
}

void
Trace::append(const Trace &o)
{
    // By index and by value: `o` may be this trace.
    const std::size_t n = o.instrs_.size();
    for (std::size_t j = 0; j < n; ++j) {
        Instr in = o.instrs_[j];
        fold(in);
        instrs_.push_back(in);
    }
}

void
Trace::repeat(u64 times)
{
    POSEIDON_REQUIRE(times >= 1, "Trace::repeat: times must be >= 1");
    const std::size_t n = instrs_.size();
    instrs_.reserve(n * times);
    for (u64 i = 1; i < times; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            Instr in = instrs_[j];
            fold(in);
            instrs_.push_back(in);
        }
    }
}

OpCounts
Trace::totals() const
{
    OpCounts c;
    for (const auto &in : instrs_) c[in.kind] += in.elems;
    return c;
}

std::map<BasicOp, OpCounts>
Trace::totals_by_tag() const
{
    std::map<BasicOp, OpCounts> m;
    for (const auto &in : instrs_) m[in.tag][in.kind] += in.elems;
    return m;
}

void
Trace::validate() const
{
    if (firstMalformed_ == kNone) return;
    // A malformed instruction fails exactly one of the two checks.
    const std::size_t i = firstMalformed_;
    const Instr &in = instrs_[i];
    POSEIDON_REQUIRE(in.elems >= 1,
                     "Trace::validate: instr " << i << " ("
                     << to_string(in.kind)
                     << ") has zero elements");
    POSEIDON_REQUIRE(in.degree >= 2 && is_pow2(in.degree),
                     "Trace::validate: instr " << i << " ("
                     << to_string(in.kind) << ") degree "
                     << in.degree
                     << " is not a power of two >= 2");
}

bool
Trace::uses(BasicOp b, OpKind k) const
{
    for (const auto &in : instrs_) {
        if (in.tag == b && in.kind == k && in.elems > 0) return true;
    }
    return false;
}

} // namespace poseidon::isa
