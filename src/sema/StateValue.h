//===- sema/StateValue.h - Encoded IR values --------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (value, ispoison) pair of Section 3.1, extended with the closed-form
/// is-undef expression of Section 3.7. Aggregates are element-wise vectors
/// of scalar StateValues so each lane carries its own deferred-UB state
/// (the vector bug class of Section 8.2 hinges on this).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SEMA_STATEVALUE_H
#define ALIVE2RE_SEMA_STATEVALUE_H

#include "ir/Type.h"
#include "smt/Expr.h"

#include <vector>

namespace alive::sema {

/// One scalar lane: a bit-vector value, a Bool non-poison flag, and a Bool
/// "may be undef" flag used for the branch-on-undef UB rule.
struct StateValue {
  smt::Expr Val;
  smt::Expr NonPoison;
  smt::Expr IsUndef;

  StateValue() = default;
  StateValue(smt::Expr Val, smt::Expr NonPoison, smt::Expr IsUndef)
      : Val(Val), NonPoison(NonPoison), IsUndef(IsUndef) {}

  static StateValue defined(smt::Expr Val) {
    return StateValue(Val, smt::mkTrue(), smt::mkFalse());
  }
  static StateValue poison(unsigned Width) {
    return StateValue(smt::mkBV(Width, 0), smt::mkFalse(), smt::mkFalse());
  }
};

/// A whole IR value: one lane for scalars, N lanes for vectors/arrays/
/// structs (flattened in index order).
struct EncodedValue {
  std::vector<StateValue> Elems;

  EncodedValue() = default;
  explicit EncodedValue(StateValue SV) : Elems{SV} {}

  unsigned numElems() const { return (unsigned)Elems.size(); }
  const StateValue &scalar() const {
    assert(Elems.size() == 1 && "not a scalar");
    return Elems[0];
  }
  StateValue &scalar() {
    assert(Elems.size() == 1 && "not a scalar");
    return Elems[0];
  }
};

/// Number of scalar lanes a type flattens to (1 for scalars).
unsigned numLanes(const ir::Type *Ty);
/// Type of lane \p I of \p Ty.
const ir::Type *laneType(const ir::Type *Ty, unsigned I);

} // namespace alive::sema

#endif // ALIVE2RE_SEMA_STATEVALUE_H
