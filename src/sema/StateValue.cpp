//===- sema/StateValue.cpp - Encoded IR values --------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sema/StateValue.h"

#include <cassert>

using namespace alive;
using namespace alive::sema;

unsigned sema::numLanes(const ir::Type *Ty) {
  if (!Ty->isAggregate())
    return 1;
  unsigned N = 0;
  for (unsigned I = 0; I < Ty->numElements(); ++I)
    N += numLanes(Ty->elementType(I));
  return N;
}

const ir::Type *sema::laneType(const ir::Type *Ty, unsigned Lane) {
  if (!Ty->isAggregate()) {
    assert(Lane == 0 && "lane out of range");
    return Ty;
  }
  for (unsigned I = 0; I < Ty->numElements(); ++I) {
    unsigned N = numLanes(Ty->elementType(I));
    if (Lane < N)
      return laneType(Ty->elementType(I), Lane);
    Lane -= N;
  }
  assert(false && "lane out of range");
  return nullptr;
}
