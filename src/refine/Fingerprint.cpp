//===- refine/Fingerprint.cpp - Verification-pair fingerprints ---------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/Fingerprint.h"
#include "ir/Printer.h"
#include "support/QueryCache.h"

#include <cstring>

using namespace alive;
using namespace alive::refine;
using support::FpHasher;

namespace {

/// Doubles participate by bit pattern: the key must be exact, not
/// approximate (a different timeout is a different task).
uint64_t bits(double D) {
  uint64_t W;
  std::memcpy(&W, &D, sizeof(W));
  return W;
}

constexpr uint64_t TagPair = 0x50414952; // "PAIR"

} // namespace

support::Fingerprint refine::fingerprintPair(const ir::Function &Src,
                                             const ir::Function &Tgt,
                                             const ir::Module *M,
                                             const Options &Opts) {
  FpHasher H(TagPair);
  // Persisted fingerprints must not outlive the encoding that produced the
  // cached verdicts; the store version is part of every key.
  H.u64(support::QueryCache::FormatVersion);

  H.str(ir::printFunction(Src));
  H.str(ir::printFunction(Tgt));

  // Globals shape MemoryLayout::compute; declaration order is canonical
  // already (the printer emits them in module order, and the parser
  // preserves it).
  H.u64(M ? M->numGlobals() : 0);
  if (M)
    for (unsigned I = 0; I < M->numGlobals(); ++I) {
      const ir::GlobalVar *G = M->global(I);
      H.str(G->name());
      H.str(G->valueType()->str());
      H.u64(G->isConstant());
    }

  // Every semantics-affecting option, in fixed declaration order. The
  // budget is included too: a Timeout-free verdict obtained under one
  // budget is not evidence about another (and the satellite invalidation
  // tests change exactly these fields).
  H.u64(Opts.UnrollFactor);
  H.u64(Opts.EquivalenceMode);
  H.u64(Opts.UseInstantiationSeeds);
  H.u64(bits(Opts.Budget.TimeoutSec));
  H.u64(Opts.Budget.MaxLiterals);
  H.u64(Opts.Budget.MaxConflicts);
  return H.done();
}
