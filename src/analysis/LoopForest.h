//===- analysis/LoopForest.h - Tarjan-Havlak loop nesting -------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop nesting forest via the Havlak refinement of Tarjan's interval
/// analysis — the algorithm Section 7 of the paper names for recognizing
/// loops and their nesting before unrolling. Irreducible regions are
/// detected and flagged (the validator reports functions containing them as
/// unsupported rather than risking a wrong unroll).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_ANALYSIS_LOOPFOREST_H
#define ALIVE2RE_ANALYSIS_LOOPFOREST_H

#include "analysis/Cfg.h"

#include <memory>
#include <unordered_set>

namespace alive::analysis {

/// One natural loop. Blocks includes the header and the blocks of nested
/// loops.
struct Loop {
  ir::BasicBlock *Header = nullptr;
  Loop *Parent = nullptr;
  std::vector<Loop *> Children;
  std::unordered_set<ir::BasicBlock *> Blocks;
  /// Sources of back edges into the header.
  std::vector<ir::BasicBlock *> Latches;
  bool Irreducible = false;

  bool contains(const ir::BasicBlock *BB) const {
    return Blocks.count(const_cast<ir::BasicBlock *>(BB)) != 0;
  }
  /// Depth in the nesting forest (top-level loops have depth 1).
  unsigned depth() const {
    unsigned D = 0;
    for (const Loop *L = this; L; L = L->Parent)
      ++D;
    return D;
  }
};

/// The loop nesting forest of a function.
class LoopForest {
public:
  explicit LoopForest(const Cfg &G);

  const std::vector<Loop *> &topLevel() const { return TopLevel; }
  /// Innermost loop containing \p BB, or null.
  Loop *loopFor(const ir::BasicBlock *BB) const;
  unsigned numLoops() const { return (unsigned)Loops.size(); }
  bool hasIrreducible() const { return Irreducible; }

  /// All loops in post-order of the nesting forest (innermost first) — the
  /// order the unroller processes them (Section 7).
  std::vector<Loop *> postOrder() const;

private:
  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Loop *> TopLevel;
  std::unordered_map<const ir::BasicBlock *, Loop *> Innermost;
  bool Irreducible = false;
};

} // namespace alive::analysis

#endif // ALIVE2RE_ANALYSIS_LOOPFOREST_H
