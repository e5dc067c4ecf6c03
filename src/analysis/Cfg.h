//===- analysis/Cfg.h - CFG helpers -----------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow-graph utilities over ir::Function: predecessor lists,
/// reverse post-order, and reachability. Alive2 computes these itself
/// rather than trusting the compiler under test (Section 8.1); so do we.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_ANALYSIS_CFG_H
#define ALIVE2RE_ANALYSIS_CFG_H

#include "ir/Function.h"

#include <unordered_map>

namespace alive::analysis {

/// Immutable CFG snapshot of a function. Invalidated by any CFG edit.
class Cfg {
public:
  explicit Cfg(const ir::Function &F);

  const ir::Function &function() const { return F; }

  const std::vector<ir::BasicBlock *> &preds(const ir::BasicBlock *BB) const;

  /// Blocks reachable from entry, in reverse post-order (entry first).
  const std::vector<ir::BasicBlock *> &rpo() const { return Rpo; }
  /// Position of \p BB in the RPO, or ~0u if unreachable.
  unsigned rpoIndex(const ir::BasicBlock *BB) const;
  bool isReachable(const ir::BasicBlock *BB) const {
    return rpoIndex(BB) != ~0u;
  }

private:
  const ir::Function &F;
  std::unordered_map<const ir::BasicBlock *, std::vector<ir::BasicBlock *>>
      Preds;
  std::vector<ir::BasicBlock *> Rpo;
  std::unordered_map<const ir::BasicBlock *, unsigned> RpoIndex;
  std::vector<ir::BasicBlock *> Empty;
};

} // namespace alive::analysis

#endif // ALIVE2RE_ANALYSIS_CFG_H
