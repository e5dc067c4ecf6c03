//===- opt/Pass.h - Optimizer pass framework --------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer substrate: a pass interface, a registry keyed by pass
/// name, and a pass manager with a translation-validation hook that is
/// invoked with the before/after function pair around every pass — the
/// analog of Alive2's opt plugin with -tv (Section 8.1). The hook can be
/// batched: the manager also supports validating once around a whole
/// pipeline (the batching mode of Section 8.4).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_OPT_PASS_H
#define ALIVE2RE_OPT_PASS_H

#include "ir/Function.h"

#include <functional>
#include <memory>

namespace alive::opt {

/// A function transformation pass.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  /// \returns true if the function changed.
  virtual bool run(ir::Function &F) = 0;
};

/// Creates a pass by name; null if unknown. Known names:
///   instcombine, instsimplify, constfold, dce, simplifycfg, gvn
/// and the deliberately buggy variants (reproducing the Section 8.2 bug
/// classes):
///   bug-undef-fold, bug-select-arith, bug-branch-on-undef, bug-vector,
///   bug-arith, bug-fastmath, bug-bitcast-nan, bug-dse, bug-call-dup
std::unique_ptr<Pass> createPass(const std::string &Name);

/// The default -O2-style pipeline used by the application experiment.
std::vector<std::string> defaultPipeline();

/// Called around each pass: (before, after, passName).
using TVHook = std::function<void(const ir::Function &, const ir::Function &,
                                  const std::string &)>;

/// Runs the named passes over every defined function of \p M.
/// With \p Hook non-null and \p Batch false, the hook runs after every pass
/// that changed the function; with \p Batch true it runs once per function
/// around the whole pipeline.
void runPipeline(ir::Module &M, const std::vector<std::string> &PassNames,
                 const TVHook &Hook = nullptr, bool Batch = false);

// --- Utilities shared by passes -------------------------------------------

/// Replaces every use of \p From with \p To in \p F (operands and phis).
void replaceAllUses(ir::Function &F, ir::Value *From, ir::Value *To);

/// Walks \p F's instructions applying \p Rewrite(F, BB, Idx, I). When it
/// returns a value other than null or I, I's uses are redirected to it and
/// I is erased, unless I is a terminator, which stays.
template <typename Fn> bool rewriteInstructions(ir::Function &F, Fn Rewrite) {
  bool Changed = false;
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
    ir::BasicBlock *BB = F.block(BI);
    for (unsigned Idx = 0; Idx < BB->size(); ++Idx) {
      ir::Instr *I = BB->instr(Idx);
      ir::Value *New = Rewrite(F, BB, Idx, I);
      if (!New || New == I)
        continue;
      replaceAllUses(F, I, New);
      if (!I->isTerminator()) {
        // Re-find the index: the rewrite may have inserted instructions.
        for (unsigned K = 0; K < BB->size(); ++K)
          if (BB->instr(K) == I) {
            BB->erase(K);
            break;
          }
        --Idx;
      }
      Changed = true;
    }
  }
  return Changed;
}

/// Removes instructions with no uses and no side effects. \returns count.
unsigned removeDeadInstructions(ir::Function &F);

} // namespace alive::opt

#endif // ALIVE2RE_OPT_PASS_H
