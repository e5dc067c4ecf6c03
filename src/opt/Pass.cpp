//===- opt/Pass.cpp - Optimizer pass framework --------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"
#include "opt/Passes.h"

#include <unordered_set>

using namespace alive;
using namespace alive::opt;
using namespace alive::ir;

void opt::replaceAllUses(Function &F, Value *From, Value *To) {
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
    for (const auto &I : *F.block(BI))
      for (unsigned OpIdx = 0; OpIdx < I->numOps(); ++OpIdx)
        if (I->op(OpIdx) == From)
          I->setOp(OpIdx, To);
}

static bool hasSideEffects(const Instr *I) {
  switch (I->kind()) {
  case ValueKind::Store:
  case ValueKind::Call:
  case ValueKind::Load: // loads can trap (OOB is UB): keep them
  case ValueKind::Alloca:
    return true;
  default:
    return I->isTerminator();
  }
}

/// Division and remainder can trap; removing them would *reduce* UB, which
/// is a legal refinement, so DCE may drop them when unused. (LLVM agrees.)
unsigned opt::removeDeadInstructions(Function &F) {
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::unordered_set<const Value *> Used;
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
      for (const auto &I : *F.block(BI))
        for (unsigned OpIdx = 0; OpIdx < I->numOps(); ++OpIdx)
          Used.insert(I->op(OpIdx));
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BasicBlock *BB = F.block(BI);
      for (unsigned Idx = BB->size(); Idx-- > 0;) {
        Instr *I = BB->instr(Idx);
        if (hasSideEffects(I) || Used.count(I))
          continue;
        BB->erase(Idx);
        ++Removed;
        Changed = true;
      }
    }
  }
  return Removed;
}

std::vector<std::string> opt::defaultPipeline() {
  return {"instsimplify", "instcombine", "constfold",
          "gvn",          "dce",         "simplifycfg"};
}

std::unique_ptr<Pass> opt::createPass(const std::string &Name) {
  if (Name == "instcombine")
    return createInstCombine();
  if (Name == "instsimplify")
    return createInstSimplify();
  if (Name == "constfold")
    return createConstFold();
  if (Name == "dce")
    return createDce();
  if (Name == "simplifycfg")
    return createSimplifyCfg();
  if (Name == "gvn")
    return createGvn();
  if (Name == "slp")
    return createSlp(false);
  if (Name == "bug-slp-nsw")
    return createSlp(true);
  if (Name.rfind("bug-", 0) == 0)
    return createBuggyPass(Name);
  return nullptr;
}

void opt::runPipeline(Module &M, const std::vector<std::string> &PassNames,
                      const TVHook &Hook, bool Batch) {
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    Function *F = M.function(FI);
    if (F->isDeclaration())
      continue;
    std::unique_ptr<Function> Before = Batch && Hook ? F->clone() : nullptr;
    std::string BatchedNames;
    bool AnyChange = false;
    for (const std::string &Name : PassNames) {
      std::unique_ptr<Pass> P = createPass(Name);
      if (!P)
        continue;
      std::unique_ptr<Function> Prev = !Batch && Hook ? F->clone() : nullptr;
      bool Changed = P->run(*F);
      AnyChange |= Changed;
      if (!Batch && Hook && Changed)
        Hook(*Prev, *F, Name);
      if (Batch) {
        if (!BatchedNames.empty())
          BatchedNames += ",";
        BatchedNames += Name;
      }
    }
    if (Batch && Hook && AnyChange)
      Hook(*Before, *F, BatchedNames);
  }
}
