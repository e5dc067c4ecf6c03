//===- ir/Function.h - Basic blocks, functions and modules ------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Containers for the IR: BasicBlock (an instruction list ending in a
/// terminator), Function (an SSA CFG), and Module (functions + globals +
/// a constant pool). The first block of a function is its entry.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_IR_FUNCTION_H
#define ALIVE2RE_IR_FUNCTION_H

#include "ir/Instr.h"

#include <memory>
#include <unordered_map>

namespace alive::ir {

class Function;

/// A basic block: a named list of instructions whose last instruction is a
/// terminator (once construction finishes).
class BasicBlock {
public:
  explicit BasicBlock(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  Function *parent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  /// Appends and takes ownership.
  Instr *append(Instr *I) {
    I->setParent(this);
    Instrs.emplace_back(I);
    return I;
  }
  /// Inserts before position \p Pos.
  Instr *insert(size_t Pos, Instr *I) {
    I->setParent(this);
    Instrs.emplace(Instrs.begin() + Pos, I);
    return I;
  }
  /// Removes (and destroys) the instruction at position \p Pos.
  void erase(size_t Pos) { Instrs.erase(Instrs.begin() + Pos); }

  size_t size() const { return Instrs.size(); }
  bool empty() const { return Instrs.empty(); }
  Instr *instr(size_t I) const { return Instrs[I].get(); }

  /// The terminator, or null while under construction.
  Instr *terminator() const {
    if (Instrs.empty() || !Instrs.back()->isTerminator())
      return nullptr;
    return Instrs.back().get();
  }

  /// Successor blocks in terminator order (true dest first for br).
  std::vector<BasicBlock *> successors() const;

  // Iteration over raw Instr pointers.
  auto begin() const { return Instrs.begin(); }
  auto end() const { return Instrs.end(); }

private:
  std::string Name;
  Function *Parent = nullptr;
  std::vector<std::unique_ptr<Instr>> Instrs;
};

/// A function: arguments plus a list of basic blocks (first is entry).
/// Functions with no blocks are declarations (unknown bodies).
class Function {
public:
  Function(std::string Name, const Type *RetTy)
      : Name(std::move(Name)), RetTy(RetTy) {}

  const std::string &name() const { return Name; }
  const Type *returnType() const { return RetTy; }

  Argument *addArg(const Type *Ty, std::string ArgName) {
    Args.emplace_back(std::make_unique<Argument>(Ty, std::move(ArgName)));
    return Args.back().get();
  }
  unsigned numArgs() const { return (unsigned)Args.size(); }
  Argument *arg(unsigned I) const { return Args[I].get(); }

  BasicBlock *addBlock(std::string BlockName) {
    Blocks.emplace_back(std::make_unique<BasicBlock>(std::move(BlockName)));
    Blocks.back()->setParent(this);
    return Blocks.back().get();
  }
  /// Inserts a block right after \p After (used by the unroller to keep
  /// unrolled bodies textually adjacent).
  BasicBlock *insertBlockAfter(BasicBlock *After, std::string BlockName);
  unsigned numBlocks() const { return (unsigned)Blocks.size(); }
  /// Removes (and destroys) \p BB, which must not be the entry block. The
  /// caller is responsible for first rewriting any branches/phis that refer
  /// to it (the fuzz reducer prunes unreachable blocks this way).
  void removeBlock(BasicBlock *BB);
  BasicBlock *block(unsigned I) const { return Blocks[I].get(); }
  BasicBlock *entry() const { return Blocks.empty() ? nullptr : Blocks[0].get(); }
  BasicBlock *blockByName(const std::string &BlockName) const;

  bool isDeclaration() const { return Blocks.empty(); }

  /// Interned constants owned by this function's pool.
  ConstInt *getConstInt(const Type *Ty, const BitVec &V);
  ConstInt *getConstInt(const Type *Ty, uint64_t V) {
    return getConstInt(Ty, BitVec(Ty->intWidth(), V));
  }
  ConstFP *getConstFP(const Type *Ty, const BitVec &Bits);
  ConstNull *getNull();
  UndefValue *getUndef(const Type *Ty);
  PoisonValue *getPoison(const Type *Ty);
  ConstAggregate *getConstAggregate(const Type *Ty,
                                    std::vector<Value *> Elems);

  /// Deep copy (new blocks/instructions/constants; arguments shared by
  /// identity name). Used before destructive transforms.
  std::unique_ptr<Function> clone() const;

  /// Total number of instructions (diagnostics / corpus stats).
  size_t instructionCount() const;

  // Block iteration.
  auto begin() const { return Blocks.begin(); }
  auto end() const { return Blocks.end(); }

private:
  std::string Name;
  const Type *RetTy;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<std::unique_ptr<Value>> Constants;
};

/// A translation unit: named functions plus global variables.
class Module {
public:
  Function *addFunction(std::string Name, const Type *RetTy) {
    Functions.emplace_back(std::make_unique<Function>(Name, RetTy));
    return Functions.back().get();
  }
  /// Adopts an externally built function.
  Function *adoptFunction(std::unique_ptr<Function> F) {
    Functions.emplace_back(std::move(F));
    return Functions.back().get();
  }
  unsigned numFunctions() const { return (unsigned)Functions.size(); }
  Function *function(unsigned I) const { return Functions[I].get(); }
  Function *functionByName(const std::string &Name) const;

  GlobalVar *addGlobal(std::string Name, const Type *ValueTy, bool Constant) {
    Globals.emplace_back(
        std::make_unique<GlobalVar>(std::move(Name), ValueTy, Constant));
    return Globals.back().get();
  }
  unsigned numGlobals() const { return (unsigned)Globals.size(); }
  GlobalVar *global(unsigned I) const { return Globals[I].get(); }
  GlobalVar *globalByName(const std::string &Name) const;

  auto begin() const { return Functions.begin(); }
  auto end() const { return Functions.end(); }

private:
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<std::unique_ptr<GlobalVar>> Globals;
};

} // namespace alive::ir

#endif // ALIVE2RE_IR_FUNCTION_H
