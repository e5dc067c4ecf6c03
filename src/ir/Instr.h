//===- ir/Instr.h - IR instructions -----------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the IR substrate: the LLVM subset whose semantics
/// Sections 2-4 and 6 of the paper define. Poison-generating flags (nsw,
/// nuw, exact), fast-math flags (nnan, ninf, nsz), deferred-UB constants and
/// freeze are all first-class.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_IR_INSTR_H
#define ALIVE2RE_IR_INSTR_H

#include "ir/Value.h"

#include <optional>

namespace alive::ir {

class BasicBlock;
class Function;

/// Base class of all instructions. Operands are raw pointers owned by the
/// enclosing function (constants) or by their defining block (instructions).
class Instr : public Value {
public:
  const std::vector<Value *> &operands() const { return Ops; }
  Value *op(unsigned I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }
  unsigned numOps() const { return (unsigned)Ops.size(); }
  void setOp(unsigned I, Value *V) {
    assert(I < Ops.size() && "operand index out of range");
    Ops[I] = V;
  }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// True for br/switch/ret/unreachable.
  bool isTerminator() const {
    return kind() >= ValueKind::Br && kind() <= ValueKind::Unreachable;
  }

  static bool classof(const Value *V) { return V->isInstr(); }

  /// Deep-copies this instruction with the same operands (used by the loop
  /// unroller, which patches operands afterwards).
  virtual Instr *clone() const = 0;

protected:
  Instr(ValueKind K, const Type *Ty, std::string Name,
        std::vector<Value *> Ops)
      : Value(K, Ty, std::move(Name)), Ops(std::move(Ops)) {}

  std::vector<Value *> Ops;

private:
  BasicBlock *Parent = nullptr;
};

/// Poison-generating flags of Section 2 (nsw/nuw/exact).
struct BinOpFlags {
  bool NSW = false;   // no signed wrap -> poison
  bool NUW = false;   // no unsigned wrap -> poison
  bool Exact = false; // udiv/sdiv/lshr/ashr exactness -> poison
};

/// Fast-math flags on FP operations.
struct FastMathFlags {
  bool NNan = false; // NaN operand/result -> poison
  bool NInf = false; // Inf operand/result -> poison
  bool NSZ = false;  // sign of zero result is nondeterministic
};

/// Integer binary operator, with the poison-generating flags of Section 2.
class BinOp final : public Instr {
public:
  enum class Op : uint8_t {
    Add,
    Sub,
    Mul,
    UDiv,
    SDiv,
    URem,
    SRem,
    Shl,
    LShr,
    AShr,
    And,
    Or,
    Xor,
  };
  using Flags = BinOpFlags;

  BinOp(Op O, const Type *Ty, std::string Name, Value *A, Value *B,
        Flags F = Flags())
      : Instr(ValueKind::BinOp, Ty, std::move(Name), {A, B}), O(O), F(F) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::BinOp; }

  Op getOp() const { return O; }
  Flags flags() const { return F; }
  void setFlags(Flags NewF) { F = NewF; }
  /// True for udiv/sdiv/urem/srem (division by zero is immediate UB).
  bool isDivRem() const {
    return O == Op::UDiv || O == Op::SDiv || O == Op::URem || O == Op::SRem;
  }
  static const char *opName(Op O);

  Instr *clone() const override {
    return new BinOp(O, type(), name(), Ops[0], Ops[1], F);
  }

private:
  Op O;
  Flags F;
};

/// Floating-point binary operator with fast-math flags.
class FBinOp final : public Instr {
public:
  enum class Op : uint8_t { FAdd, FSub, FMul, FDiv, FRem };
  using FastMathFlags = alive::ir::FastMathFlags;

  FBinOp(Op O, const Type *Ty, std::string Name, Value *A, Value *B,
         FastMathFlags F = FastMathFlags())
      : Instr(ValueKind::FBinOp, Ty, std::move(Name), {A, B}), O(O), F(F) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::FBinOp;
  }

  Op getOp() const { return O; }
  FastMathFlags fmf() const { return F; }
  void setFMF(FastMathFlags NewF) { F = NewF; }
  static const char *opName(Op O);

  Instr *clone() const override {
    return new FBinOp(O, type(), name(), Ops[0], Ops[1], F);
  }

private:
  Op O;
  FastMathFlags F;
};

/// Floating-point negation (exact sign-bit flip; no rounding).
class FNeg final : public Instr {
public:
  FNeg(const Type *Ty, std::string Name, Value *A)
      : Instr(ValueKind::FNeg, Ty, std::move(Name), {A}) {}
  static bool classof(const Value *V) { return V->kind() == ValueKind::FNeg; }
  Instr *clone() const override { return new FNeg(type(), name(), Ops[0]); }
};

/// Integer / pointer comparison.
class ICmp final : public Instr {
public:
  enum class Pred : uint8_t { EQ, NE, UGT, UGE, ULT, ULE, SGT, SGE, SLT, SLE };

  ICmp(Pred P, std::string Name, Value *A, Value *B, const Type *ResultTy)
      : Instr(ValueKind::ICmp, ResultTy, std::move(Name), {A, B}), P(P) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::ICmp; }

  Pred pred() const { return P; }
  static const char *predName(Pred P);

  Instr *clone() const override {
    return new ICmp(P, name(), Ops[0], Ops[1], type());
  }

private:
  Pred P;
};

/// Floating-point comparison. Ordered predicates are false on NaN; unordered
/// ones true.
class FCmp final : public Instr {
public:
  enum class Pred : uint8_t {
    OEQ,
    OGT,
    OGE,
    OLT,
    OLE,
    ONE,
    ORD,
    UEQ,
    UGT,
    UGE,
    ULT,
    ULE,
    UNE,
    UNO,
  };

  FCmp(Pred P, std::string Name, Value *A, Value *B, const Type *ResultTy)
      : Instr(ValueKind::FCmp, ResultTy, std::move(Name), {A, B}), P(P) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::FCmp; }

  Pred pred() const { return P; }
  static const char *predName(Pred P);

  Instr *clone() const override {
    return new FCmp(P, name(), Ops[0], Ops[1], type());
  }

private:
  Pred P;
};

/// select cond, a, b. Short-circuiting on poison: only the chosen arm's
/// poison matters (the Section 8.4 select->and/or bug hinges on this).
class Select final : public Instr {
public:
  Select(const Type *Ty, std::string Name, Value *Cond, Value *TrueV,
         Value *FalseV)
      : Instr(ValueKind::Select, Ty, std::move(Name), {Cond, TrueV, FalseV}) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Select;
  }
  Instr *clone() const override {
    return new Select(type(), name(), Ops[0], Ops[1], Ops[2]);
  }
};

/// freeze: stops undef/poison propagation by pinning one arbitrary value.
class Freeze final : public Instr {
public:
  Freeze(const Type *Ty, std::string Name, Value *A)
      : Instr(ValueKind::Freeze, Ty, std::move(Name), {A}) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Freeze;
  }
  Instr *clone() const override { return new Freeze(type(), name(), Ops[0]); }
};

/// Conversion instruction. FP<->int arithmetic casts are over-approximated
/// by the encoder (Section 3.8); bitcast between int and FP uses the
/// NaN-nondeterminism semantics of Section 3.5.
class Cast final : public Instr {
public:
  enum class Op : uint8_t {
    Trunc,
    ZExt,
    SExt,
    BitCast,
    FPToSI,
    FPToUI,
    SIToFP,
    UIToFP,
  };

  Cast(Op O, const Type *Ty, std::string Name, Value *A)
      : Instr(ValueKind::Cast, Ty, std::move(Name), {A}), O(O) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Cast; }

  Op getOp() const { return O; }
  static const char *opName(Op O);

  Instr *clone() const override { return new Cast(O, type(), name(), Ops[0]); }

private:
  Op O;
};

/// SSA phi node. Incoming blocks parallel the operand list.
class Phi final : public Instr {
public:
  Phi(const Type *Ty, std::string Name)
      : Instr(ValueKind::Phi, Ty, std::move(Name), {}) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Phi; }

  void addIncoming(Value *V, BasicBlock *BB) {
    Ops.push_back(V);
    Blocks.push_back(BB);
  }
  unsigned numIncoming() const { return (unsigned)Ops.size(); }
  Value *incomingValue(unsigned I) const { return op(I); }
  BasicBlock *incomingBlock(unsigned I) const { return Blocks[I]; }
  void setIncomingBlock(unsigned I, BasicBlock *BB) { Blocks[I] = BB; }
  void removeIncoming(unsigned I) {
    Ops.erase(Ops.begin() + I);
    Blocks.erase(Blocks.begin() + I);
  }
  /// Index of the entry for \p BB, if any.
  std::optional<unsigned> indexForBlock(const BasicBlock *BB) const {
    for (unsigned I = 0; I < Blocks.size(); ++I)
      if (Blocks[I] == BB)
        return I;
    return std::nullopt;
  }

  Instr *clone() const override {
    auto *P = new Phi(type(), name());
    for (unsigned I = 0; I < numIncoming(); ++I)
      P->addIncoming(Ops[I], Blocks[I]);
    return P;
  }

private:
  std::vector<BasicBlock *> Blocks;
};

/// Conditional or unconditional branch. Branching on undef/poison is
/// immediate UB (the Section 8.3 semantics change the paper drove).
class Br final : public Instr {
public:
  /// Unconditional.
  explicit Br(BasicBlock *Dest)
      : Instr(ValueKind::Br, Type::getVoid(), "", {}), TrueBB(Dest),
        FalseBB(nullptr) {}
  /// Conditional.
  Br(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB)
      : Instr(ValueKind::Br, Type::getVoid(), "", {Cond}), TrueBB(TrueBB),
        FalseBB(FalseBB) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Br; }

  bool isConditional() const { return !Ops.empty(); }
  Value *cond() const { return op(0); }
  BasicBlock *trueDest() const { return TrueBB; }
  BasicBlock *falseDest() const { return FalseBB; }
  void setTrueDest(BasicBlock *BB) { TrueBB = BB; }
  void setFalseDest(BasicBlock *BB) { FalseBB = BB; }

  Instr *clone() const override {
    return isConditional() ? new Br(Ops[0], TrueBB, FalseBB) : new Br(TrueBB);
  }

private:
  BasicBlock *TrueBB;
  BasicBlock *FalseBB;
};

/// switch on an integer; branching on undef/poison is UB.
class Switch final : public Instr {
public:
  Switch(Value *Cond, BasicBlock *Default)
      : Instr(ValueKind::Switch, Type::getVoid(), "", {Cond}),
        Default(Default) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Switch;
  }

  Value *cond() const { return op(0); }
  BasicBlock *defaultDest() const { return Default; }
  void setDefaultDest(BasicBlock *BB) { Default = BB; }
  void addCase(BitVec V, BasicBlock *BB) { Cases.push_back({std::move(V), BB}); }
  const std::vector<std::pair<BitVec, BasicBlock *>> &cases() const {
    return Cases;
  }
  void setCaseDest(unsigned I, BasicBlock *BB) { Cases[I].second = BB; }

  Instr *clone() const override {
    auto *S = new Switch(Ops[0], Default);
    S->Cases = Cases;
    return S;
  }

private:
  BasicBlock *Default;
  std::vector<std::pair<BitVec, BasicBlock *>> Cases;
};

/// Return, with an optional value.
class Ret final : public Instr {
public:
  explicit Ret(Value *V)
      : Instr(ValueKind::Ret, Type::getVoid(), "", V ? std::vector<Value *>{V}
                                                     : std::vector<Value *>{}) {
  }
  static bool classof(const Value *V) { return V->kind() == ValueKind::Ret; }
  bool hasValue() const { return !Ops.empty(); }
  Value *value() const { return op(0); }
  Instr *clone() const override {
    return new Ret(hasValue() ? Ops[0] : nullptr);
  }
};

/// unreachable: executing it is immediate UB.
class Unreachable final : public Instr {
public:
  Unreachable() : Instr(ValueKind::Unreachable, Type::getVoid(), "", {}) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Unreachable;
  }
  Instr *clone() const override { return new Unreachable(); }
};

/// Stack allocation of a fixed-size block (Section 4: each alloca gets a
/// fresh memory block).
class Alloca final : public Instr {
public:
  Alloca(std::string Name, const Type *AllocTy, unsigned Align)
      : Instr(ValueKind::Alloca, Type::getPtr(), std::move(Name), {}),
        AllocTy(AllocTy), Align(Align) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Alloca;
  }

  const Type *allocType() const { return AllocTy; }
  unsigned sizeBytes() const { return AllocTy->storeSize(); }
  unsigned align() const { return Align; }

  Instr *clone() const override { return new Alloca(name(), AllocTy, Align); }

private:
  const Type *AllocTy;
  unsigned Align;
};

/// Memory load. Out-of-bounds/dead-block access is UB; the loaded value can
/// be (partially) poison per the byte encoding of Section 4.
class Load final : public Instr {
public:
  Load(const Type *Ty, std::string Name, Value *Ptr, unsigned Align)
      : Instr(ValueKind::Load, Ty, std::move(Name), {Ptr}), Align(Align) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Load; }

  Value *ptr() const { return op(0); }
  unsigned align() const { return Align; }

  Instr *clone() const override {
    return new Load(type(), name(), Ops[0], Align);
  }

private:
  unsigned Align;
};

/// Memory store. Storing to a read-only block is UB.
class Store final : public Instr {
public:
  Store(Value *Val, Value *Ptr, unsigned Align)
      : Instr(ValueKind::Store, Type::getVoid(), "", {Val, Ptr}),
        Align(Align) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Store; }

  Value *value() const { return op(0); }
  Value *ptr() const { return op(1); }
  unsigned align() const { return Align; }

  Instr *clone() const override { return new Store(Ops[0], Ops[1], Align); }

private:
  unsigned Align;
};

/// Simplified pointer arithmetic: result = base + index * scale (bytes).
/// With inbounds, an out-of-bounds base or result is poison (Section 4).
class Gep final : public Instr {
public:
  Gep(std::string Name, Value *Base, Value *Index, uint64_t Scale,
      bool InBounds)
      : Instr(ValueKind::Gep, Type::getPtr(), std::move(Name), {Base, Index}),
        Scale(Scale), InBounds(InBounds) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Gep; }

  Value *base() const { return op(0); }
  Value *index() const { return op(1); }
  uint64_t scale() const { return Scale; }
  bool inBounds() const { return InBounds; }

  Instr *clone() const override {
    return new Gep(name(), Ops[0], Ops[1], Scale, InBounds);
  }

private:
  uint64_t Scale;
  bool InBounds;
};

/// Function call. Known bodies are handled inter-procedurally by passes
/// only; the validator models calls per Section 6 (fresh outputs related by
/// refinement between source and target).
class Call final : public Instr {
public:
  Call(const Type *Ty, std::string Name, std::string Callee,
       std::vector<Value *> Args)
      : Instr(ValueKind::Call, Ty, std::move(Name), std::move(Args)),
        Callee(std::move(Callee)) {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Call; }

  const std::string &callee() const { return Callee; }

  Instr *clone() const override {
    return new Call(type(), name(), Callee, Ops);
  }

private:
  std::string Callee;
};

/// extractelement: constant-indexed vector read; out-of-range index is
/// poison.
class ExtractElement final : public Instr {
public:
  ExtractElement(const Type *Ty, std::string Name, Value *Vec, Value *Idx)
      : Instr(ValueKind::ExtractElement, Ty, std::move(Name), {Vec, Idx}) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ExtractElement;
  }
  Value *vector() const { return op(0); }
  Value *index() const { return op(1); }
  Instr *clone() const override {
    return new ExtractElement(type(), name(), Ops[0], Ops[1]);
  }
};

/// insertelement: vector with one lane replaced.
class InsertElement final : public Instr {
public:
  InsertElement(const Type *Ty, std::string Name, Value *Vec, Value *Elem,
                Value *Idx)
      : Instr(ValueKind::InsertElement, Ty, std::move(Name),
              {Vec, Elem, Idx}) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::InsertElement;
  }
  Value *vector() const { return op(0); }
  Value *element() const { return op(1); }
  Value *index() const { return op(2); }
  Instr *clone() const override {
    return new InsertElement(type(), name(), Ops[0], Ops[1], Ops[2]);
  }
};

/// shufflevector with a constant mask; -1 mask entries are undef lanes
/// (with the Section 8.3 semantics: an undef mask lane yields an undef
/// element rather than propagating poison).
class ShuffleVector final : public Instr {
public:
  ShuffleVector(const Type *Ty, std::string Name, Value *V1, Value *V2,
                std::vector<int> Mask)
      : Instr(ValueKind::ShuffleVector, Ty, std::move(Name), {V1, V2}),
        Mask(std::move(Mask)) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ShuffleVector;
  }
  const std::vector<int> &mask() const { return Mask; }
  Instr *clone() const override {
    return new ShuffleVector(type(), name(), Ops[0], Ops[1], Mask);
  }

private:
  std::vector<int> Mask;
};

/// extractvalue: constant-indexed aggregate (array/struct) read.
class ExtractValue final : public Instr {
public:
  ExtractValue(const Type *Ty, std::string Name, Value *Agg, unsigned Index)
      : Instr(ValueKind::ExtractValue, Ty, std::move(Name), {Agg}),
        Index(Index) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ExtractValue;
  }
  Value *aggregate() const { return op(0); }
  unsigned index() const { return Index; }
  Instr *clone() const override {
    return new ExtractValue(type(), name(), Ops[0], Index);
  }

private:
  unsigned Index;
};

/// insertvalue: aggregate with one member replaced.
class InsertValue final : public Instr {
public:
  InsertValue(const Type *Ty, std::string Name, Value *Agg, Value *Elem,
              unsigned Index)
      : Instr(ValueKind::InsertValue, Ty, std::move(Name), {Agg, Elem}),
        Index(Index) {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::InsertValue;
  }
  Value *aggregate() const { return op(0); }
  Value *element() const { return op(1); }
  unsigned index() const { return Index; }
  Instr *clone() const override {
    return new InsertValue(type(), name(), Ops[0], Ops[1], Index);
  }

private:
  unsigned Index;
};

} // namespace alive::ir

#endif // ALIVE2RE_IR_INSTR_H
