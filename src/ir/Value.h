//===- ir/Value.h - IR values and constants ---------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Base class for everything that can appear as an instruction operand:
/// function arguments, constants (including undef and poison, the deferred
/// UB values central to the paper), globals, and instructions.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_IR_VALUE_H
#define ALIVE2RE_IR_VALUE_H

#include "ir/Type.h"
#include "support/BitVec.h"

#include <cassert>
#include <string>
#include <vector>

namespace alive::ir {

/// Discriminator for the Value hierarchy (LLVM-style hand-rolled RTTI).
enum class ValueKind : uint8_t {
  Argument,
  ConstInt,
  ConstFP,
  ConstNull,
  Undef,
  Poison,
  ConstAggregate,
  GlobalVar,
  // Instructions (keep contiguous; see Value::isInstr).
  BinOp,
  FBinOp,
  FNeg,
  ICmp,
  FCmp,
  Select,
  Freeze,
  Cast,
  Phi,
  Br,
  Switch,
  Ret,
  Unreachable,
  Alloca,
  Load,
  Store,
  Gep,
  Call,
  ExtractElement,
  InsertElement,
  ShuffleVector,
  ExtractValue,
  InsertValue,
};

/// Root of the value hierarchy.
class Value {
public:
  virtual ~Value() = default;

  ValueKind kind() const { return K; }
  const Type *type() const { return Ty; }
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  bool isInstr() const { return K >= ValueKind::BinOp; }
  bool isConstant() const {
    return K >= ValueKind::ConstInt && K <= ValueKind::ConstAggregate;
  }

  /// Printable operand reference: %name for registers, the literal for
  /// constants, @name for globals.
  std::string operandStr() const;

protected:
  Value(ValueKind K, const Type *Ty, std::string Name)
      : K(K), Ty(Ty), Name(std::move(Name)) {}

private:
  ValueKind K;
  const Type *Ty;
  std::string Name;
};

/// A formal parameter of a function. Per Section 3.2 an argument may be
/// undef, poison or any well-defined value unless attributes restrict it.
class Argument final : public Value {
public:
  Argument(const Type *Ty, std::string Name, bool NonNull = false,
           bool NoUndef = false)
      : Value(ValueKind::Argument, Ty, std::move(Name)), NonNull(NonNull),
        NoUndef(NoUndef) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Argument;
  }

  /// The `nonnull` attribute (pointer arguments).
  bool isNonNull() const { return NonNull; }
  /// The `noundef` attribute: passing undef/poison is immediate UB.
  bool isNoUndef() const { return NoUndef; }
  void setNonNull(bool V) { NonNull = V; }
  void setNoUndef(bool V) { NoUndef = V; }

private:
  bool NonNull;
  bool NoUndef;
};

/// Integer (or vector-element integer) constant.
class ConstInt final : public Value {
public:
  ConstInt(const Type *Ty, BitVec V)
      : Value(ValueKind::ConstInt, Ty, ""), V(std::move(V)) {
    assert(Ty->isInt() && "ConstInt needs an integer type");
    assert(this->V.width() == Ty->intWidth() && "constant width mismatch");
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstInt;
  }

  const BitVec &value() const { return V; }

private:
  BitVec V;
};

/// Floating-point constant, stored as its IEEE bit pattern.
class ConstFP final : public Value {
public:
  ConstFP(const Type *Ty, BitVec Bits)
      : Value(ValueKind::ConstFP, Ty, ""), Bits(std::move(Bits)) {
    assert(Ty->isFP() && "ConstFP needs a floating-point type");
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstFP;
  }

  /// The raw IEEE-754 bit pattern (32 or 64 bits wide).
  const BitVec &bits() const { return Bits; }
  double toDouble() const;
  static BitVec encode(const Type *Ty, double V);

private:
  BitVec Bits;
};

/// The null pointer constant: block 0, offset 0 (Section 4).
class ConstNull final : public Value {
public:
  explicit ConstNull(const Type *Ty) : Value(ValueKind::ConstNull, Ty, "") {
    assert(Ty->isPtr() && "null needs a pointer type");
  }
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstNull;
  }
};

/// The undef constant: any value of the type, re-chosen at each observation.
class UndefValue final : public Value {
public:
  explicit UndefValue(const Type *Ty) : Value(ValueKind::Undef, Ty, "") {}
  static bool classof(const Value *V) { return V->kind() == ValueKind::Undef; }
};

/// The poison constant: the stronger deferred-UB value.
class PoisonValue final : public Value {
public:
  explicit PoisonValue(const Type *Ty) : Value(ValueKind::Poison, Ty, "") {}
  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Poison;
  }
};

/// Aggregate constant: vector/array/struct of element constants (which may
/// themselves be undef/poison, giving per-lane deferred UB).
class ConstAggregate final : public Value {
public:
  ConstAggregate(const Type *Ty, std::vector<Value *> Elems)
      : Value(ValueKind::ConstAggregate, Ty, ""), Elems(std::move(Elems)) {
    assert(Ty->isAggregate() && "aggregate constant needs aggregate type");
    assert(this->Elems.size() == Ty->numElements() && "element count");
  }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::ConstAggregate;
  }

  const std::vector<Value *> &elements() const { return Elems; }

private:
  std::vector<Value *> Elems;
};

/// A global variable: a named memory block that exists on function entry.
class GlobalVar final : public Value {
public:
  GlobalVar(std::string Name, const Type *ValueTy, bool Constant)
      : Value(ValueKind::GlobalVar, Type::getPtr(), std::move(Name)),
        ValueTy(ValueTy), Constant(Constant) {}

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::GlobalVar;
  }

  const Type *valueType() const { return ValueTy; }
  unsigned sizeBytes() const { return ValueTy->storeSize(); }
  /// True for read-only globals (stores to it are UB).
  bool isConstant() const { return Constant; }

private:
  const Type *ValueTy;
  bool Constant;
};

/// LLVM-style casting helpers.
template <typename T> bool isa(const Value *V) { return T::classof(V); }
template <typename T> T *cast(Value *V) {
  assert(T::classof(V) && "bad cast");
  return static_cast<T *>(V);
}
template <typename T> const T *cast(const Value *V) {
  assert(T::classof(V) && "bad cast");
  return static_cast<const T *>(V);
}
template <typename T> T *dyn_cast(Value *V) {
  return V && T::classof(V) ? static_cast<T *>(V) : nullptr;
}
template <typename T> const T *dyn_cast(const Value *V) {
  return V && T::classof(V) ? static_cast<const T *>(V) : nullptr;
}

} // namespace alive::ir

#endif // ALIVE2RE_IR_VALUE_H
