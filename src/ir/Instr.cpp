//===- ir/Instr.cpp - IR instructions ---------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instr.h"

#include <cassert>

using namespace alive;
using namespace alive::ir;

const char *BinOp::opName(Op O) {
  switch (O) {
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::UDiv:
    return "udiv";
  case Op::SDiv:
    return "sdiv";
  case Op::URem:
    return "urem";
  case Op::SRem:
    return "srem";
  case Op::Shl:
    return "shl";
  case Op::LShr:
    return "lshr";
  case Op::AShr:
    return "ashr";
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  }
  return "?";
}

const char *FBinOp::opName(Op O) {
  switch (O) {
  case Op::FAdd:
    return "fadd";
  case Op::FSub:
    return "fsub";
  case Op::FMul:
    return "fmul";
  case Op::FDiv:
    return "fdiv";
  case Op::FRem:
    return "frem";
  }
  return "?";
}

const char *ICmp::predName(Pred P) {
  switch (P) {
  case Pred::EQ:
    return "eq";
  case Pred::NE:
    return "ne";
  case Pred::UGT:
    return "ugt";
  case Pred::UGE:
    return "uge";
  case Pred::ULT:
    return "ult";
  case Pred::ULE:
    return "ule";
  case Pred::SGT:
    return "sgt";
  case Pred::SGE:
    return "sge";
  case Pred::SLT:
    return "slt";
  case Pred::SLE:
    return "sle";
  }
  return "?";
}

const char *FCmp::predName(Pred P) {
  switch (P) {
  case Pred::OEQ:
    return "oeq";
  case Pred::OGT:
    return "ogt";
  case Pred::OGE:
    return "oge";
  case Pred::OLT:
    return "olt";
  case Pred::OLE:
    return "ole";
  case Pred::ONE:
    return "one";
  case Pred::ORD:
    return "ord";
  case Pred::UEQ:
    return "ueq";
  case Pred::UGT:
    return "ugt";
  case Pred::UGE:
    return "uge";
  case Pred::ULT:
    return "ult";
  case Pred::ULE:
    return "ule";
  case Pred::UNE:
    return "une";
  case Pred::UNO:
    return "uno";
  }
  return "?";
}

const char *Cast::opName(Op O) {
  switch (O) {
  case Op::Trunc:
    return "trunc";
  case Op::ZExt:
    return "zext";
  case Op::SExt:
    return "sext";
  case Op::BitCast:
    return "bitcast";
  case Op::FPToSI:
    return "fptosi";
  case Op::FPToUI:
    return "fptoui";
  case Op::SIToFP:
    return "sitofp";
  case Op::UIToFP:
    return "uitofp";
  }
  return "?";
}
