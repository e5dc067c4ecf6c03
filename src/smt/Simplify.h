//===- smt/Simplify.h - Construction-time folding ---------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Local rewriting applied every time a node is built (the role of Z3's
/// simplifier in Alive2): constant folding, Boolean/bit-vector identities,
/// ite collapsing, extract/concat forwarding and commutative-operand
/// canonicalization. Keeping this at construction time means downstream
/// layers (bit-blaster, model evaluator) only ever see reduced DAGs.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_SIMPLIFY_H
#define ALIVE2RE_SMT_SIMPLIFY_H

#include "smt/Expr.h"

namespace alive::smt::detail {

/// Applies local rewrite rules to \p N and interns the result.
Expr fold(Node N);

/// The one statement of each operator's concrete meaning: the value of
/// \p N given the values \p Ops of its operands, Bools as 1-bit values.
/// Constants evaluate to themselves; \p N must not be a variable or an
/// application. The constant fold and smt::evaluate both run it.
BitVec evalNode(const Node &N, const BitVec *Ops);

/// True for kinds whose binary operands fold() may reorder (it sorts them by
/// ExprId for hash-consing). Fingerprinting must treat these operand pairs
/// as unordered: ExprId order depends on interning history, not meaning.
bool isCommutative(Kind K);

} // namespace alive::smt::detail

#endif // ALIVE2RE_SMT_SIMPLIFY_H
