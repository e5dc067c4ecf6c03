//===- smt/Expr.h - Hash-consed SMT expression DAG --------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression layer of the SMT substrate that replaces Z3 in this
/// reproduction (see DESIGN.md). Terms are hash-consed nodes in a global
/// context; construction applies local rewriting/constant folding (the same
/// role Z3's pre-processing plays for Alive2). Sorts are Bool and fixed-width
/// bit-vectors; uninterpreted function applications are supported and
/// eliminated by Ackermannization before bit-blasting.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_EXPR_H
#define ALIVE2RE_SMT_EXPR_H

#include "support/BitVec.h"
#include "support/SmallVec.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace alive::smt {

using ExprId = uint32_t;
constexpr ExprId NoExpr = ~ExprId(0);

/// Node operator kinds. Redundant operators (sub, zext, sext, ule, ...) are
/// desugared at construction so the bit-blaster only sees this minimal set.
enum class Kind : uint8_t {
  ConstBool, // P0 = 0/1
  ConstBV,   // Cst
  Var,       // Name; Width 0 means Bool
  App,       // uninterpreted function: Name(Ops...) -> Width
  Not,
  And,
  Or,
  Xor,
  Ite, // Ops = {cond, then, else}; result sort = sort(then)
  Eq,  // both sorts equal; result Bool
  Ult,
  Slt,
  Add,
  Mul,
  UDiv,
  URem,
  SDiv,
  SRem,
  BAnd,
  BOr,
  BXor,
  BNot,
  Shl,
  LShr,
  AShr,
  Concat,  // Ops[0] is the high part
  Extract, // P0 = low bit, P1 = length
};

/// One DAG node. Nodes are immutable and uniqued by the context.
struct Node {
  /// Every operator has at most three operands (Ite); only an App with more
  /// arguments takes a heap block for them.
  static constexpr unsigned InlineOps = 3;
  using OpList = SmallVec<ExprId, InlineOps>;

  Kind K;
  unsigned Width = 0; // 0 = Bool, otherwise bit-vector width
  unsigned P0 = 0, P1 = 0;
  OpList Ops;
  BitVec Cst;
  std::string Name;
};

class Model;

/// A lightweight handle to a hash-consed node.
///
/// The default-constructed Expr is invalid; every factory returns a valid
/// handle. Handles compare by identity, which coincides with structural
/// equality thanks to hash-consing.
class Expr {
public:
  Expr() = default;
  explicit Expr(ExprId Id) : Id(Id) {}

  bool isValid() const { return Id != NoExpr; }
  ExprId id() const { return Id; }
  const Node &node() const;

  bool isBool() const { return node().Width == 0; }
  unsigned width() const { return node().Width; }
  Kind kind() const { return node().K; }

  bool isTrue() const;
  bool isFalse() const;
  /// \returns true and sets \p Out if this is a bit-vector constant.
  bool getConst(BitVec &Out) const;
  bool isZeroConst() const;
  bool isAllOnesConst() const;

  bool operator==(const Expr &O) const { return Id == O.Id; }
  bool operator!=(const Expr &O) const { return Id != O.Id; }

private:
  ExprId Id = NoExpr;
};

/// The per-thread expression context: node arena + hash-consing table.
///
/// Mirrors Alive2's Z3 context, but thread-local rather than process-global
/// so the batch-verification engine can encode and solve independent
/// function pairs on parallel workers without locking the hot interning
/// path. Consequently an Expr handle is only valid on the thread that
/// created it; cross-thread results must be rendered to plain data first
/// (refine::Verdict carries only strings and numbers for this reason).
/// resetContext() frees the calling thread's arena; only call it when that
/// thread holds no live Expr handles (tests and the batch engine do this
/// between verification tasks).
///
/// Nodes live in fixed-size chunks that never move, so a `const Node &`
/// stays valid while more nodes are interned, until reset(). Ids are
/// handed out in interning order, 0, 1, 2, ...
class ExprCtx {
public:
  static ExprCtx &get();
  ~ExprCtx();
  ExprCtx(const ExprCtx &) = delete;
  ExprCtx &operator=(const ExprCtx &) = delete;

  /// Interns \p N (after folding) and returns its id.
  ExprId intern(Node N);
  const Node &node(ExprId Id) const {
    assert(Id < NumNodes && "node id out of range");
    return Chunks[Id >> ChunkBits][Id & (ChunkSize - 1)];
  }
  size_t size() const { return NumNodes; }
  /// Ids below this have storage. The walk memos are sized to it, so they
  /// grow only when a chunk is added.
  size_t capacity() const { return Chunks.size() * ChunkSize; }
  void reset();

  /// Returns a per-context counter, used to derive fresh variable names.
  uint64_t nextFreshId() { return FreshCounter++; }

  /// Nodes per chunk: 2^12 nodes of about 90 bytes, so one chunk holds the
  /// context of a typical pair and a chunk costs under 0.4 MB.
  static constexpr unsigned ChunkBits = 12;
  static constexpr size_t ChunkSize = size_t(1) << ChunkBits;

private:
  ExprCtx() = default;
  /// Chunks of raw storage for ChunkSize nodes each; the first NumNodes
  /// slots hold live nodes. reset() destroys the nodes and keeps the chunks.
  std::vector<Node *> Chunks;
  size_t NumNodes = 0;
  /// The intern table: open addressing with linear probing over a power of
  /// two slots, kept at most half full. A slot holds its node's hash folded
  /// to 32 bits, which places it and skips most unequal nodes without
  /// reading them, and the node's id, NoExpr when empty.
  struct Slot {
    uint32_t Tag;
    ExprId Id;
  };
  static constexpr size_t FirstSlots = 1024;
  std::vector<Slot> Table;
  uint64_t FreshCounter = 0;

  static uint64_t hashNode(const Node &N);
  static bool sameNode(const Node &A, const Node &B);
  size_t slotOf(uint32_t Tag) const;
  void growTable();
};

/// Frees all expressions of the calling thread's context. Invalidates every
/// Expr handle this thread created.
void resetContext();

// --- Leaf factories -------------------------------------------------------

Expr mkBool(bool B);
Expr mkTrue();
Expr mkFalse();
Expr mkBV(const BitVec &V);
Expr mkBV(unsigned Width, uint64_t V);
/// Bool variable when Width == 0.
Expr mkVar(const std::string &Name, unsigned Width);
/// A fresh variable with a unique name derived from \p Prefix.
Expr mkFreshVar(const std::string &Prefix, unsigned Width);
/// Uninterpreted-function application (eliminated by Ackermannization).
Expr mkApp(const std::string &Fn, unsigned Width, std::vector<Expr> Args);

// --- Boolean operators ----------------------------------------------------

Expr mkNot(Expr A);
Expr mkAnd(Expr A, Expr B);
Expr mkOr(Expr A, Expr B);
Expr mkXor(Expr A, Expr B);
Expr mkImplies(Expr A, Expr B);
Expr mkAnd(const std::vector<Expr> &Es);
Expr mkOr(const std::vector<Expr> &Es);
/// Sort-generic if-then-else; \p T and \p F must have the same sort.
Expr mkIte(Expr C, Expr T, Expr F);
/// Sort-generic equality (Bool or BV).
Expr mkEq(Expr A, Expr B);
Expr mkNe(Expr A, Expr B);

// --- Bit-vector operators -------------------------------------------------

Expr mkAdd(Expr A, Expr B);
Expr mkSub(Expr A, Expr B);
Expr mkNeg(Expr A);
Expr mkMul(Expr A, Expr B);
Expr mkUDiv(Expr A, Expr B);
Expr mkURem(Expr A, Expr B);
Expr mkSDiv(Expr A, Expr B);
Expr mkSRem(Expr A, Expr B);
Expr mkBVAnd(Expr A, Expr B);
Expr mkBVOr(Expr A, Expr B);
Expr mkBVXor(Expr A, Expr B);
Expr mkBVNot(Expr A);
Expr mkShl(Expr A, Expr B);
Expr mkLShr(Expr A, Expr B);
Expr mkAShr(Expr A, Expr B);
Expr mkConcat(Expr Hi, Expr Lo);
Expr mkExtract(Expr A, unsigned Lo, unsigned Len);
Expr mkZExt(Expr A, unsigned NewWidth);
Expr mkSExt(Expr A, unsigned NewWidth);
Expr mkTrunc(Expr A, unsigned NewWidth);

// --- Comparisons ----------------------------------------------------------

Expr mkUlt(Expr A, Expr B);
Expr mkUle(Expr A, Expr B);
Expr mkUgt(Expr A, Expr B);
Expr mkUge(Expr A, Expr B);
Expr mkSlt(Expr A, Expr B);
Expr mkSle(Expr A, Expr B);
Expr mkSgt(Expr A, Expr B);
Expr mkSge(Expr A, Expr B);

// --- Conversions and helpers ----------------------------------------------

/// Bool -> 1-bit vector (true -> 1).
Expr mkBoolToBV1(Expr B);
/// The sign bit of \p A as Bool.
Expr mkSignBit(Expr A);

// Overflow predicates (result Bool), matching BitVec::*Overflow.
Expr mkUAddOverflow(Expr A, Expr B);
Expr mkSAddOverflow(Expr A, Expr B);
Expr mkUSubOverflow(Expr A, Expr B);
Expr mkSSubOverflow(Expr A, Expr B);
Expr mkUMulOverflow(Expr A, Expr B);
Expr mkSMulOverflow(Expr A, Expr B);

// --- Traversal, substitution, evaluation -----------------------------------

/// Collects the ids of all Var nodes reachable from \p E into \p Out.
void collectVars(Expr E, std::unordered_set<ExprId> &Out);
/// Collects all App nodes reachable from \p E into \p Out.
void collectApps(Expr E, std::unordered_set<ExprId> &Out);
/// True if any variable of \p E is in \p Vars.
bool mentionsAnyVar(Expr E, const std::unordered_set<ExprId> &Vars);

namespace detail {
/// One thread's memo for a DAG walk or rewrite: per ExprId, the epoch that
/// last reached the node and, for a rewrite, its result. A walk starts a
/// new epoch instead of clearing anything, so a node counts as reached only
/// when its stamp equals the current epoch; when the 32-bit epoch wraps
/// around, the stamps are cleared once.
struct WalkMemo {
  std::vector<uint32_t> Stamp;
  std::vector<ExprId> Value;
  std::vector<std::pair<ExprId, bool>> Stack;
  uint32_t Epoch = 0;

  /// Starts a new epoch over ids below \p NumIds (results too when
  /// \p WithValues).
  void begin(size_t NumIds, bool WithValues);
  bool reached(ExprId Id) const { return Stamp[Id] == Epoch; }
  /// Marks \p Id reached; \returns false when it already was.
  bool reach(ExprId Id) {
    if (Stamp[Id] == Epoch)
      return false;
    Stamp[Id] = Epoch;
    return true;
  }
  void set(ExprId Id, ExprId To) {
    Stamp[Id] = Epoch;
    Value[Id] = To;
  }
  ExprId get(ExprId Id) const {
    assert(reached(Id) && "rewrite result read before it was set");
    return Value[Id];
  }
};

/// The calling thread's first memo that no walk or rewrite holds, held
/// until destruction. A walk or rewrite started from inside another one's
/// callback so gets a memo of its own: nested calls are allowed.
class MemoLease {
public:
  MemoLease();
  ~MemoLease();
  MemoLease(const MemoLease &) = delete;
  MemoLease &operator=(const MemoLease &) = delete;
  WalkMemo *operator->() const { return M; }

private:
  WalkMemo *M;
};
} // namespace detail

/// Iterative depth-first DAG walk calling \p Visit(Id, Node) once per node
/// reachable from \p Root, on first reaching it, last operand first.
/// \p Visit may intern and may start walks or rewrites of its own.
template <typename Fn> void walk(Expr Root, Fn Visit) {
  detail::MemoLease Memo;
  Memo->begin(ExprCtx::get().capacity(), /*WithValues=*/false);
  auto &Stack = Memo->Stack;
  Stack.assign(1, {Root.id(), false});
  while (!Stack.empty()) {
    ExprId Id = Stack.back().first;
    Stack.pop_back();
    if (!Memo->reach(Id))
      continue;
    const Node &N = ExprCtx::get().node(Id);
    Visit(Id, N);
    for (ExprId Op : N.Ops)
      Stack.push_back({Op, false});
  }
}

/// Rebuilds \p E replacing variables per \p Map (var ExprId -> replacement);
/// re-runs construction-time folding, so substituting constants evaluates.
Expr substitute(Expr E, const std::unordered_map<ExprId, Expr> &Map);

/// Rebuilds \p E replacing whole App nodes per \p Map (app ExprId ->
/// replacement). Used by Ackermannization.
Expr rewriteApps(Expr E, const std::unordered_map<ExprId, Expr> &Map);

/// Rebuilds \p E renaming applications whose name starts with a prefix in
/// \p PrefixMap (prefix -> replacement prefix). Used to instantiate
/// inner-quantified function symbols with outer ones.
Expr renameApps(Expr E,
                const std::vector<std::pair<std::string, std::string>>
                    &PrefixMap);

/// Evaluates a ground-or-modeled expression. Unassigned variables default to
/// zero/false (SAT models are total over the blasted variables, but variables
/// folded away before blasting may be missing). Bools are width-1 results.
BitVec evaluate(Expr E, const Model &M);

/// S-expression rendering for diagnostics and counterexamples.
std::string toString(Expr E);

/// Number of distinct nodes reachable from \p E (diagnostic/size metric).
size_t dagSize(Expr E);

/// A (total-by-default) assignment of variables to constants.
class Model {
public:
  void set(ExprId Var, const BitVec &V) { Map[Var] = V; }
  bool has(ExprId Var) const { return Map.count(Var) != 0; }
  /// Value of a variable; defaults to zero of the variable's width.
  BitVec get(Expr Var) const;
  bool getBool(Expr Var) const { return !get(Var).isZero(); }
  const std::unordered_map<ExprId, BitVec> &entries() const { return Map; }

private:
  std::unordered_map<ExprId, BitVec> Map;
};

} // namespace alive::smt

#endif // ALIVE2RE_SMT_EXPR_H
