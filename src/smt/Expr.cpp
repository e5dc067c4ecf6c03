//===- smt/Expr.cpp - Hash-consed SMT expression DAG ----------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Expr.h"
#include "smt/Simplify.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace alive;
using namespace alive::smt;

//===----------------------------------------------------------------------===//
// Context
//===----------------------------------------------------------------------===//

ExprCtx &ExprCtx::get() {
  // One context per thread: the batch-verification engine runs each
  // function pair entirely on one worker, so hash-consing never needs a
  // lock and worker contexts never interfere. Expr handles are only
  // meaningful on the thread that created them.
  static thread_local ExprCtx Ctx;
  return Ctx;
}

void smt::resetContext() { ExprCtx::get().reset(); }

ExprCtx::~ExprCtx() {
  reset();
  for (Node *Chunk : Chunks)
    ::operator delete(Chunk);
}

void ExprCtx::reset() {
  for (size_t Id = 0; Id < NumNodes; ++Id)
    Chunks[Id >> ChunkBits][Id & (ChunkSize - 1)].~Node();
  NumNodes = 0;
  std::fill(Table.begin(), Table.end(), Slot{0, NoExpr});
  FreshCounter = 0;
}

uint64_t ExprCtx::hashNode(const Node &N) {
  uint64_t H = 1469598103934665603ull;
  auto mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  mix((uint64_t)N.K);
  mix(N.Width);
  mix(N.P0);
  mix(N.P1);
  for (ExprId Op : N.Ops)
    mix(Op);
  if (N.K == Kind::ConstBV)
    mix(N.Cst.hash());
  for (char C : N.Name)
    mix((uint64_t)(unsigned char)C);
  return H;
}

bool ExprCtx::sameNode(const Node &A, const Node &B) {
  return A.K == B.K && A.Width == B.Width && A.P0 == B.P0 && A.P1 == B.P1 &&
         A.Ops == B.Ops && A.Name == B.Name &&
         (A.K != Kind::ConstBV || A.Cst == B.Cst);
}

size_t ExprCtx::slotOf(uint32_t Tag) const {
  // Fibonacci hashing: the top bits of the product depend on every bit of
  // the tag.
  unsigned Bits = (unsigned)__builtin_ctzll(Table.size());
  return (uint32_t)(Tag * 0x9e3779b9u) >> (32 - Bits);
}

void ExprCtx::growTable() {
  std::vector<Slot> Old(Table.empty() ? FirstSlots : 2 * Table.size(),
                        Slot{0, NoExpr});
  Old.swap(Table);
  size_t Mask = Table.size() - 1;
  for (const Slot &S : Old) {
    if (S.Id == NoExpr)
      continue;
    size_t I = slotOf(S.Tag);
    while (Table[I].Id != NoExpr)
      I = (I + 1) & Mask;
    Table[I] = S;
  }
}

ExprId ExprCtx::intern(Node N) {
  if (2 * (NumNodes + 1) > Table.size())
    growTable();
  uint64_t H = hashNode(N);
  uint32_t Tag = (uint32_t)(H ^ (H >> 32));
  size_t Mask = Table.size() - 1;
  size_t I = slotOf(Tag);
  for (; Table[I].Id != NoExpr; I = (I + 1) & Mask)
    if (Table[I].Tag == Tag && sameNode(node(Table[I].Id), N))
      return Table[I].Id;
  if (NumNodes == Chunks.size() * ChunkSize)
    Chunks.push_back(
        static_cast<Node *>(::operator new(sizeof(Node) * ChunkSize)));
  ExprId Id = (ExprId)NumNodes;
  new (&Chunks[Id >> ChunkBits][Id & (ChunkSize - 1)]) Node(std::move(N));
  ++NumNodes;
  Table[I] = {Tag, Id};
  return Id;
}

const Node &Expr::node() const {
  assert(isValid() && "dereferencing invalid Expr");
  return ExprCtx::get().node(Id);
}

bool Expr::isTrue() const {
  const Node &N = node();
  return N.K == Kind::ConstBool && N.P0 == 1;
}

bool Expr::isFalse() const {
  const Node &N = node();
  return N.K == Kind::ConstBool && N.P0 == 0;
}

bool Expr::getConst(BitVec &Out) const {
  const Node &N = node();
  if (N.K != Kind::ConstBV)
    return false;
  Out = N.Cst;
  return true;
}

bool Expr::isZeroConst() const {
  BitVec V;
  return getConst(V) && V.isZero();
}

bool Expr::isAllOnesConst() const {
  BitVec V;
  return getConst(V) && V.isAllOnes();
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

static Expr makeNode(Kind K, unsigned Width,
                     std::initializer_list<ExprId> Ops, unsigned P0 = 0,
                     unsigned P1 = 0) {
  Node N;
  N.K = K;
  N.Width = Width;
  N.P0 = P0;
  N.P1 = P1;
  N.Ops = Ops;
  return detail::fold(std::move(N));
}

Expr smt::mkBool(bool B) {
  Node N;
  N.K = Kind::ConstBool;
  N.Width = 0;
  N.P0 = B ? 1 : 0;
  return Expr(ExprCtx::get().intern(std::move(N)));
}

Expr smt::mkTrue() { return mkBool(true); }
Expr smt::mkFalse() { return mkBool(false); }

Expr smt::mkBV(const BitVec &V) {
  Node N;
  N.K = Kind::ConstBV;
  N.Width = V.width();
  N.Cst = V;
  return Expr(ExprCtx::get().intern(std::move(N)));
}

Expr smt::mkBV(unsigned Width, uint64_t V) { return mkBV(BitVec(Width, V)); }

Expr smt::mkVar(const std::string &Name, unsigned Width) {
  Node N;
  N.K = Kind::Var;
  N.Width = Width;
  N.Name = Name;
  return Expr(ExprCtx::get().intern(std::move(N)));
}

Expr smt::mkFreshVar(const std::string &Prefix, unsigned Width) {
  uint64_t Id = ExprCtx::get().nextFreshId();
  return mkVar(Prefix + "!" + std::to_string(Id), Width);
}

Expr smt::mkApp(const std::string &Fn, unsigned Width, std::vector<Expr> Args) {
  Node N;
  N.K = Kind::App;
  N.Width = Width;
  N.Name = Fn;
  for (Expr A : Args)
    N.Ops.push_back(A.id());
  return Expr(ExprCtx::get().intern(std::move(N)));
}

Expr smt::mkNot(Expr A) {
  assert(A.isBool() && "mkNot wants a Bool");
  return makeNode(Kind::Not, 0, {A.id()});
}

Expr smt::mkAnd(Expr A, Expr B) {
  assert(A.isBool() && B.isBool() && "mkAnd wants Bools");
  return makeNode(Kind::And, 0, {A.id(), B.id()});
}

Expr smt::mkOr(Expr A, Expr B) {
  assert(A.isBool() && B.isBool() && "mkOr wants Bools");
  return makeNode(Kind::Or, 0, {A.id(), B.id()});
}

Expr smt::mkXor(Expr A, Expr B) {
  assert(A.isBool() && B.isBool() && "mkXor wants Bools");
  return makeNode(Kind::Xor, 0, {A.id(), B.id()});
}

Expr smt::mkImplies(Expr A, Expr B) { return mkOr(mkNot(A), B); }

Expr smt::mkAnd(const std::vector<Expr> &Es) {
  Expr R = mkTrue();
  for (Expr E : Es)
    R = mkAnd(R, E);
  return R;
}

Expr smt::mkOr(const std::vector<Expr> &Es) {
  Expr R = mkFalse();
  for (Expr E : Es)
    R = mkOr(R, E);
  return R;
}

Expr smt::mkIte(Expr C, Expr T, Expr F) {
  assert(C.isBool() && "ite condition must be Bool");
  assert(T.width() == F.width() && "ite arms must have the same sort");
  return makeNode(Kind::Ite, T.width(), {C.id(), T.id(), F.id()});
}

Expr smt::mkEq(Expr A, Expr B) {
  assert(A.width() == B.width() && "mkEq sort mismatch");
  return makeNode(Kind::Eq, 0, {A.id(), B.id()});
}

Expr smt::mkNe(Expr A, Expr B) { return mkNot(mkEq(A, B)); }

static void assertSameBV(Expr A, Expr B) {
  assert(!A.isBool() && !B.isBool() && A.width() == B.width() &&
         "binary bit-vector operation on mismatched sorts");
  (void)A;
  (void)B;
}

Expr smt::mkAdd(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::Add, A.width(), {A.id(), B.id()});
}

Expr smt::mkSub(Expr A, Expr B) { return mkAdd(A, mkNeg(B)); }

Expr smt::mkNeg(Expr A) {
  return mkAdd(mkBVNot(A), mkBV(A.width(), 1));
}

Expr smt::mkMul(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::Mul, A.width(), {A.id(), B.id()});
}

Expr smt::mkUDiv(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::UDiv, A.width(), {A.id(), B.id()});
}

Expr smt::mkURem(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::URem, A.width(), {A.id(), B.id()});
}

Expr smt::mkSDiv(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::SDiv, A.width(), {A.id(), B.id()});
}

Expr smt::mkSRem(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::SRem, A.width(), {A.id(), B.id()});
}

Expr smt::mkBVAnd(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::BAnd, A.width(), {A.id(), B.id()});
}

Expr smt::mkBVOr(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::BOr, A.width(), {A.id(), B.id()});
}

Expr smt::mkBVXor(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::BXor, A.width(), {A.id(), B.id()});
}

Expr smt::mkBVNot(Expr A) {
  assert(!A.isBool() && "mkBVNot wants a bit-vector");
  return makeNode(Kind::BNot, A.width(), {A.id()});
}

Expr smt::mkShl(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::Shl, A.width(), {A.id(), B.id()});
}

Expr smt::mkLShr(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::LShr, A.width(), {A.id(), B.id()});
}

Expr smt::mkAShr(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::AShr, A.width(), {A.id(), B.id()});
}

Expr smt::mkConcat(Expr Hi, Expr Lo) {
  assert(!Hi.isBool() && !Lo.isBool() && "mkConcat wants bit-vectors");
  return makeNode(Kind::Concat, Hi.width() + Lo.width(), {Hi.id(), Lo.id()});
}

Expr smt::mkExtract(Expr A, unsigned Lo, unsigned Len) {
  assert(!A.isBool() && Lo + Len <= A.width() && Len >= 1 &&
         "mkExtract out of range");
  return makeNode(Kind::Extract, Len, {A.id()}, Lo, Len);
}

Expr smt::mkZExt(Expr A, unsigned NewWidth) {
  assert(NewWidth >= A.width() && "zext must not shrink");
  if (NewWidth == A.width())
    return A;
  return mkConcat(mkBV(NewWidth - A.width(), 0), A);
}

Expr smt::mkSExt(Expr A, unsigned NewWidth) {
  assert(NewWidth >= A.width() && "sext must not shrink");
  if (NewWidth == A.width())
    return A;
  unsigned Ext = NewWidth - A.width();
  Expr Sign = mkSignBit(A);
  Expr Hi = mkIte(Sign, mkBV(BitVec::allOnes(Ext)), mkBV(Ext, 0));
  return mkConcat(Hi, A);
}

Expr smt::mkTrunc(Expr A, unsigned NewWidth) {
  assert(NewWidth <= A.width() && "trunc must not grow");
  if (NewWidth == A.width())
    return A;
  return mkExtract(A, 0, NewWidth);
}

Expr smt::mkUlt(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::Ult, 0, {A.id(), B.id()});
}

Expr smt::mkUle(Expr A, Expr B) { return mkNot(mkUlt(B, A)); }
Expr smt::mkUgt(Expr A, Expr B) { return mkUlt(B, A); }
Expr smt::mkUge(Expr A, Expr B) { return mkNot(mkUlt(A, B)); }

Expr smt::mkSlt(Expr A, Expr B) {
  assertSameBV(A, B);
  return makeNode(Kind::Slt, 0, {A.id(), B.id()});
}

Expr smt::mkSle(Expr A, Expr B) { return mkNot(mkSlt(B, A)); }
Expr smt::mkSgt(Expr A, Expr B) { return mkSlt(B, A); }
Expr smt::mkSge(Expr A, Expr B) { return mkNot(mkSlt(A, B)); }

Expr smt::mkBoolToBV1(Expr B) {
  return mkIte(B, mkBV(1, 1), mkBV(1, 0));
}

Expr smt::mkSignBit(Expr A) {
  return mkEq(mkExtract(A, A.width() - 1, 1), mkBV(1, 1));
}

Expr smt::mkUAddOverflow(Expr A, Expr B) {
  unsigned W = A.width();
  Expr S = mkAdd(mkZExt(A, W + 1), mkZExt(B, W + 1));
  return mkEq(mkExtract(S, W, 1), mkBV(1, 1));
}

Expr smt::mkSAddOverflow(Expr A, Expr B) {
  unsigned W = A.width();
  Expr S = mkAdd(mkSExt(A, W + 1), mkSExt(B, W + 1));
  return mkNe(mkSExt(mkTrunc(S, W), W + 1), S);
}

Expr smt::mkUSubOverflow(Expr A, Expr B) { return mkUlt(A, B); }

Expr smt::mkSSubOverflow(Expr A, Expr B) {
  unsigned W = A.width();
  Expr S = mkSub(mkSExt(A, W + 1), mkSExt(B, W + 1));
  return mkNe(mkSExt(mkTrunc(S, W), W + 1), S);
}

Expr smt::mkUMulOverflow(Expr A, Expr B) {
  unsigned W = A.width();
  Expr P = mkMul(mkZExt(A, 2 * W), mkZExt(B, 2 * W));
  return mkNe(mkExtract(P, W, W), mkBV(W, 0));
}

Expr smt::mkSMulOverflow(Expr A, Expr B) {
  unsigned W = A.width();
  Expr P = mkMul(mkSExt(A, 2 * W), mkSExt(B, 2 * W));
  return mkNe(mkSExt(mkTrunc(P, W), 2 * W), P);
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void smt::collectVars(Expr E, std::unordered_set<ExprId> &Out) {
  walk(E, [&Out](ExprId Id, const Node &N) {
    if (N.K == Kind::Var)
      Out.insert(Id);
  });
}

void smt::collectApps(Expr E, std::unordered_set<ExprId> &Out) {
  walk(E, [&Out](ExprId Id, const Node &N) {
    if (N.K == Kind::App)
      Out.insert(Id);
  });
}

bool smt::mentionsAnyVar(Expr E, const std::unordered_set<ExprId> &Vars) {
  bool Found = false;
  walk(E, [&](ExprId Id, const Node &N) {
    if (N.K == Kind::Var && Vars.count(Id))
      Found = true;
  });
  return Found;
}

size_t smt::dagSize(Expr E) {
  size_t N = 0;
  walk(E, [&N](ExprId, const Node &) { ++N; });
  return N;
}

//===----------------------------------------------------------------------===//
// Walk memos
//===----------------------------------------------------------------------===//

void detail::WalkMemo::begin(size_t NumIds, bool WithValues) {
  if (++Epoch == 0) {
    std::fill(Stamp.begin(), Stamp.end(), 0);
    Epoch = 1;
  }
  if (Stamp.size() < NumIds)
    Stamp.resize(NumIds, 0);
  if (WithValues && Value.size() < NumIds)
    Value.resize(NumIds);
}

namespace {
/// The calling thread's memos, one per nesting depth of the walks and
/// rewrites running on it; Depth of them are held.
struct MemoStack {
  std::vector<std::unique_ptr<detail::WalkMemo>> Memos;
  size_t Depth = 0;
};
thread_local MemoStack Memos;
} // namespace

detail::MemoLease::MemoLease() {
  if (Memos.Depth == Memos.Memos.size())
    Memos.Memos.push_back(std::make_unique<WalkMemo>());
  M = Memos.Memos[Memos.Depth++].get();
}

detail::MemoLease::~MemoLease() { --Memos.Depth; }

namespace {
/// Iterative post-order DAG rewrite behind substitute, rewriteApps and
/// renameApps. \p Leaf(Id, Node) returns the replacement of a node it
/// claims, whose operands are then not visited, or NoExpr. Every other node
/// is copied, gets its operands' rewrites and \p Edit(Copy), and is folded
/// again when an operand changed or Edit returns true. Nodes fold last
/// operand first; interning order, and with it every ExprId, depends on it.
template <typename LeafFn, typename EditFn>
Expr rewrite(Expr Root, LeafFn Leaf, EditFn Edit) {
  detail::MemoLease Memo;
  Memo->begin(ExprCtx::get().capacity(), /*WithValues=*/true);
  auto &Stack = Memo->Stack;
  Stack.assign(1, {Root.id(), false});
  while (!Stack.empty()) {
    auto [Id, Expanded] = Stack.back();
    Stack.pop_back();
    const Node &N = ExprCtx::get().node(Id);
    if (!Expanded) {
      if (Memo->reached(Id))
        continue;
      if (ExprId To = Leaf(Id, N); To != NoExpr) {
        Memo->set(Id, To);
        continue;
      }
      Stack.push_back({Id, true});
      for (ExprId Op : N.Ops)
        if (!Memo->reached(Op))
          Stack.push_back({Op, false});
      continue;
    }
    Node Copy = N; // the node to edit and refold; N itself stays interned
    bool Changed = Edit(Copy);
    for (ExprId &Op : Copy.Ops) {
      ExprId NewOp = Memo->get(Op);
      Changed |= NewOp != Op;
      Op = NewOp;
    }
    Memo->set(Id, Changed ? detail::fold(std::move(Copy)).id() : Id);
  }
  return Expr(Memo->get(Root.id()));
}

constexpr auto KeepNode = [](Node &) { return false; };
} // namespace

Expr smt::substitute(Expr E, const std::unordered_map<ExprId, Expr> &Map) {
  return rewrite(
      E,
      [&Map](ExprId Id, const Node &N) {
        if (N.K != Kind::Var)
          return NoExpr;
        auto It = Map.find(Id);
        return It != Map.end() ? It->second.id() : Id;
      },
      KeepNode);
}

Expr smt::rewriteApps(Expr E, const std::unordered_map<ExprId, Expr> &Map) {
  return rewrite(
      E,
      [&Map](ExprId Id, const Node &) {
        auto It = Map.find(Id);
        return It != Map.end() ? It->second.id() : NoExpr;
      },
      KeepNode);
}

Expr smt::renameApps(
    Expr E,
    const std::vector<std::pair<std::string, std::string>> &PrefixMap) {
  return rewrite(
      E, [](ExprId, const Node &) { return NoExpr; },
      [&PrefixMap](Node &N) {
        if (N.K != Kind::App)
          return false;
        for (const auto &[Prefix, Repl] : PrefixMap)
          if (N.Name.rfind(Prefix, 0) == 0) {
            N.Name = Repl + N.Name.substr(Prefix.size());
            return true;
          }
        return false;
      });
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

BitVec Model::get(Expr Var) const {
  auto It = Map.find(Var.id());
  if (It != Map.end())
    return It->second;
  unsigned W = Var.isBool() ? 1 : Var.width();
  return BitVec(W, 0);
}

BitVec smt::evaluate(Expr E, const Model &M) {
  std::unordered_map<ExprId, BitVec> Cache;
  // Post-order evaluation.
  std::vector<std::pair<ExprId, bool>> Stack{{E.id(), false}};
  while (!Stack.empty()) {
    auto [Id, Expanded] = Stack.back();
    Stack.pop_back();
    if (Cache.count(Id))
      continue;
    const Node &N = ExprCtx::get().node(Id);
    if (!Expanded) {
      Stack.push_back({Id, true});
      for (ExprId Op : N.Ops)
        if (!Cache.count(Op))
          Stack.push_back({Op, false});
      continue;
    }
    BitVec R;
    if (N.K == Kind::Var) {
      R = M.get(Expr(Id));
    } else if (N.K == Kind::App) {
      // Apps are replaced by variables before solving; evaluating one here
      // means the model never constrained it, so any value is fine.
      R = BitVec(N.Width, 0);
    } else {
      BitVec Ops[Node::InlineOps];
      for (unsigned I = 0; I < N.Ops.size(); ++I)
        Ops[I] = Cache.at(N.Ops[I]);
      R = detail::evalNode(N, Ops);
    }
    Cache[Id] = std::move(R);
  }
  return Cache.at(E.id());
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static const char *kindName(Kind K) {
  switch (K) {
  case Kind::ConstBool:
    return "bool";
  case Kind::ConstBV:
    return "bv";
  case Kind::Var:
    return "var";
  case Kind::App:
    return "app";
  case Kind::Not:
    return "not";
  case Kind::And:
    return "and";
  case Kind::Or:
    return "or";
  case Kind::Xor:
    return "xor";
  case Kind::Ite:
    return "ite";
  case Kind::Eq:
    return "=";
  case Kind::Ult:
    return "bvult";
  case Kind::Slt:
    return "bvslt";
  case Kind::Add:
    return "bvadd";
  case Kind::Mul:
    return "bvmul";
  case Kind::UDiv:
    return "bvudiv";
  case Kind::URem:
    return "bvurem";
  case Kind::SDiv:
    return "bvsdiv";
  case Kind::SRem:
    return "bvsrem";
  case Kind::BAnd:
    return "bvand";
  case Kind::BOr:
    return "bvor";
  case Kind::BXor:
    return "bvxor";
  case Kind::BNot:
    return "bvnot";
  case Kind::Shl:
    return "bvshl";
  case Kind::LShr:
    return "bvlshr";
  case Kind::AShr:
    return "bvashr";
  case Kind::Concat:
    return "concat";
  case Kind::Extract:
    return "extract";
  }
  return "?";
}

static void printRec(Expr E, std::string &Out, unsigned Depth) {
  const Node &N = E.node();
  if (Depth > 64) {
    Out += "...";
    return;
  }
  switch (N.K) {
  case Kind::ConstBool:
    Out += N.P0 ? "true" : "false";
    return;
  case Kind::ConstBV:
    Out += "#" + N.Cst.toHexString().substr(2);
    return;
  case Kind::Var:
    Out += N.Name;
    return;
  default:
    break;
  }
  Out += "(";
  if (N.K == Kind::App)
    Out += N.Name;
  else
    Out += kindName(N.K);
  if (N.K == Kind::Extract)
    Out += " " + std::to_string(N.P0) + " " + std::to_string(N.P1);
  for (ExprId Op : N.Ops) {
    Out += " ";
    printRec(Expr(Op), Out, Depth + 1);
  }
  Out += ")";
}

std::string smt::toString(Expr E) {
  if (!E.isValid())
    return "<invalid>";
  std::string Out;
  printRec(E, Out, 0);
  return Out;
}
