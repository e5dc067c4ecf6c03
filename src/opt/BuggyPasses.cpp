//===- opt/BuggyPasses.cpp - Seeded miscompilations ---------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Deliberately incorrect transformations reproducing the published LLVM
/// bug classes of Sections 8.2/8.4/8.5. Each pass applies a rewrite that
/// looks locally plausible but violates refinement; the evaluation harness
/// runs them to score the validator's verdicts.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

using namespace alive;
using namespace alive::opt;
using namespace alive::ir;

namespace {

/// Section 8.2's top class (43 cases): folds that are wrong when undef is
/// an operand: "and undef, c -> undef" (the and can only produce subsets of
/// c's bits), "mul undef, c -> undef" (only multiples of c), and
/// "xor undef, undef -> 0" (two observations need not cancel... that one is
/// actually correct by refinement; the wrong direction is folding a single
/// shl). Here: and/or/mul with undef fold to undef, and "shl undef, c ->
/// undef" (the result always has c low zero bits).
class UndefFoldBug final : public Pass {
public:
  const char *name() const override { return "bug-undef-fold"; }
  bool run(Function &F) override {
    return rewriteInstructions(
        F, [](Function &Fn, BasicBlock *, unsigned, Instr *I) -> Value * {
          auto *B = dyn_cast<BinOp>(I);
          if (!B)
            return nullptr;
          bool HasUndef =
              isa<UndefValue>(B->op(0)) || isa<UndefValue>(B->op(1));
          if (!HasUndef)
            return nullptr;
          switch (B->getOp()) {
          case BinOp::Op::And:
          case BinOp::Op::Or:
          case BinOp::Op::Mul:
          case BinOp::Op::Shl:
            return Fn.getUndef(B->type());
          default:
            return nullptr;
          }
        });
  }
};

/// The Section 8.4 select bug: select c, x, false -> and c, x without
/// freezing x (poison in the untaken arm escapes).
class SelectArithBug final : public Pass {
public:
  const char *name() const override { return "bug-select-arith"; }
  bool run(Function &F) override {
    return rewriteInstructions(
        F,
        [](Function &Fn, BasicBlock *BB, unsigned Idx, Instr *I) -> Value * {
          auto *S = dyn_cast<Select>(I);
          if (!S || !S->type()->isInt() || S->type()->intWidth() != 1)
            return nullptr;
          auto *CF = dyn_cast<ConstInt>(S->op(2));
          if (CF && CF->value().isZero()) {
            auto *And = new BinOp(BinOp::Op::And, S->type(), S->name(),
                                  S->op(0), S->op(1));
            BB->insert(Idx, And);
            return And;
          }
          auto *CT = dyn_cast<ConstInt>(S->op(1));
          if (CT && CT->value().isOne()) {
            auto *Or = new BinOp(BinOp::Op::Or, S->type(), S->name(),
                                 S->op(0), S->op(2));
            BB->insert(Idx, Or);
            return Or;
          }
          return nullptr;
        });
  }
};

/// Section 8.2's second class (18 cases): introducing a branch on a value
/// that may be undef/poison. Rewrites "select c, a, b" (integer) into real
/// control flow without freezing c.
class BranchOnUndefBug final : public Pass {
public:
  const char *name() const override { return "bug-branch-on-undef"; }
  bool run(Function &F) override {
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BasicBlock *BB = F.block(BI);
      for (unsigned Idx = 0; Idx < BB->size(); ++Idx) {
        auto *S = dyn_cast<Select>(BB->instr(Idx));
        if (!S || !S->type()->isScalar())
          continue;
        // Split the block: BB -> (then/else) -> tail with a phi.
        BasicBlock *Then = F.insertBlockAfter(BB, BB->name() + ".bt");
        BasicBlock *Else = F.insertBlockAfter(Then, BB->name() + ".be");
        BasicBlock *Tail = F.insertBlockAfter(Else, BB->name() + ".bj");
        // Move everything after the select into the tail.
        while (BB->size() > Idx + 1) {
          Instr *Moved = BB->instr(Idx + 1)->clone();
          replaceAllUses(F, BB->instr(Idx + 1), Moved);
          Tail->append(Moved);
          BB->erase(Idx + 1);
        }
        // Successor phis must now name Tail as their predecessor.
        for (unsigned K = 0; K < F.numBlocks(); ++K)
          for (const auto &I2 : *F.block(K))
            if (auto *P = dyn_cast<Phi>(I2.get()))
              for (unsigned In = 0; In < P->numIncoming(); ++In)
                if (P->incomingBlock(In) == BB)
                  P->setIncomingBlock(In, Tail);
        auto *P = new Phi(S->type(), S->name());
        P->addIncoming(S->op(1), Then);
        P->addIncoming(S->op(2), Else);
        Tail->insert(0, P);
        replaceAllUses(F, S, P);
        Value *Cond = S->op(0);
        BB->erase(Idx); // the select
        BB->append(new Br(Cond, Then, Else));
        Then->append(new Br(Tail));
        Else->append(new Br(Tail));
        return true; // one rewrite per run keeps things simple
      }
    }
    return false;
  }
};

/// Section 8.2 vector class (9 cases): an undef shuffle-mask lane is
/// rewritten to pass through the input lane — wrong, because the input lane
/// may be poison while an undef mask lane must yield undef.
class VectorBug final : public Pass {
public:
  const char *name() const override { return "bug-vector"; }
  bool run(Function &F) override {
    bool Changed = false;
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
      for (const auto &I : *F.block(BI))
        if (auto *Sh = dyn_cast<ShuffleVector>(I.get())) {
          auto Mask = Sh->mask();
          bool Rewrote = false;
          for (size_t K = 0; K < Mask.size(); ++K)
            if (Mask[K] < 0) {
              Mask[K] = (int)K; // undef lane -> pass-through (wrong)
              Rewrote = true;
            }
          if (Rewrote) {
            auto *New = new ShuffleVector(Sh->type(), Sh->name(), Sh->op(0),
                                          Sh->op(1), Mask);
            replaceAllUses(F, Sh, New);
            for (unsigned Idx = 0; Idx < F.block(BI)->size(); ++Idx)
              if (F.block(BI)->instr(Idx) == Sh) {
                F.block(BI)->insert(Idx, New);
                F.block(BI)->erase(Idx + 1);
                break;
              }
            Changed = true;
            break;
          }
        }
    return Changed;
  }
};

/// Section 8.2 arithmetic class (4 cases): "(x << c) lshr c -> x" drops the
/// high bits, and selected-bug-#1-style reassociation that keeps nsw.
class ArithBug final : public Pass {
public:
  const char *name() const override { return "bug-arith"; }
  bool run(Function &F) override {
    // The reassociation's output matches its own pattern, so fire it at
    // most once per run.
    bool Reassociated = false;
    return rewriteInstructions(
        F,
        [&Reassociated](Function &Fn, BasicBlock *BB, unsigned Idx,
                        Instr *I) -> Value * {
          auto *B = dyn_cast<BinOp>(I);
          if (!B)
            return nullptr;
          // (x << c) >>u c -> x.
          if (B->getOp() == BinOp::Op::LShr) {
            if (auto *B2 = dyn_cast<BinOp>(B->op(0)))
              if (B2->getOp() == BinOp::Op::Shl && B2->op(1) == B->op(1))
                return B2->op(0);
          }
          // (a +nsw b) +nsw c -> (a +nsw c) +nsw b (keeps nsw: selected
          // bug #1's essence).
          if (!Reassociated && B->getOp() == BinOp::Op::Add &&
              B->flags().NSW) {
            if (auto *B2 = dyn_cast<BinOp>(B->op(0))) {
              if (B2->getOp() == BinOp::Op::Add && B2->flags().NSW) {
                BinOp::Flags Fl;
                Fl.NSW = true;
                auto *Inner = new BinOp(BinOp::Op::Add, B->type(),
                                        B->name() + ".ra", B2->op(0),
                                        B->op(1), Fl);
                BB->insert(Idx, Inner);
                auto *Outer = new BinOp(BinOp::Op::Add, B->type(), B->name(),
                                        Inner, B2->op(1), Fl);
                BB->insert(Idx + 1, Outer);
                Reassociated = true;
                return Outer;
              }
            }
          }
          return nullptr;
        });
  }
};

/// Section 8.2 fast-math class (3 cases): selected bug #2 — removes
/// "fadd x, +0.0" whenever x is produced by an nsz operation, ignoring
/// that the fadd canonicalizes -0.0 to +0.0.
class FastMathBug final : public Pass {
public:
  const char *name() const override { return "bug-fastmath"; }
  bool run(Function &F) override {
    return rewriteInstructions(
        F, [](Function &Fn, BasicBlock *, unsigned, Instr *I) -> Value * {
          auto *B = dyn_cast<FBinOp>(I);
          if (!B || B->getOp() != FBinOp::Op::FAdd)
            return nullptr;
          auto *C = dyn_cast<ConstFP>(B->op(1));
          if (!C || !C->bits().isZero())
            return nullptr; // only x + (+0.0)
          return B->op(0);
        });
  }
};

/// Section 8.2 bitcast class (3 cases): removes fp->int->fp bitcast round
/// trips, wrong under the NaN-bit-pattern-nondeterminism semantics the
/// project adopted (Section 3.5).
class BitcastNanBug final : public Pass {
public:
  const char *name() const override { return "bug-bitcast-nan"; }
  bool run(Function &F) override {
    return rewriteInstructions(
        F, [](Function &Fn, BasicBlock *, unsigned, Instr *I) -> Value * {
          auto *C = dyn_cast<Cast>(I);
          if (!C || C->getOp() != Cast::Op::BitCast || !C->type()->isFP())
            return nullptr;
          auto *C2 = dyn_cast<Cast>(C->op(0));
          if (!C2 || C2->getOp() != Cast::Op::BitCast ||
              C2->op(0)->type() != C->type())
            return nullptr;
          return C2->op(0);
        });
  }
};

/// Section 8.2 memory class (17 cases): dead-store elimination that drops
/// the *last* store to a non-local pointer — observable by the caller.
class DseBug final : public Pass {
public:
  const char *name() const override { return "bug-dse"; }
  bool run(Function &F) override {
    for (unsigned BI = F.numBlocks(); BI-- > 0;) {
      BasicBlock *BB = F.block(BI);
      for (unsigned Idx = BB->size(); Idx-- > 0;) {
        auto *St = dyn_cast<Store>(BB->instr(Idx));
        if (!St)
          continue;
        if (isa<Alloca>(St->ptr()))
          continue; // keep it plausible: only drop arg/global stores
        BB->erase(Idx);
        return true;
      }
    }
    return false;
  }
};

/// Section 6 hazard: duplicating a call (the target then performs a call
/// the source cannot match at that memory version).
class CallDupBug final : public Pass {
public:
  const char *name() const override { return "bug-call-dup"; }
  bool run(Function &F) override {
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BasicBlock *BB = F.block(BI);
      for (unsigned Idx = 0; Idx < BB->size(); ++Idx) {
        auto *C = dyn_cast<Call>(BB->instr(Idx));
        if (!C || C->callee().rfind("llvm.", 0) == 0)
          continue;
        BB->insert(Idx, new Call(C->type(), C->name().empty()
                                                ? std::string()
                                                : C->name() + ".dup",
                                 C->callee(), C->operands()));
        return true;
      }
    }
    return false;
  }
};

} // namespace

std::unique_ptr<Pass> opt::createBuggyPass(const std::string &Name) {
  if (Name == "bug-undef-fold")
    return std::make_unique<UndefFoldBug>();
  if (Name == "bug-select-arith")
    return std::make_unique<SelectArithBug>();
  if (Name == "bug-branch-on-undef")
    return std::make_unique<BranchOnUndefBug>();
  if (Name == "bug-vector")
    return std::make_unique<VectorBug>();
  if (Name == "bug-arith")
    return std::make_unique<ArithBug>();
  if (Name == "bug-fastmath")
    return std::make_unique<FastMathBug>();
  if (Name == "bug-bitcast-nan")
    return std::make_unique<BitcastNanBug>();
  if (Name == "bug-dse")
    return std::make_unique<DseBug>();
  if (Name == "bug-call-dup")
    return std::make_unique<CallDupBug>();
  return nullptr;
}
