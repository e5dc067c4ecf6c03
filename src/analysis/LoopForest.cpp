//===- analysis/LoopForest.cpp - Tarjan-Havlak loop nesting ------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopForest.h"

#include <algorithm>
#include <cassert>

using namespace alive;
using namespace alive::analysis;
using namespace alive::ir;

namespace {

/// Union-find with path compression, used to collapse discovered loop
/// bodies onto their headers as Havlak's algorithm proceeds.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    for (size_t I = 0; I < N; ++I)
      Parent[I] = (unsigned)I;
  }
  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  void unite(unsigned Child, unsigned Root) { Parent[find(Child)] = find(Root); }

private:
  std::vector<unsigned> Parent;
};

} // namespace

LoopForest::LoopForest(const Cfg &G) {
  // DFS preorder numbering with subtree extents for ancestor tests.
  const Function &F = G.function();
  if (!F.entry())
    return;

  std::unordered_map<BasicBlock *, unsigned> Number;
  std::vector<BasicBlock *> ByNumber;
  std::vector<unsigned> Last;

  {
    // Iterative DFS computing preorder numbers and completion extents.
    struct Frame {
      BasicBlock *BB;
      std::vector<BasicBlock *> Succs;
      size_t Next = 0;
    };
    std::vector<Frame> Stack;
    Stack.push_back({F.entry(), F.entry()->successors()});
    Number[F.entry()] = 0;
    ByNumber.push_back(F.entry());
    Last.push_back(0);
    while (!Stack.empty()) {
      Frame &Fr = Stack.back();
      if (Fr.Next < Fr.Succs.size()) {
        BasicBlock *S = Fr.Succs[Fr.Next++];
        if (!Number.count(S)) {
          unsigned N = (unsigned)ByNumber.size();
          Number[S] = N;
          ByNumber.push_back(S);
          Last.push_back(N);
          Stack.push_back({S, S->successors()});
        }
        continue;
      }
      unsigned N = Number[Fr.BB];
      Last[N] = (unsigned)ByNumber.size() - 1;
      Stack.pop_back();
    }
  }

  auto isAncestor = [&](unsigned W, unsigned V) {
    return W <= V && V <= Last[W];
  };

  size_t N = ByNumber.size();
  UnionFind Uf(N);
  std::vector<Loop *> HeaderLoop(N, nullptr); // loop headed by node, if any
  std::vector<Loop *> InnermostOf(N, nullptr);

  // Process nodes in reverse preorder (inside-out discovery).
  for (size_t WI = N; WI-- > 0;) {
    BasicBlock *W = ByNumber[WI];
    std::vector<unsigned> BodyReps;
    std::vector<BasicBlock *> Latches;
    bool SelfLoop = false;
    for (BasicBlock *V : G.preds(W)) {
      auto It = Number.find(V);
      if (It == Number.end())
        continue; // unreachable predecessor
      unsigned VI = It->second;
      if (isAncestor((unsigned)WI, VI)) {
        // Back edge V -> W.
        Latches.push_back(V);
        if (VI == WI)
          SelfLoop = true;
        else
          BodyReps.push_back(Uf.find(VI));
      }
    }
    if (BodyReps.empty() && !SelfLoop)
      continue;

    Loops.emplace_back(std::make_unique<Loop>());
    Loop *L = Loops.back().get();
    L->Header = W;
    L->Latches = std::move(Latches);
    HeaderLoop[WI] = L;

    // Chase predecessors of the loop body back to the header.
    std::vector<unsigned> Worklist = BodyReps;
    std::unordered_set<unsigned> InBody(BodyReps.begin(), BodyReps.end());
    while (!Worklist.empty()) {
      unsigned X = Worklist.back();
      Worklist.pop_back();
      for (BasicBlock *Y : G.preds(ByNumber[X])) {
        auto It = Number.find(Y);
        if (It == Number.end())
          continue;
        unsigned YI = It->second;
        if (isAncestor(X, YI) && YI != X)
          continue; // back edge into an inner header; already collapsed
        unsigned YRep = Uf.find(YI);
        if (!isAncestor((unsigned)WI, YRep)) {
          // Entry into the loop body that bypasses the header.
          Irreducible = true;
          L->Irreducible = true;
          continue;
        }
        if (YRep != WI && !InBody.count(YRep)) {
          InBody.insert(YRep);
          Worklist.push_back(YRep);
        }
      }
    }

    // Attach body representatives: inner loop headers become children,
    // plain blocks become members.
    L->Blocks.insert(W);
    for (unsigned X : InBody) {
      Uf.unite(X, (unsigned)WI);
      if (Loop *Inner = HeaderLoop[X]) {
        Inner->Parent = L;
        L->Children.push_back(Inner);
        for (BasicBlock *BB : Inner->Blocks)
          L->Blocks.insert(BB);
      } else {
        L->Blocks.insert(ByNumber[X]);
        if (!InnermostOf[X])
          InnermostOf[X] = L;
      }
    }
    if (!InnermostOf[WI])
      InnermostOf[WI] = L;
  }

  for (const auto &L : Loops)
    if (!L->Parent)
      TopLevel.push_back(L.get());

  for (size_t I = 0; I < N; ++I)
    if (InnermostOf[I])
      Innermost[ByNumber[I]] = InnermostOf[I];
}

Loop *LoopForest::loopFor(const BasicBlock *BB) const {
  auto It = Innermost.find(BB);
  return It == Innermost.end() ? nullptr : It->second;
}

std::vector<Loop *> LoopForest::postOrder() const {
  std::vector<Loop *> Out;
  std::vector<std::pair<Loop *, bool>> Stack;
  for (auto It = TopLevel.rbegin(); It != TopLevel.rend(); ++It)
    Stack.push_back({*It, false});
  while (!Stack.empty()) {
    auto [L, Expanded] = Stack.back();
    Stack.pop_back();
    if (Expanded) {
      Out.push_back(L);
      continue;
    }
    Stack.push_back({L, true});
    for (Loop *C : L->Children)
      Stack.push_back({C, false});
  }
  return Out;
}
