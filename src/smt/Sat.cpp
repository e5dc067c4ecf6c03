//===- smt/Sat.cpp - CDCL SAT solver ---------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Sat.h"

#include "support/Profile.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alive;
using namespace alive::smt;

SatSolver::SatSolver() = default;
SatSolver::~SatSolver() = default;

int SatSolver::newVar() {
  int V = (int)Assign.size();
  Assign.push_back(0);
  Level.push_back(0);
  Reasons.push_back(NoReason);
  Phase.push_back(false);
  Activity.push_back(0.0);
  SeenBuf.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  HeapPos.push_back(-1);
  heapInsert(V);
  return V;
}

bool SatSolver::addClause(std::span<const Lit> Lits) {
  if (Unsat)
    return false;
  // Incremental use: return to the root level before touching the database.
  backtrack(0);
  // Simplify: sort, dedupe, drop false literals, detect tautology/satisfied.
  AddBuf.assign(Lits.begin(), Lits.end());
  std::sort(AddBuf.begin(), AddBuf.end());
  size_t Out = 0;
  Lit Prev = -1;
  for (size_t I = 0; I < AddBuf.size(); ++I) {
    Lit L = AddBuf[I];
    assert(litVar(L) < numVars() && "literal references unknown variable");
    if (L == Prev)
      continue;
    if (Prev >= 0 && L == negLit(Prev) && litVar(L) == litVar(Prev))
      return true; // tautology
    if (value(L) == 1 && Level[litVar(L)] == 0)
      return true; // already satisfied
    if (value(L) == -1 && Level[litVar(L)] == 0)
      continue; // drop root-false literal
    AddBuf[Out++] = L;
    Prev = L;
  }
  AddBuf.resize(Out);
  if (AddBuf.empty()) {
    Unsat = true;
    return false;
  }
  if (AddBuf.size() == 1) {
    if (value(AddBuf[0]) == -1) {
      Unsat = true;
      return false;
    }
    if (value(AddBuf[0]) == 0) {
      enqueue(AddBuf[0], NoReason);
      if (propagate() != NoReason) {
        Unsat = true;
        return false;
      }
    }
    return true;
  }
  attachClause(AddBuf, /*Learned=*/false, /*Lbd=*/0);
  return true;
}

SatSolver::CRef SatSolver::attachClause(std::span<const Lit> Lits,
                                        bool Learned, uint32_t Lbd) {
  // Watchers hold the offset shifted left once; the literal budget keeps
  // the arena far below that limit.
  assert(Arena.size() + HeaderWords + Lits.size() < (size_t(1) << 31) &&
         "clause arena exceeds the watcher's offset range");
  CRef Ref = (CRef)Arena.size();
  TotalLiterals += Lits.size();
  ++NumClauses;
  Arena.resize(Ref + HeaderWords + Lits.size());
  Arena[Ref] = (uint32_t)Lits.size();
  Arena[Ref + 1] = Lbd << 2 | (Learned ? LearnedBit : 0);
  setActivity(Ref, Learned ? ClaInc : 0.0);
  std::copy(Lits.begin(), Lits.end(), clauseLits(Ref));
  uint32_t RefBin = Ref << 1 | (Lits.size() == 2);
  Watches[negLit(Lits[0])].push_back({RefBin, Lits[1]});
  Watches[negLit(Lits[1])].push_back({RefBin, Lits[0]});
  return Ref;
}

void SatSolver::enqueue(Lit L, CRef From) {
  assert(value(L) == 0 && "enqueueing an assigned literal");
  int V = litVar(L);
  Assign[V] = litSign(L) ? -1 : 1;
  Level[V] = decisionLevel();
  Reasons[V] = From;
  Phase[V] = !litSign(L);
  Trail.push_back(L);
}

SatSolver::CRef SatSolver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++];
    ++Propagations;
    // New watches go to other literals' lists, so Ws's storage stays put.
    WatchList &List = Watches[P];
    Watcher *Ws = List.data();
    uint32_t Size = List.size();
    Lit FalseLit = negLit(P);
    uint32_t I = 0, J = 0;
    CRef Confl = NoReason;
    while (I < Size) {
      Watcher W = Ws[I++];
      if (value(W.Blocker) == 1) {
        Ws[J++] = W;
        continue;
      }
      if (W.binary()) {
        // The blocker is the other literal: the clause is unit or false.
        Ws[J++] = W;
        if (value(W.Blocker) == -1) {
          // Leave the record as [other, falsified], the order the
          // long-clause visit below leaves a conflict in.
          Lit *Lits = clauseLits(W.ref());
          Lits[0] = W.Blocker;
          Lits[1] = FalseLit;
          while (I < Size)
            Ws[J++] = Ws[I++];
          Confl = W.ref();
        } else {
          enqueue(W.Blocker, W.ref());
        }
        continue;
      }
      CRef Ref = W.ref();
      Lit *Lits = clauseLits(Ref);
      uint32_t ClauseSize = clauseSize(Ref);
      // Ensure the false literal is at position 1.
      if (Lits[0] == FalseLit)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == FalseLit && "watch invariant broken");
      Lit First = Lits[0];
      if (First != W.Blocker && value(First) == 1) {
        Ws[J++] = {W.RefBin, First};
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (uint32_t K = 2; K < ClauseSize; ++K) {
        if (value(Lits[K]) != -1) {
          std::swap(Lits[1], Lits[K]);
          Watches[negLit(Lits[1])].push_back({W.RefBin, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      Ws[J++] = {W.RefBin, First};
      if (value(First) == -1) {
        // Conflict: copy the rest of the watchers and bail out.
        while (I < Size)
          Ws[J++] = Ws[I++];
        Confl = Ref;
      } else {
        enqueue(First, Ref);
      }
    }
    List.truncate(J);
    if (Confl != NoReason)
      return Confl;
  }
  return NoReason;
}

void SatSolver::bumpVar(int Var) {
  Activity[Var] += VarInc;
  if (Activity[Var] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[Var] >= 0)
    heapUp(HeapPos[Var]);
}

void SatSolver::bumpClause(CRef R) {
  double A = activity(R) + ClaInc;
  setActivity(R, A);
  if (A > 1e20) {
    for (CRef C = 0; C < Arena.size(); C = nextClause(C))
      setActivity(C, activity(C) * 1e-20);
    ClaInc *= 1e-20;
  }
}

void SatSolver::decayActivities() {
  VarInc /= 0.95;
  ClaInc /= 0.999;
}

void SatSolver::analyze(CRef Confl, int &OutBtLevel, uint32_t &OutLbd) {
  Learnt.clear();
  Learnt.push_back(0); // placeholder for the asserting literal
  int PathCount = 0;
  Lit P = -1;
  size_t Index = Trail.size();

  do {
    assert(Confl != NoReason && "no reason for conflict-side literal");
    if (isLearned(Confl))
      bumpClause(Confl);
    // The conflict clause is read whole; a reason without its implied
    // literal P.
    const Lit *Lits = P == -1 ? clauseLits(Confl) : reasonLits(Confl, P);
    uint32_t Size = clauseSize(Confl);
    for (uint32_t K = (P == -1 ? 0 : 1); K < Size; ++K) {
      Lit Q = Lits[K];
      int V = litVar(Q);
      if (SeenBuf[V] || Level[V] == 0)
        continue;
      SeenBuf[V] = 1;
      ToClear.push_back(V);
      bumpVar(V);
      if (Level[V] >= decisionLevel())
        ++PathCount;
      else
        Learnt.push_back(Q);
    }
    // Find the next literal on the trail to resolve on.
    while (!SeenBuf[litVar(Trail[Index - 1])])
      --Index;
    P = Trail[--Index];
    Confl = Reasons[litVar(P)];
    SeenBuf[litVar(P)] = 0;
    --PathCount;
  } while (PathCount > 0);
  Learnt[0] = negLit(P);

  // Clause minimization: drop literals implied by the rest.
  uint32_t AbstractLevels = 0;
  for (size_t K = 1; K < Learnt.size(); ++K)
    AbstractLevels |= 1u << (Level[litVar(Learnt[K])] & 31);
  size_t NewSize = 1;
  for (size_t K = 1; K < Learnt.size(); ++K) {
    if (Reasons[litVar(Learnt[K])] == NoReason ||
        !litRedundant(Learnt[K], AbstractLevels))
      Learnt[NewSize++] = Learnt[K];
  }
  Learnt.resize(NewSize);

  // Find backtrack level = max level among the non-asserting literals.
  OutBtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t K = 2; K < Learnt.size(); ++K)
      if (Level[litVar(Learnt[K])] > Level[litVar(Learnt[MaxI])])
        MaxI = K;
    std::swap(Learnt[1], Learnt[MaxI]);
    OutBtLevel = Level[litVar(Learnt[1])];
  }

  // LBD = number of distinct decision levels in the learnt clause.
  LevelBuf.clear();
  for (Lit L : Learnt)
    LevelBuf.push_back(Level[litVar(L)]);
  std::sort(LevelBuf.begin(), LevelBuf.end());
  OutLbd = (uint32_t)(std::unique(LevelBuf.begin(), LevelBuf.end()) -
                      LevelBuf.begin());

  // Clear every mark made during this analysis (including marks left by
  // successful litRedundant probes).
  for (int V : ToClear)
    SeenBuf[V] = 0;
  ToClear.clear();
}

bool SatSolver::litRedundant(Lit L, uint32_t AbstractLevels) {
  // DFS over the implication graph checking that every antecedent is either
  // seen or at level 0. Conservative: bails out on decision variables.
  std::vector<Lit> &Stack = RedStack;
  std::vector<int> &Touched = RedTouched;
  Stack.assign(1, L);
  Touched.clear();
  bool Redundant = true;
  while (!Stack.empty() && Redundant) {
    Lit Cur = Stack.back();
    Stack.pop_back();
    CRef R = Reasons[litVar(Cur)];
    if (R == NoReason) {
      Redundant = false;
      break;
    }
    // Cur is false; its reason implies the true literal !Cur.
    const Lit *Lits = reasonLits(R, negLit(Cur));
    uint32_t Size = clauseSize(R);
    for (uint32_t K = 1; K < Size; ++K) {
      Lit Q = Lits[K];
      int V = litVar(Q);
      if (SeenBuf[V] || Level[V] == 0)
        continue;
      if (Reasons[V] == NoReason || !((1u << (Level[V] & 31)) & AbstractLevels)) {
        Redundant = false;
        break;
      }
      SeenBuf[V] = 1;
      Touched.push_back(V);
      ToClear.push_back(V);
      Stack.push_back(Q);
    }
  }
  // Roll back the marks we made if not redundant; keep them if redundant
  // (they are implied and will be cleared by the caller loop anyway).
  if (!Redundant)
    for (int V : Touched)
      SeenBuf[V] = 0;
  return Redundant;
}

void SatSolver::backtrack(int ToLevel) {
  if (decisionLevel() <= ToLevel)
    return;
  for (size_t I = Trail.size(); I > (size_t)TrailLim[ToLevel]; --I) {
    int V = litVar(Trail[I - 1]);
    Assign[V] = 0;
    Reasons[V] = NoReason;
    if (HeapPos[V] < 0)
      heapInsert(V);
  }
  Trail.resize(TrailLim[ToLevel]);
  TrailLim.resize(ToLevel);
  QHead = Trail.size();
}

void SatSolver::reduceDB() {
  // Drop the worst half of the learned clauses by (LBD, activity), keeping
  // reasons and glue (LBD <= 2) clauses.
  std::vector<CRef> Learned;
  for (CRef R = 0; R < Arena.size(); R = nextClause(R)) {
    if (!isLearned(R) || lbd(R) <= 2)
      continue;
    // A clause is locked if it is the reason of its first literal.
    int V0 = litVar(clauseLits(R)[0]);
    if (Assign[V0] != 0 && Reasons[V0] == R)
      continue;
    Learned.push_back(R);
  }
  std::sort(Learned.begin(), Learned.end(), [this](CRef A, CRef B) {
    if (lbd(A) != lbd(B))
      return lbd(A) > lbd(B);
    return activity(A) < activity(B);
  });
  for (size_t I = 0; I < Learned.size() / 2; ++I) {
    CRef R = Learned[I];
    TotalLiterals -= clauseSize(R);
    --NumClauses;
    Arena[R + 1] |= DeletedBit;
  }
  compactArena();
}

void SatSolver::compactArena() {
  // Pass 1: over the old layout, set each record's size word aside and
  // replace it with the record's new offset (NoReason once deleted).
  std::vector<uint32_t> Sizes;
  CRef To = 0;
  for (CRef R = 0; R < Arena.size(); R += HeaderWords + Sizes.back()) {
    Sizes.push_back(clauseSize(R));
    if (isDeleted(R)) {
      Arena[R] = NoReason;
      continue;
    }
    Arena[R] = To;
    To += HeaderWords + Sizes.back();
  }
  // Pass 2: relocate watchers, dropping the deleted clauses' ones, and
  // reasons, which are never deleted (reduceDB keeps locked clauses).
  for (WatchList &Ws : Watches) {
    uint32_t J = 0;
    for (Watcher W : Ws) {
      CRef New = Arena[W.ref()];
      if (New != NoReason)
        Ws[J++] = {New << 1 | W.binary(), W.Blocker};
    }
    Ws.truncate(J);
  }
  for (CRef &R : Reasons)
    if (R != NoReason) {
      assert(Arena[R] != NoReason && "a reason clause was deleted");
      R = Arena[R];
    }
  // Pass 3: slide the live records down in order, restoring their sizes.
  // A record only ever moves down, past records already moved, so every
  // record is intact when its turn comes.
  CRef From = 0;
  for (uint32_t Size : Sizes) {
    CRef New = Arena[From];
    if (New != NoReason) {
      std::memmove(&Arena[New], &Arena[From],
                   (HeaderWords + Size) * sizeof(uint32_t));
      Arena[New] = Size;
    }
    From += HeaderWords + Size;
  }
  Arena.resize(To);
}

uint64_t SatSolver::lubySequence(uint64_t I) {
  // Knuth's formulation of the Luby sequence.
  uint64_t K = 1;
  while ((1ull << (K + 1)) <= I + 1)
    ++K;
  while ((1ull << K) - 1 != I + 1) {
    I = I - ((1ull << K) - 1) + 1 - 1;
    K = 1;
    while ((1ull << (K + 1)) <= I + 1)
      ++K;
  }
  return 1ull << (K - 1);
}

TimeLimit::TimeLimit(const SolverBudget &Budget, Instant NotAfter)
    : Budget(Budget), Until(after(Budget.TimeoutSec)) {
  if (NotAfter < Until) {
    Until = NotAfter;
    Capped = true;
  }
}

TimeLimit::Instant TimeLimit::after(double Sec) {
  if (!(Sec < 1e9))
    return Instant::max();
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(Sec));
}

Reason TimeLimit::poll() const {
  if (Budget.Cancel && Budget.Cancel->load(std::memory_order_relaxed))
    return Reason::Cancelled;
  if (std::chrono::steady_clock::now() > Until)
    return Reason::Timeout;
  return Reason::None;
}

SatStatus SatSolver::solve(const TimeLimit &Limit) {
  // Span first, flusher second: the flusher's destructor runs before the
  // span's, so the span observes this solve's per-thread tally deltas.
  ALIVE_STAT_SAMPLER(SolveTime, "time.sat_check");
  prof::Span ProfSpan("sat_solve", {}, SolveTime);
  // Flush this solve's effort deltas into the global registry on every exit
  // path. The search loop itself only touches plain members.
  struct StatFlusher {
    SatSolver &S;
    const prof::Span &Span;
    uint64_t C0 = S.Conflicts, D0 = S.Decisions, P0 = S.Propagations;
    uint64_t R0 = S.Restarts, L0 = S.LearnedClauses, Red0 = S.DbReductions;
    ~StatFlusher() {
      // One static aggregate = one thread-safe-static guard per solve
      // instead of seven.
      struct Handles {
        stats::Counter Solves = stats::counter("sat.solves");
        stats::Counter Conflicts = stats::counter("sat.conflicts");
        stats::Counter Decisions = stats::counter("sat.decisions");
        stats::Counter Propagations = stats::counter("sat.propagations");
        stats::Counter Restarts = stats::counter("sat.restarts");
        stats::Counter Learned = stats::counter("sat.learned_clauses");
        stats::Counter Reductions = stats::counter("sat.db_reductions");
      };
      static Handles H;
      H.Solves.inc();
      H.Conflicts.inc(S.Conflicts - C0);
      H.Decisions.inc(S.Decisions - D0);
      H.Propagations.inc(S.Propagations - P0);
      H.Restarts.inc(S.Restarts - R0);
      H.Learned.inc(S.LearnedClauses - L0);
      H.Reductions.inc(S.DbReductions - Red0);
      // Same deltas into the per-thread profiling tally: plain adds, so
      // span attribution stays exact under -j N (a pair never migrates
      // between threads).
      prof::Tally &T = prof::tally();
      T.SolverSeconds += Span.seconds();
      T.Conflicts += S.Conflicts - C0;
      T.Decisions += S.Decisions - D0;
      T.Propagations += S.Propagations - P0;
      ++T.SatChecks;
      T.Restarts += S.Restarts - R0;
      T.Clauses = std::max<uint64_t>(T.Clauses, S.NumClauses);
    }
  } Flusher{*this, ProfSpan};

  if (Unsat)
    return SatStatus::Unsat;
  const SolverBudget &Budget = Limit.budget();
  // Polls the time limit, every 256 conflicts and every PropagationsPerPoll
  // propagations; true, with the reason set, when the search must stop.
  auto expired = [&] {
    UnknownReason = Limit.poll();
    return UnknownReason != Reason::None;
  };
  // A cancelled search stops before it starts; a passed instant stops it at
  // the first poll.
  if (Limit.poll() == Reason::Cancelled) {
    UnknownReason = Reason::Cancelled;
    return SatStatus::Unknown;
  }
  if (TotalLiterals > Budget.MaxLiterals) {
    UnknownReason = Reason::Memory;
    return SatStatus::Unknown;
  }
  backtrack(0);
  if (propagate() != NoReason) {
    Unsat = true;
    return SatStatus::Unsat;
  }
  rebuildHeap();

  uint64_t RestartCount = 0;
  uint64_t ConflictsThisRestart = 0;
  uint64_t RestartBudget = 64 * lubySequence(RestartCount);
  uint64_t ConflictsAtStart = Conflicts;
  uint64_t NextReduce = 4000;
  uint64_t NextPoll = Propagations + PropagationsPerPoll;

  while (true) {
    CRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0) {
        Unsat = true;
        return SatStatus::Unsat;
      }
      int BtLevel;
      uint32_t Lbd;
      analyze(Confl, BtLevel, Lbd);
      backtrack(BtLevel);
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
      } else {
        CRef Ref = attachClause(Learnt, /*Learned=*/true, Lbd);
        enqueue(Learnt[0], Ref);
      }
      ++LearnedClauses;
      decayActivities();

      if ((Conflicts & 255) == 0) {
        if (expired())
          return SatStatus::Unknown;
        if (TotalLiterals > Budget.MaxLiterals) {
          UnknownReason = Reason::Memory;
          return SatStatus::Unknown;
        }
      }
      if (Conflicts - ConflictsAtStart > Budget.MaxConflicts) {
        UnknownReason = Reason::ConflictBudget;
        return SatStatus::Unknown;
      }
      if (Conflicts > NextReduce) {
        reduceDB();
        ++DbReductions;
        NextReduce = Conflicts + 4000 + 300 * RestartCount;
      }
      continue;
    }
    // Polled here, not inside a conflict: the trail is fully propagated.
    // Every decision propagates at least its own literal, so this poll also
    // bounds the decisions between two polls.
    if (Propagations >= NextPoll) {
      NextPoll = Propagations + PropagationsPerPoll;
      if (expired())
        return SatStatus::Unknown;
    }

    if (ConflictsThisRestart >= RestartBudget) {
      ConflictsThisRestart = 0;
      RestartBudget = 64 * lubySequence(++RestartCount);
      ++Restarts;
      backtrack(0);
      continue;
    }

    // Pick a branching variable.
    int Next = -1;
    while (!Heap.empty()) {
      int V = heapPop();
      if (Assign[V] == 0) {
        Next = V;
        break;
      }
    }
    if (Next == -1) {
      // Check for any unassigned variable the heap may have missed.
      for (int V = 0; V < numVars(); ++V)
        if (Assign[V] == 0) {
          Next = V;
          break;
        }
      if (Next == -1)
        return SatStatus::Sat;
    }
    ++Decisions;
    TrailLim.push_back((int)Trail.size());
    enqueue(mkLit(Next, !Phase[Next]), NoReason);
  }
}

bool SatSolver::modelValue(int Var) const {
  assert(Var < numVars() && "unknown variable");
  return Assign[Var] == 1;
}

//===----------------------------------------------------------------------===//
// Binary max-heap ordered by Activity
//===----------------------------------------------------------------------===//

void SatSolver::rebuildHeap() {
  Heap.clear();
  for (int V = 0; V < numVars(); ++V)
    HeapPos[V] = -1;
  for (int V = 0; V < numVars(); ++V)
    if (Assign[V] == 0)
      heapInsert(V);
}

void SatSolver::heapInsert(int Var) {
  if (HeapPos[Var] >= 0)
    return;
  HeapPos[Var] = (int)Heap.size();
  Heap.push_back(Var);
  heapUp(HeapPos[Var]);
}

int SatSolver::heapPop() {
  int Top = Heap[0];
  HeapPos[Top] = -1;
  if (Heap.size() > 1) {
    Heap[0] = Heap.back();
    HeapPos[Heap[0]] = 0;
    Heap.pop_back();
    heapDown(0);
  } else {
    Heap.pop_back();
  }
  return Top;
}

void SatSolver::heapUp(int Pos) {
  int Var = Heap[Pos];
  while (Pos > 0) {
    int Parent = (Pos - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[Var])
      break;
    Heap[Pos] = Heap[Parent];
    HeapPos[Heap[Pos]] = Pos;
    Pos = Parent;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}

void SatSolver::heapDown(int Pos) {
  int Var = Heap[Pos];
  size_t N = Heap.size();
  while (true) {
    size_t L = 2 * (size_t)Pos + 1, R = L + 1;
    if (L >= N)
      break;
    size_t Best = (R < N && Activity[Heap[R]] > Activity[Heap[L]]) ? R : L;
    if (Activity[Heap[Best]] <= Activity[Var])
      break;
    Heap[Pos] = Heap[Best];
    HeapPos[Heap[Pos]] = Pos;
    Pos = (int)Best;
  }
  Heap[Pos] = Var;
  HeapPos[Var] = Pos;
}
