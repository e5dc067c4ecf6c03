//===- smt/Sat.h - CDCL SAT solver ------------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch CDCL SAT solver in the MiniSat lineage: two-literal
/// watching over one compacting clause arena (binary clauses are decided
/// from their watchers alone), first-UIP conflict analysis with
/// recursive-lite clause minimization, EVSIDS branching with phase saving,
/// Luby restarts and LBD-based learned-clause reduction. It is the decision procedure behind
/// the bit-blaster and deliberately supports resource budgets (wall-clock,
/// conflicts, memory) so the translation validator can report the same
/// Timeout / OOM verdict classes as the paper's Figures 7 and 8.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_SAT_H
#define ALIVE2RE_SMT_SAT_H

#include "support/Diag.h"
#include "support/Reason.h"
#include "support/SmallVec.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace alive::smt {

/// Typed early-stop reason shared with the upper layers (support/Reason.h).
using support::Reason;

/// Literal: variable index v with sign. Encoded as 2*v (positive) or
/// 2*v+1 (negated), the usual MiniSat encoding.
using Lit = int32_t;

inline Lit mkLit(int Var, bool Negated = false) { return 2 * Var + Negated; }
inline Lit negLit(Lit L) { return L ^ 1; }
inline int litVar(Lit L) { return L >> 1; }
inline bool litSign(Lit L) { return L & 1; }

enum class SatStatus { Sat, Unsat, Unknown };

/// Resource budget as configured. The refinement layer spends one budget
/// per pair (refine::Options::Budget): TimeoutSec bounds the whole pair,
/// while MaxLiterals and MaxConflicts bound each solver and each check. The
/// solver layers never read TimeoutSec or Cancel themselves; they poll the
/// TimeLimit that starts this budget.
struct SolverBudget {
  double TimeoutSec = 60.0;
  /// Approximate memory budget in CNF literals (~16 bytes each). It caps
  /// the literals bit-blasting may emit as well as the clause database
  /// during search.
  size_t MaxLiterals = size_t(1) << 26;
  uint64_t MaxConflicts = ~uint64_t(0);
  /// Optional cooperative cancellation flag. The refinement layer maps an
  /// Unknown with Reason::Cancelled onto a Timeout verdict. Not owned; must
  /// outlive every TimeLimit started from this budget. Typically points into
  /// a support::CancellationToken (or a ResourceGovernor job slot) held by a
  /// refine::Validator.
  const std::atomic<bool> *Cancel = nullptr;
};

/// A SolverBudget in force: its time limit fixed once, when the TimeLimit
/// is built, as the instant TimeoutSec later on the steady clock, or an
/// earlier instant the caller caps it with (a Validator's batch deadline).
/// A pair builds one when its verify_pair span opens, a standalone query at
/// its top-level call, and every layer below (the SAT search, bit-blasting,
/// each exists-forall query and its rounds, each staged query) polls that
/// one instant through poll().
class TimeLimit {
public:
  using Instant = std::chrono::steady_clock::time_point;

  /// Starts \p Budget now: the instant is TimeoutSec from now, or
  /// \p NotAfter when that comes first.
  explicit TimeLimit(const SolverBudget &Budget = SolverBudget(),
                     Instant NotAfter = Instant::max());

  /// The instant \p Sec seconds from now; Instant::max(), no limit, when
  /// \p Sec lies beyond the clock's range (a default 60 s is far inside it).
  static Instant after(double Sec);

  /// Reason::Cancelled when the cancel flag is set, else Reason::Timeout
  /// when the clock is past the instant, else Reason::None: go on.
  Reason poll() const;

  /// True when NotAfter, not TimeoutSec, fixed the instant: every Timeout
  /// poll() answers is then NotAfter's.
  bool capped() const { return Capped; }

  /// The budget this limit started; its MaxLiterals and MaxConflicts bound
  /// each solver and each check.
  const SolverBudget &budget() const { return Budget; }

private:
  SolverBudget Budget;
  Instant Until;
  bool Capped = false;
};

/// CDCL solver. Usage: newVar()* -> addClause()* -> solve() -> modelValue().
/// Incremental use is supported: more clauses may be added after a solve and
/// solve() called again (used by the CEGIS refinement loop).
class SatSolver {
public:
  SatSolver();
  ~SatSolver();

  SatSolver(const SatSolver &) = delete;
  SatSolver &operator=(const SatSolver &) = delete;

  /// Creates a fresh variable and returns its index.
  int newVar();
  int numVars() const { return (int)Assign.size(); }

  /// Adds a clause (simplifying duplicates/tautologies). A clause that
  /// becomes unit is propagated at once.
  /// \returns false if the database became trivially unsatisfiable.
  bool addClause(std::span<const Lit> Lits);
  bool addClause(Lit A) { return addClause(std::span<const Lit>(&A, 1)); }
  bool addClause(Lit A, Lit B) {
    const Lit Lits[] = {A, B};
    return addClause(Lits);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    const Lit Lits[] = {A, B, C};
    return addClause(Lits);
  }

  /// Searches within \p Limit: past its instant, once its cancel flag is
  /// set, past its budget's MaxConflicts conflicts in this call or past
  /// MaxLiterals clause-database literals, it answers Unknown.
  SatStatus solve(const TimeLimit &Limit = TimeLimit());

  /// solve() polls its time limit after the propagation pass that crosses
  /// each multiple of this many propagations, besides every 256 conflicts:
  /// a search with heavy propagation and few conflicts still stops in time.
  /// A decision propagates at least its own literal, so no more than this
  /// many decisions pass between two polls.
  static constexpr uint64_t PropagationsPerPoll = uint64_t(1) << 12;

  /// False once the clauses are refuted at the root: an empty clause, or a
  /// conflict of root propagation (MiniSat's okay()). addClause() then adds
  /// nothing and solve() answers Unsat without searching.
  bool okay() const { return !Unsat; }

  /// Value of a variable in the satisfying assignment (only after Sat).
  bool modelValue(int Var) const;

  /// Reason for the last Unknown result (Timeout, Memory, Cancelled or
  /// ConflictBudget).
  Reason unknownReason() const { return UnknownReason; }

  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numDecisions() const { return Decisions; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numLearnedClauses() const { return LearnedClauses; }
  uint64_t numDbReductions() const { return DbReductions; }
  /// Live (original plus kept learned) clauses of two or more literals.
  size_t numClauses() const { return NumClauses; }

private:
  // Clause database: one arena of 32-bit words holding every clause as a
  // record [size, LBD << 2 | learned << 1 | deleted, activity (a double over
  // two words), literals...]. A CRef is the word offset of a record. Records
  // stay in creation order; reduceDB() drops the deleted ones by sliding
  // the rest down and relocating watchers and reasons.
  using CRef = uint32_t;
  static constexpr CRef NoReason = ~CRef(0);
  static constexpr uint32_t HeaderWords = 4;
  static constexpr uint32_t LearnedBit = 2, DeletedBit = 1;

  /// A watch-list entry: the clause's offset shifted left once with the low
  /// bit set for a binary clause, and a blocker literal. A binary clause's
  /// blocker is always its other literal, so propagate() decides it without
  /// reading the record.
  struct Watcher {
    uint32_t RefBin;
    Lit Blocker;
    CRef ref() const { return RefBin >> 1; }
    bool binary() const { return RefBin & 1; }
  };

  /// One literal's watchers, in the order they were added. Empty is the
  /// most common length, so a list takes the 24 bytes an empty std::vector
  /// took; that room holds two watchers in place. 70% of lists never hold
  /// more, and only a longer list takes a heap block (DESIGN.md "Expression
  /// kernel storage").
  static constexpr unsigned InlineWatchers = 2;
  using WatchList = SmallVec<Watcher, InlineWatchers>;

  std::vector<uint32_t> Arena;
  size_t NumClauses = 0;
  std::vector<WatchList> Watches; // indexed by Lit
  std::vector<int8_t> Assign;     // per var: 0 unset, 1 true, -1 false
  std::vector<int> Level;         // per var
  std::vector<CRef> Reasons;      // per var
  std::vector<bool> Phase;        // saved phases
  std::vector<double> Activity;   // VSIDS
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;
  double VarInc = 1.0;
  double ClaInc = 1.0;
  bool Unsat = false;
  Reason UnknownReason = Reason::None;
  size_t TotalLiterals = 0;

  // Heap-free branching: we keep a simple order heap.
  std::vector<int> Heap;    // binary max-heap of var indices by Activity
  std::vector<int> HeapPos; // var -> position in Heap or -1

  uint64_t Conflicts = 0, Decisions = 0, Propagations = 0;
  uint64_t Restarts = 0, LearnedClauses = 0, DbReductions = 0;
  std::vector<uint8_t> SeenBuf;
  std::vector<int> ToClear;
  // Work buffers reused across calls, so neither adding a clause nor
  // analysing a conflict allocates.
  std::vector<Lit> AddBuf;      // addClause: the simplified clause
  std::vector<Lit> Learnt;      // analyze: the learnt clause
  std::vector<int> LevelBuf;    // analyze: levels for the LBD
  std::vector<Lit> RedStack;    // litRedundant: DFS stack
  std::vector<int> RedTouched;  // litRedundant: marks to roll back

  int decisionLevel() const { return (int)TrailLim.size(); }
  int8_t value(Lit L) const {
    int8_t V = Assign[litVar(L)];
    return litSign(L) ? (int8_t)-V : V;
  }

  uint32_t clauseSize(CRef R) const { return Arena[R]; }
  Lit *clauseLits(CRef R) {
    return reinterpret_cast<Lit *>(Arena.data() + R + HeaderWords);
  }
  bool isLearned(CRef R) const { return Arena[R + 1] & LearnedBit; }
  bool isDeleted(CRef R) const { return Arena[R + 1] & DeletedBit; }
  uint32_t lbd(CRef R) const { return Arena[R + 1] >> 2; }
  double activity(CRef R) const {
    double A;
    std::memcpy(&A, &Arena[R + 2], sizeof A);
    return A;
  }
  void setActivity(CRef R, double A) {
    std::memcpy(&Arena[R + 2], &A, sizeof A);
  }
  CRef nextClause(CRef R) const { return R + HeaderWords + clauseSize(R); }
  /// The literals of \p R, the reason for the true literal \p Implied, with
  /// \p Implied first. Propagation keeps that order in long clauses; a
  /// binary clause is propagated from its watcher alone, so it is ordered
  /// here, when a conflict analysis first reads it.
  Lit *reasonLits(CRef R, Lit Implied) {
    Lit *Lits = clauseLits(R);
    if (Lits[0] != Implied)
      std::swap(Lits[0], Lits[1]);
    assert(Lits[0] == Implied && "reason does not imply the literal");
    return Lits;
  }

  void enqueue(Lit L, CRef From);
  CRef propagate();
  /// Leaves the first-UIP clause of conflict \p Confl in Learnt.
  void analyze(CRef Confl, int &OutBtLevel, uint32_t &OutLbd);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void backtrack(int ToLevel);
  void bumpVar(int Var);
  void bumpClause(CRef R);
  void decayActivities();
  CRef attachClause(std::span<const Lit> Lits, bool Learned, uint32_t Lbd);
  void reduceDB();
  void compactArena();
  void rebuildHeap();
  void heapInsert(int Var);
  int heapPop();
  void heapUp(int Pos);
  void heapDown(int Pos);
  static uint64_t lubySequence(uint64_t I);
};

} // namespace alive::smt

#endif // ALIVE2RE_SMT_SAT_H
