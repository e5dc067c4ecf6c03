//===- smt/BitBlast.h - Tseitin bit-blasting to CNF -------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the bit-vector expression DAG to CNF over the CDCL solver:
/// ripple-carry adders, shift-add multipliers, restoring dividers, barrel
/// shifters and comparator chains, with per-node memoization so shared
/// subterms are blasted once, and structural hashing so equal gates are
/// built once even when they come from different subterms. Uninterpreted
/// applications must have been eliminated (Ackermannized) by the Solver
/// facade before blasting.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_BITBLAST_H
#define ALIVE2RE_SMT_BITBLAST_H

#include "smt/Expr.h"
#include "smt/Sat.h"

#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace alive::smt {

/// Translates expressions to CNF. It is also its solver's table of
/// variables: the literals of every variable it blasted, and their order,
/// from which the solver reads a model.
class BitBlaster {
public:
  /// Blasts into \p Solver within \p Limit: past its budget's MaxLiterals
  /// emitted literals, or once its poll answers Timeout or Cancelled, it
  /// stops. It also stops once \p Solver is refuted at the root
  /// (SatSolver::okay()), when no clause can change the answer.
  BitBlaster(SatSolver &Solver, const TimeLimit &Limit);
  /// Adds its CNF counts to the `bitblast.*` counters of the stats
  /// registry.
  ~BitBlaster();

  BitBlaster(const BitBlaster &) = delete;
  BitBlaster &operator=(const BitBlaster &) = delete;

  /// Asserts that the Bool expression \p E holds.
  void assertTrue(Expr E);

  /// \returns a literal equivalent to the Bool expression \p E.
  Lit blastBool(Expr E);

  /// \returns literals for each bit of the bit-vector \p E, LSB first.
  const std::vector<Lit> &blastBV(Expr E);

  /// The variables blasted so far, in blasting order.
  const std::vector<ExprId> &vars() const { return Vars; }

  /// Reads back the value of a previously-blasted variable from the SAT
  /// model; also answers for variables never blasted (defaulting to zero).
  BitVec readVar(Expr Var) const;

  /// True once a budget ran out. Results are then unusable: the blaster
  /// emits nothing more, and blastBool/blastBV return placeholders without
  /// descending.
  bool overBudget() const { return Stop != Reason::None; }
  /// Why blasting stopped: Memory past the literal budget, Timeout or
  /// Cancelled from the time limit, polled every ClausesPerPoll clauses and
  /// after each growth of the gate table, or passed in by stop(); None
  /// while it runs.
  Reason stopReason() const { return Stop; }
  /// Stops blasting for \p Why (a poll's answer outside the blaster), unless
  /// it has stopped already.
  void stop(Reason Why) {
    if (Stop == Reason::None)
      Stop = Why;
  }

  /// CNF-size telemetry, cumulative since construction.
  uint64_t numGateHits() const { return GateHits; }
  uint64_t numClausesEmitted() const { return ClausesEmitted; }

private:
  SatSolver &S;
  std::unordered_map<ExprId, Lit> BoolCache;
  std::unordered_map<ExprId, std::vector<Lit>> BVCache;
  std::vector<ExprId> Vars;
  Lit TrueLit;
  Reason Stop = Reason::None;
  TimeLimit Limit;
  static constexpr uint64_t ClausesPerPoll = uint64_t(1) << 12;
  size_t EmittedLiterals = 0;
  uint64_t CacheHits = 0, GateHits = 0, FreshVars = 0, ClausesEmitted = 0;

  /// The gate table (structural hashing): every AND, XOR and ITE gate built
  /// so far, keyed by its canonical inputs, in one flat open-addressing
  /// table with linear probing. The capacity is a power of two and doubles
  /// when an insertion would fill more than half of it. The first gate
  /// allocates FirstGateSlots, enough for the 256 gates that most blasters
  /// of the benchmark workloads stay under; a blaster that builds no gate
  /// allocates nothing (DESIGN.md "Bit-blaster"). AND and XOR keys carry a
  /// negative tag in place of a third input.
  struct Gate {
    Lit In[3] = {0, 0, 0};
    Lit Out = -1; // -1: an empty slot
  };
  static constexpr Lit AndTag = -1, XorTag = -2;
  static constexpr size_t FirstGateSlots = 512;
  std::vector<Gate> Gates;
  size_t NumGates = 0;

  Lit falseLit() const { return negLit(TrueLit); }
  /// True once blasting emits nothing more: a budget ran out, or the solver
  /// is refuted at the root, so no further clause can change its answer.
  /// blastBool/blastBV then return placeholders without descending.
  bool halted() const { return Stop != Reason::None || !S.okay(); }
  Lit fresh();
  void clause(std::initializer_list<Lit> Lits);
  /// The slot of gate (\p A, \p B, \p C): its entry, or the empty slot
  /// where it belongs.
  Gate &gateSlot(Lit A, Lit B, Lit C);
  /// Looks up the canonical gate (\p A, \p B, \p C). \returns its output and
  /// true when it exists; otherwise enters it with a fresh output and
  /// \returns that and false, and the caller emits the gate's clauses.
  std::pair<Lit, bool> findOrAddGate(Lit A, Lit B, Lit C);

  Lit gateAnd(Lit A, Lit B);
  Lit gateOr(Lit A, Lit B);
  Lit gateXor(Lit A, Lit B);
  Lit gateIte(Lit C, Lit T, Lit F);
  Lit gateEq(Lit A, Lit B) { return negLit(gateXor(A, B)); }

  std::vector<Lit> adder(const std::vector<Lit> &A, const std::vector<Lit> &B,
                         Lit CarryIn);
  std::vector<Lit> negate(const std::vector<Lit> &A);
  std::vector<Lit> multiplier(const std::vector<Lit> &A,
                              const std::vector<Lit> &B);
  /// Computes both quotient and remainder of unsigned division.
  void divider(const std::vector<Lit> &A, const std::vector<Lit> &B,
               std::vector<Lit> &Quot, std::vector<Lit> &Rem);
  std::vector<Lit> shifter(const std::vector<Lit> &A,
                           const std::vector<Lit> &B, Kind ShiftKind);
  Lit comparatorUlt(const std::vector<Lit> &A, const std::vector<Lit> &B);
  std::vector<Lit> mux(Lit C, const std::vector<Lit> &T,
                       const std::vector<Lit> &F);
  Lit equalVec(const std::vector<Lit> &A, const std::vector<Lit> &B);
};

} // namespace alive::smt

#endif // ALIVE2RE_SMT_BITBLAST_H
