//===- smt/Solver.h - SMT solver facade -------------------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver interface the rest of the system talks to (where Alive2 talks
/// to Z3). Handles Ackermannization of uninterpreted applications, incremental
/// assertion, bit-blasting, resource budgets and model extraction. Budgets
/// map onto the paper's verdict classes: exceeding the wall-clock budget is a
/// Timeout, exceeding the memory budget an OOM.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_SOLVER_H
#define ALIVE2RE_SMT_SOLVER_H

#include "smt/BitBlast.h"
#include "smt/Expr.h"
#include "smt/Sat.h"

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace alive::smt {

enum class SatResult { Sat, Unsat, Unknown };

/// The trace/JSON spelling of \p R (lower-case; defined in Outcome.cpp so
/// the literals live in exactly one place).
const char *toString(SatResult R);

/// Outcome of a check: a verdict, a model when Sat, and a typed reason when
/// Unknown (Timeout, Memory, Cancelled, ConflictBudget, QuantifierLimit).
/// The check's effort is on the enclosing prof::Span (see
/// support/Profile.h).
struct SolveOutcome {
  SatResult Res = SatResult::Unknown;
  Model M;
  Reason UnknownReason = Reason::None;

  bool isSat() const { return Res == SatResult::Sat; }
  bool isUnsat() const { return Res == SatResult::Unsat; }
  bool isUnknown() const { return Res == SatResult::Unknown; }
};

/// Ackermann's reduction, the one place congruence axioms are built: each
/// uninterpreted application becomes a fresh variable, and two applications
/// of one function get the axiom "equal arguments imply equal results".
/// For an exists-forall query, an application is inner when its name starts
/// with one of \p InnerPrefixes or a rewritten argument mentions one of
/// \p InnerVars; its variable then joins \p InnerVars. An axiom is inner
/// when either of its applications is. Without them, all are outer.
class Ackermannizer {
public:
  explicit Ackermannizer(
      std::unordered_set<ExprId> *InnerVars = nullptr,
      const std::vector<std::string> *InnerPrefixes = nullptr)
      : InnerVars(InnerVars), InnerPrefixes(InnerPrefixes) {}

  /// Gives each application reachable from \p Roots that has no variable
  /// yet a fresh one, in increasing id order (arguments hold only lower
  /// ids), and hands each axiom against an earlier application that does
  /// not fold to true to \p OnAxiom(Axiom, IsInner) as it is built.
  /// \returns false when \p Roots reach no application.
  bool addApps(std::span<const Expr> Roots,
               const std::function<void(Expr, bool)> &OnAxiom);

  /// \p E with every application replaced by its variable.
  Expr rewrite(Expr E) const { return rewriteApps(E, Vars); }

private:
  struct App {
    Expr Var;
    std::vector<Expr> Args;
    bool Inner;
  };
  std::unordered_set<ExprId> *InnerVars;
  const std::vector<std::string> *InnerPrefixes;
  std::unordered_map<std::string, std::vector<App>> ByFn;
  std::unordered_map<ExprId, Expr> Vars;
};

/// Incremental quantifier-free solver over the Expr language.
class Solver {
public:
  /// Bit-blasting and every check honour \p Limit: once bit-blasting stops
  /// past the literal budget or at a poll, check() answers Unknown
  /// (Reason::Memory, Timeout or Cancelled) without searching.
  explicit Solver(const TimeLimit &Limit = TimeLimit());
  ~Solver();

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Asserts the Bool expression \p E (conjunction semantics). Does nothing
  /// once refuted(). Otherwise polls the limit first: once it answers,
  /// bit-blasting stops and check() answers Unknown without searching.
  void add(Expr E);

  /// True once the assertions so far are refuted without a search: one was
  /// trivially false, or the SAT solver hit a conflict at the root. From
  /// then on add() blasts nothing and check() answers Unsat, never Unknown.
  bool refuted() const { return TriviallyUnsat || !Sat->okay(); }

  /// Checks satisfiability of all assertions so far.
  SolveOutcome check();

  /// Statistics for benchmarking. Decisions/propagations are forwarded from
  /// the underlying SatSolver so callers never need solver internals.
  uint64_t numConflicts() const { return Sat->numConflicts(); }
  uint64_t numDecisions() const { return Sat->numDecisions(); }
  uint64_t numPropagations() const { return Sat->numPropagations(); }
  size_t numClauses() const { return Sat->numClauses(); }

private:
  TimeLimit Limit;
  std::unique_ptr<SatSolver> Sat;
  /// Also the table of this solver's variables: a model assigns every
  /// variable it blasted, those that only the congruence axioms mention
  /// included.
  std::unique_ptr<BitBlaster> Blaster;
  bool TriviallyUnsat = false;

  /// Applications of every assertion so far.
  Ackermannizer Ack;
};

/// One-shot convenience: check a single formula.
SolveOutcome checkSat(Expr E, const TimeLimit &Limit = TimeLimit());

} // namespace alive::smt

#endif // ALIVE2RE_SMT_SOLVER_H
