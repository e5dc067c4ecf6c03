//===- smt/ExistsForall.h - EF-SMT via CEGIS instantiation ------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides formulas of the shape
///     exists Outer . ( /\ OuterConstraints )  /\  not (exists Inner . Phi)
/// which is exactly the negated-refinement query of Section 5: Outer binds
/// the inputs, outputs and target nondeterminism, Inner binds the source
/// nondeterminism (undef instances, freeze choices, call outputs).
///
/// The engine is counterexample-guided instantiation (CEGIS / MBQI): find a
/// candidate Outer model; check whether some Inner witness satisfies Phi
/// under it; if yes, add the instantiated constraint not Phi[Inner := w]
/// to the outer solver and repeat. Over finite bit-vector domains this
/// terminates; the iteration cap maps to Z3's "quantifiers gave up" outcome
/// that the paper mentions for a few pairs in Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SMT_EXISTSFORALL_H
#define ALIVE2RE_SMT_EXISTSFORALL_H

#include "smt/Solver.h"

namespace alive::smt {

/// An exists-forall query. Outer satisfiability means the property encoded
/// by "no Inner witness" fails, i.e. for refinement: a counterexample.
struct EFQuery {
  /// Constraints over outer variables (conjunction).
  std::vector<Expr> Outer;
  /// Phi(outer, inner): the formula that must have NO inner witness.
  Expr Inner = mkTrue();
  /// Variables bound by the inner existential.
  std::unordered_set<ExprId> InnerVars;
  /// Uninterpreted applications whose names start with one of these
  /// prefixes are owned by the inner existential regardless of their
  /// arguments (e.g. the inner source copy's initial local memory).
  std::vector<std::string> InnerAppPrefixes;

  /// Symbolic instantiations of the universal: each seed maps every inner
  /// variable to a term over outer symbols (and renames inner function
  /// symbols to outer ones). The engine adds not-Phi[seed] to the outer
  /// constraints before the first round — the analog of Z3's pattern-based
  /// quantifier instantiation that Alive2 relies on. Seeds that leave any
  /// inner symbol uninstantiated are skipped (instantiation must be total to
  /// be sound), and none is instantiated once the outer side is refuted.
  struct Seed {
    std::unordered_map<ExprId, Expr> VarMap;
    std::vector<std::pair<std::string, std::string>> AppRenames;
  };
  std::vector<Seed> Seeds;

  /// Application-name prefixes that mark over-approximated features
  /// (Section 3.8). When a counterexample's support includes one of these,
  /// the engine keeps searching for a cleaner model before giving up and
  /// returning the tainted one (flagged in EFOutcome::ApproxInvolved).
  std::vector<std::string> AvoidAppPrefixes;

  /// Ablation toggle: derive definitional instantiations from equations in
  /// Phi (the Section 3.3/3.7 instantiation analog). Off = plain CEGIS.
  bool DeriveEquationDefs = true;
};

struct EFOutcome {
  SatResult Res = SatResult::Unknown;
  /// Outer model when Res == Sat (i.e. a counterexample).
  Model M;
  Reason UnknownReason = Reason::None;
  unsigned Iterations = 0;
  /// True when Res == Sat but the model's support includes an avoided
  /// (over-approximated) application: report as unsupported, not as a bug.
  bool ApproxInvolved = false;
  /// Name of the involved application, when ApproxInvolved.
  std::string ApproxApp;
  /// When Res == Unknown after two or more rounds: the inner variables
  /// whose witness changed between consecutive rounds, with how often,
  /// most restless first (ties by id). The variables CEGIS kept
  /// enumerating are where instantiation did not generalize.
  std::vector<std::pair<ExprId, unsigned>> WitnessChanges;
};

/// Decides the query within \p Limit. The outer side is built stage by
/// stage: Outer, the plain seeds, the seeds of the equation definitions,
/// the outer congruence axioms. A stage whose formula leaves the solver
/// refuted ends the build, and the first round answers Unsat. Uninterpreted
/// applications are Ackermannized as each formula arrives, Phi's last, with
/// congruence axioms placed on the correct side of the quantifier
/// alternation. \p Limit is polled on entry, so a query that starts past it
/// answers Unknown with the poll's reason and builds no solver, and in each
/// CEGIS round.
EFOutcome solveExistsForall(const EFQuery &Query, const TimeLimit &Limit);

} // namespace alive::smt

#endif // ALIVE2RE_SMT_EXISTSFORALL_H
