//===- smt/Solver.cpp - SMT solver facade -----------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace alive;
using namespace alive::smt;

Solver::Solver(const TimeLimit &Limit)
    : Limit(Limit), Sat(std::make_unique<SatSolver>()),
      Blaster(std::make_unique<BitBlaster>(*Sat, Limit)) {}

Solver::~Solver() = default;

bool Ackermannizer::addApps(std::span<const Expr> Roots,
                            const std::function<void(Expr, bool)> &OnAxiom) {
  prof::Span ProfSpan("ackermannize");
  std::unordered_set<ExprId> Reached;
  for (Expr E : Roots)
    collectApps(E, Reached);
  if (Reached.empty())
    return false;
  std::vector<ExprId> Order(Reached.begin(), Reached.end());
  std::sort(Order.begin(), Order.end());

  for (ExprId AppId : Order) {
    if (Vars.count(AppId))
      continue;
    const Node &N = ExprCtx::get().node(AppId);
    const std::string &FnName = N.Name;
    bool Inner = false;
    if (InnerPrefixes)
      for (const std::string &P : *InnerPrefixes)
        Inner |= FnName.rfind(P, 0) == 0;
    std::vector<Expr> Args;
    for (ExprId Op : N.Ops) {
      Expr Arg = rewrite(Expr(Op));
      if (InnerVars)
        Inner |= mentionsAnyVar(Arg, *InnerVars);
      Args.push_back(Arg);
    }
    Expr Var = mkFreshVar("!ack." + FnName, N.Width);
    if (Inner)
      InnerVars->insert(Var.id());
    std::vector<App> &Earlier = ByFn[FnName];
    for (const App &Prev : Earlier) {
      if (Prev.Args.size() != Args.size() ||
          Prev.Var.width() != Var.width())
        continue;
      Expr ArgsEq = mkTrue();
      for (size_t I = 0; I < Args.size(); ++I)
        ArgsEq = mkAnd(ArgsEq, mkEq(Prev.Args[I], Args[I]));
      Expr Axiom = mkImplies(ArgsEq, mkEq(Prev.Var, Var));
      if (!Axiom.isTrue())
        OnAxiom(Axiom, Inner || Prev.Inner);
    }
    Earlier.push_back({Var, std::move(Args), Inner});
    Vars[AppId] = Var;
  }
  return true;
}

void Solver::add(Expr E) {
  if (refuted())
    return;
  assert(E.isBool() && "assertions must be Bool");
  // One poll per assertion: Ackermannization and blasting up to the
  // blaster's first clause poll read no clock.
  if (Reason Why = Limit.poll(); Why != Reason::None) {
    Blaster->stop(Why);
    return;
  }
  if (Ack.addApps({&E, 1}, [this](Expr Axiom, bool) {
        ALIVE_STAT_COUNTER(AckAxioms, "solver.ack_axioms");
        AckAxioms.inc();
        Blaster->assertTrue(Axiom);
      }))
    E = Ack.rewrite(E);
  if (E.isTrue())
    return;
  if (E.isFalse()) {
    TriviallyUnsat = true;
    return;
  }
  Blaster->assertTrue(E);
}

SolveOutcome Solver::check() {
  // Child spans cover the CDCL core (sat_solve) and model extraction
  // (model); this span's self time is the check's own bookkeeping.
  prof::Span ProfSpan("sat_check");
  ALIVE_STAT_COUNTER(Checks, "solver.checks");
  Checks.inc();

  SolveOutcome Out;
  // A root conflict goes to the SAT solver, which answers Unsat at once,
  // even when blasting stopped after it.
  if (TriviallyUnsat) {
    Out.Res = SatResult::Unsat;
  } else if (Sat->okay() && Blaster->overBudget()) {
    Out.UnknownReason = Blaster->stopReason();
  } else {
    switch (Sat->solve(Limit)) {
    case SatStatus::Unsat:
      Out.Res = SatResult::Unsat;
      break;
    case SatStatus::Unknown:
      Out.UnknownReason = Sat->unknownReason();
      break;
    case SatStatus::Sat: {
      Out.Res = SatResult::Sat;
      prof::Span ModelSpan("model");
      for (ExprId VarId : Blaster->vars())
        Out.M.set(VarId, Blaster->readVar(Expr(VarId)));
      break;
    }
    }
  }

  if (trace::enabled()) {
    prof::Tally E = ProfSpan.effort();
    trace::Event("sat_check")
        .str("result", toString(Out.Res))
        .num("seconds", ProfSpan.seconds())
        .effort(E)
        // A check answered without the SAT search reports no variables.
        .num("vars", E.SatChecks ? Sat->numVars() : 0);
  }
  return Out;
}

SolveOutcome smt::checkSat(Expr E, const TimeLimit &Limit) {
  Solver S(Limit);
  S.add(E);
  return S.check();
}
