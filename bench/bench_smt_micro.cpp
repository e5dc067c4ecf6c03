//===- bench/bench_smt_micro.cpp - SMT substrate microbenchmarks ---------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenchmarks of the SMT substrate that replaces Z3:
/// expression construction/folding, bit-blasting + SAT at several widths,
/// the staged-vs-monolithic query comparison (the Section 5.3 design
/// choice), and the exists-forall engine.
///
//===----------------------------------------------------------------------===//

#include "smt/ExistsForall.h"
#include "support/Profile.h"

#include <benchmark/benchmark.h>

using namespace alive;
using namespace alive::smt;

static void BM_ExprConstructionFolding(benchmark::State &State) {
  for (auto _ : State) {
    resetContext();
    Expr X = mkVar("x", 32);
    Expr E = X;
    for (int I = 0; I < 200; ++I)
      E = mkAdd(mkBVXor(E, mkBV(32, (uint64_t)I)), X);
    benchmark::DoNotOptimize(E.id());
  }
}
BENCHMARK(BM_ExprConstructionFolding);

static void BM_BitblastSolveAdd(benchmark::State &State) {
  unsigned W = (unsigned)State.range(0);
  for (auto _ : State) {
    resetContext();
    Expr X = mkVar("x", W), Y = mkVar("y", W), Z = mkVar("z", W);
    // Associativity is invisible to the construction-time folder, so this
    // exercises two genuine ripple-carry adders plus the comparator.
    Expr Q = mkNe(mkAdd(mkAdd(X, Y), Z), mkAdd(X, mkAdd(Y, Z)));
    SolveOutcome R = checkSat(Q);
    if (!R.isUnsat())
      State.SkipWithError("expected unsat");
  }
}
BENCHMARK(BM_BitblastSolveAdd)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

static void BM_BitblastSolveMulFactor(benchmark::State &State) {
  unsigned W = (unsigned)State.range(0);
  for (auto _ : State) {
    resetContext();
    Expr X = mkVar("x", W), Y = mkVar("y", W);
    Expr Q = mkAnd(
        mkEq(mkMul(X, Y), mkBV(W, 143)),
        mkAnd(mkUgt(X, mkBV(W, 1)), mkUgt(Y, mkBV(W, 1))));
    SolveOutcome R = checkSat(Q);
    if (!R.isSat())
      State.SkipWithError("expected sat");
  }
}
BENCHMARK(BM_BitblastSolveMulFactor)->Arg(8)->Arg(12)->Arg(16);

static void BM_ExistsForallMax(benchmark::State &State) {
  unsigned W = (unsigned)State.range(0);
  for (auto _ : State) {
    resetContext();
    Expr X = mkVar("x", W), Y = mkVar("y", W);
    EFQuery Q;
    Q.Inner = mkUgt(Y, X);
    Q.InnerVars = {Y.id()};
    EFOutcome R = solveExistsForall(Q, TimeLimit());
    if (R.Res != SatResult::Sat)
      State.SkipWithError("expected sat");
  }
}
BENCHMARK(BM_ExistsForallMax)->Arg(8)->Arg(16);

/// The Section 5.3 design choice: a sequence of small targeted queries vs
/// one monolithic conjunction. The paper stages mainly for error
/// attribution; this pair quantifies the runtime cost/benefit of staging
/// on this engine.
static Expr hardConjunct(unsigned W, unsigned I) {
  Expr X = mkVar("x" + std::to_string(I), W);
  Expr Y = mkVar("y" + std::to_string(I), W);
  return mkEq(mkMul(X, Y), mkAdd(mkMul(Y, X), mkBV(W, 0)));
}

static void BM_StagedQueries(benchmark::State &State) {
  for (auto _ : State) {
    resetContext();
    bool AllSat = true;
    for (unsigned I = 0; I < 6; ++I)
      AllSat &= checkSat(hardConjunct(16, I)).isSat();
    benchmark::DoNotOptimize(AllSat);
  }
}
BENCHMARK(BM_StagedQueries);

static void BM_MonolithicQuery(benchmark::State &State) {
  for (auto _ : State) {
    resetContext();
    Expr Q = mkTrue();
    for (unsigned I = 0; I < 6; ++I)
      Q = mkAnd(Q, hardConjunct(16, I));
    benchmark::DoNotOptimize(checkSat(Q).isSat());
  }
}
BENCHMARK(BM_MonolithicQuery);

/// Profiling overhead on the disabled path. Every instrumented phase pays
/// one prof::Span per entry, so the disabled cost (the span's own
/// measurement: two clock reads and two copies of the effort tally, plus a
/// relaxed atomic load) is the price the whole pipeline pays when --profile
/// is off. The acceptance bar is <= 3% on
/// solver-bound work; compare BM_BitblastSolveAddProfiled against
/// BM_BitblastSolveAdd at the same width for the enabled-path cost.
static void BM_ProfileSpanDisabled(benchmark::State &State) {
  prof::stop();
  for (auto _ : State) {
    prof::Span S("bench_disabled");
    benchmark::DoNotOptimize(S.id());
  }
}
BENCHMARK(BM_ProfileSpanDisabled);

static void BM_ProfileSpanEnabled(benchmark::State &State) {
  prof::start();
  for (auto _ : State) {
    prof::Span S("bench_enabled");
    benchmark::DoNotOptimize(S.id());
    // Keep the record buffer from growing unboundedly over iterations.
    if (State.iterations() % 4096 == 0)
      prof::clear();
  }
  prof::stop();
  prof::clear();
}
BENCHMARK(BM_ProfileSpanEnabled);

static void BM_BitblastSolveAddProfiled(benchmark::State &State) {
  unsigned W = 32;
  prof::start();
  for (auto _ : State) {
    resetContext();
    prof::clear();
    Expr X = mkVar("x", W), Y = mkVar("y", W), Z = mkVar("z", W);
    Expr Q = mkNe(mkAdd(mkAdd(X, Y), Z), mkAdd(X, mkAdd(Y, Z)));
    SolveOutcome R = checkSat(Q);
    if (!R.isUnsat())
      State.SkipWithError("expected unsat");
  }
  prof::stop();
  prof::clear();
}
BENCHMARK(BM_BitblastSolveAddProfiled);

BENCHMARK_MAIN();
