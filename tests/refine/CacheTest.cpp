//===- tests/refine/CacheTest.cpp ---------------------------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
// The result cache wired through the refinement layer: hit/miss parity with
// uncached verdicts, invalidation when semantics-affecting options change,
// persistence through the Validator, and parallel hits under -j 4 (the
// concurrency label runs that one under tier 2).
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "refine/Fingerprint.h"
#include "refine/Validator.h"
#include "support/QueryCache.h"

#include "gtest/gtest.h"

#include <filesystem>

using namespace alive;
using namespace alive::refine;

namespace {

const char *SrcMod = R"(
define i8 @alg(i8 %a, i8 %b) {
entry:
  %x = add i8 %a, %b
  %y = sub i8 %x, %b
  ret i8 %y
}
define i8 @bad(i8 %a) {
entry:
  %x = mul i8 %a, 2
  ret i8 %x
}
)";
const char *TgtMod = R"(
define i8 @alg(i8 %a, i8 %b) {
entry:
  ret i8 %a
}
define i8 @bad(i8 %a) {
entry:
  %x = mul i8 %a, 3
  ret i8 %x
}
)";

Options baseOpts() {
  Options O;
  O.Budget.TimeoutSec = 30;
  return O;
}

void expectSameVerdict(const Verdict &A, const Verdict &B,
                       const char *Where) {
  EXPECT_EQ(A.Kind, B.Kind) << Where;
  EXPECT_EQ(A.FailedCheck, B.FailedCheck) << Where;
  EXPECT_EQ(A.Detail, B.Detail) << Where;
  EXPECT_EQ(A.QueriesRun, B.QueriesRun) << Where;
}

TEST(Cache, HitParityWithUncachedVerdicts) {
  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);

  Options Plain = baseOpts();
  Plain.Cache = CachePolicy::disabled();
  auto Uncached = Validator(Plain).verifyModules(*SrcM, *TgtM, /*Jobs=*/1);

  Validator V(baseOpts());
  auto Cold = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  auto Warm = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);

  ASSERT_EQ(Uncached.size(), 2u);
  ASSERT_EQ(Cold.size(), 2u);
  ASSERT_EQ(Warm.size(), 2u);
  for (size_t I = 0; I < Uncached.size(); ++I) {
    // Caching must never change what a verdict says — only who computes it.
    expectSameVerdict(Uncached[I].V, Cold[I].V, "cold vs uncached");
    expectSameVerdict(Uncached[I].V, Warm[I].V, "warm vs uncached");
    EXPECT_FALSE(Cold[I].V.Cached);
    EXPECT_TRUE(Warm[I].V.Cached);
  }
  EXPECT_TRUE(Uncached[1].V.isIncorrect());
  // The cached Incorrect verdict replays the rendered counterexample.
  EXPECT_EQ(Warm[1].V.Detail, Uncached[1].V.Detail);
  EXPECT_FALSE(Warm[1].V.Detail.empty());
}

TEST(Cache, OptionChangesInvalidate) {
  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);
  const ir::Function *SF = SrcM->function(0);
  const ir::Function *TF = TgtM->function(0);

  Options Base = baseOpts();
  support::Fingerprint Fp = fingerprintPair(*SF, *TF, SrcM.get(), Base);

  // Every semantics-affecting knob must move the pair fingerprint; the
  // cache policy itself must not (it controls caching, not meaning).
  Options O = Base;
  O.UnrollFactor += 1;
  EXPECT_NE(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.EquivalenceMode = true;
  EXPECT_NE(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.UseInstantiationSeeds = false;
  EXPECT_NE(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.Budget.TimeoutSec *= 2;
  EXPECT_NE(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.Cache = CachePolicy::disabled();
  EXPECT_EQ(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.Cache.Dir = "/somewhere/else";
  EXPECT_EQ(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  // The resource-governance knobs control how hard we try, not what a
  // verdict means: none of them may move the key. (The escalated budget a
  // retry rung actually runs with enters via Budget, covered above.)
  O = Base;
  O.Retry.MaxRungs = 3;
  O.Retry.Multiplier = 16;
  EXPECT_EQ(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.DeadlineSec = 123;
  EXPECT_EQ(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);
  O = Base;
  O.MaxRssBytes = size_t(1) << 30;
  EXPECT_EQ(fingerprintPair(*SF, *TF, SrcM.get(), O), Fp);

  // Different functions, different keys.
  EXPECT_NE(fingerprintPair(*SF, *SF, SrcM.get(), Base), Fp);
  EXPECT_NE(fingerprintPair(*SrcM->function(1), *TgtM->function(1),
                            SrcM.get(), Base),
            Fp);
}

TEST(Cache, DisabledPolicyMeansNoCachedVerdicts) {
  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);
  Options O = baseOpts();
  O.Cache = CachePolicy::disabled();
  Validator V(O);
  EXPECT_EQ(V.cache(), nullptr);
  auto First = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  auto Second = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  for (const auto &R : Second) {
    EXPECT_FALSE(R.V.Cached);
    EXPECT_FALSE(R.V.Queries.empty());
  }
  EXPECT_EQ(summarize(First).CacheHits + summarize(Second).CacheHits, 0u);
}

TEST(Cache, QueryLevelAloneSkipsSolverNotStages) {
  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);
  Options O = baseOpts();
  O.Cache.PairLevel = false; // query level only
  Validator V(O);
  auto Cold = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  auto Warm = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I < Warm.size(); ++I) {
    // Stages still run (so per-query stats exist), but every query is
    // answered from the cache.
    EXPECT_FALSE(Warm[I].V.Cached);
    ASSERT_EQ(Warm[I].V.Queries.size(), Cold[I].V.Queries.size());
    expectSameVerdict(Cold[I].V, Warm[I].V, "query-level warm");
    for (const QueryStats &Q : Warm[I].V.Queries) {
      EXPECT_TRUE(Q.CacheHit) << Q.Check;
      EXPECT_EQ(Q.SatChecks, 0u) << Q.Check;
    }
    // Cold misses, except that later pairs may legitimately share a query
    // with an earlier pair — here both functions have the same trivially
    // true precondition conjunction, so @bad's step 1 reuses @alg's.
    for (const QueryStats &Q : Cold[I].V.Queries) {
      bool MayShare = I > 0 && Q.Check == "precondition";
      EXPECT_TRUE(MayShare || !Q.CacheHit) << Q.Check;
    }
  }
}

TEST(Cache, PersistsAcrossValidators) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "alive2re-cache-validator-test";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);
  Options O = baseOpts();
  O.Cache.Dir = Dir.string();

  std::vector<PairResult> Cold;
  {
    Validator V(O);
    Cold = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
    std::string Err;
    ASSERT_TRUE(V.flushCache(&Err)) << Err;
  }
  ASSERT_TRUE(fs::exists(Dir / support::QueryCache::FileName));
  {
    // A brand-new Validator (fresh process stand-in) answers wholesale from
    // the store.
    Validator V(O);
    auto Warm = V.verifyModules(*SrcM, *TgtM, /*Jobs=*/1);
    ASSERT_EQ(Warm.size(), Cold.size());
    for (size_t I = 0; I < Warm.size(); ++I) {
      EXPECT_TRUE(Warm[I].V.Cached) << Warm[I].Name;
      expectSameVerdict(Cold[I].V, Warm[I].V, "disk warm");
    }
  }
  fs::remove_all(Dir);
}

TEST(Cache, ParallelWarmBatchHitsUnderJ4) {
  // Tier-2 (concurrency label): four workers racing the same shards must
  // produce the same replayed verdicts as the serial cold run.
  auto SrcM = ir::parseModuleOrDie(SrcMod);
  auto TgtM = ir::parseModuleOrDie(TgtMod);
  Validator V(baseOpts());

  std::vector<Validator::PairTask> Tasks;
  for (unsigned I = 0; I < 2; ++I)
    Tasks.push_back({SrcM->function(I), TgtM->function(I), SrcM.get(),
                     SrcM->function(I)->name()});
  auto Cold = V.verifyBatch(Tasks, /*Jobs=*/1);

  // Replicate the task list so every worker gets hits to fight over.
  std::vector<Validator::PairTask> Wide;
  for (unsigned R = 0; R < 8; ++R)
    for (const auto &T : Tasks)
      Wide.push_back(T);
  for (unsigned Round = 0; Round < 4; ++Round) {
    auto Warm = V.verifyBatch(Wide, /*Jobs=*/4);
    ASSERT_EQ(Warm.size(), Wide.size());
    for (size_t I = 0; I < Warm.size(); ++I) {
      const Verdict &Expect = Cold[I % Tasks.size()].V;
      EXPECT_TRUE(Warm[I].V.Cached) << I;
      expectSameVerdict(Expect, Warm[I].V, "parallel warm");
    }
    EXPECT_EQ(summarize(Warm).CacheHits, Warm.size());
  }
}

} // namespace
