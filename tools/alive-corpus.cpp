//===- tools/alive-corpus.cpp - Unit-test-suite runner -------------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Runs the curated unit-test corpus through the validator (the analog of
/// running Alive2 over LLVM's unit tests, Section 8.2) and reports each
/// verdict against its expectation.
///
///   alive-corpus [--unroll N] [--timeout SEC] [--generated N]
///                [--cache-dir DIR] [--no-query-cache] [--stats]
///                [--trace-out FILE] [--profile] [--profile-out FILE]
///                [--slow-query-ms N]
///
/// Exit status is the CI gate: 0 only when every pair lands on its
/// expected side — a mismatch OR an inconclusive verdict (timeout, OOM,
/// unsupported) is a failure, so a silently degraded solver setup cannot
/// turn the corpus green.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "ir/Parser.h"
#include "refine/CLI.h"
#include "refine/Validator.h"

#include <cstdio>
#include <cstring>

using namespace alive;

int main(int argc, char **argv) {
  refine::Options Opts;
  Opts.UnrollFactor = 8;
  Opts.Budget.TimeoutSec = 20;
  unsigned Generated = 0;
  refine::cli::OptionsParser Shared(Opts);
  for (int I = 1; I < argc; ++I) {
    switch (Shared.consume(argc, argv, I)) {
    case refine::cli::Parsed::Error:
      return 2;
    case refine::cli::Parsed::Ok:
      continue;
    case refine::cli::Parsed::NotMine:
      break;
    }
    if (!std::strcmp(argv[I], "--generated")) {
      if (!refine::cli::unsignedFlag(argc, argv, I, Generated))
        return 2;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: alive-corpus "
                   "[--generated N]\n%s",
                   argv[I], Shared.usage().c_str());
      return 2;
    }
  }

  if (!Shared.validate() || !Shared.openSinks())
    return 2;

  std::vector<corpus::TestPair> Suite = corpus::unitTestSuite();
  if (Generated) {
    auto Gen = corpus::generatedSuite(Generated, 0xa11e);
    Suite.insert(Suite.end(), Gen.begin(), Gen.end());
  }

  refine::Validator Validator(Opts);
  unsigned Agree = 0, Disagree = 0, Inconclusive = 0;
  for (const auto &P : Suite) {
    smt::resetContext();
    auto SrcM = ir::parseModuleOrDie(P.SrcIR);
    auto TgtM = ir::parseModuleOrDie(P.TgtIR);
    const ir::Function *SF = SrcM->function(SrcM->numFunctions() - 1);
    const ir::Function *TF = TgtM->functionByName(SF->name());
    refine::Verdict V = Validator.verifyPair(*SF, *TF, SrcM.get());
    bool FoundBug = V.isIncorrect();
    bool Conclusive = V.isCorrect() || V.isIncorrect();
    const char *Status;
    bool BeyondBound = P.NeedsUnroll > Opts.UnrollFactor;
    if (!Conclusive &&
        V.Kind == refine::VerdictKind::PreconditionFalse && BeyondBound) {
      // The function cannot complete within the bound: vacuously validated,
      // exactly the bounded-TV behavior the paper describes.
      Status = "ok (beyond unroll bound)";
      ++Agree;
    } else if (!Conclusive) {
      Status = "inconclusive";
      ++Inconclusive;
    } else if (FoundBug == P.ExpectBug &&
               (!P.ExpectBug || P.NeedsUnroll <= Opts.UnrollFactor)) {
      Status = "ok";
      ++Agree;
    } else if (P.ExpectBug && P.NeedsUnroll > Opts.UnrollFactor &&
               !FoundBug) {
      Status = "ok (bug beyond unroll bound)";
      ++Agree;
    } else {
      Status = "MISMATCH";
      ++Disagree;
    }
    std::printf("%-28s %-16s verdict=%-12s expected=%-9s [%s] %.2fs\n",
                P.Name.c_str(), P.Category.c_str(), V.kindName(),
                P.ExpectBug ? "bug" : "correct", Status, V.Seconds);
  }
  std::printf("\n%u agree, %u disagree, %u inconclusive (of %zu)\n", Agree,
              Disagree, Inconclusive, Suite.size());
  if (std::string CacheErr; !Validator.flushCache(&CacheErr))
    std::fprintf(stderr, "warning: cannot write cache: %s\n",
                 CacheErr.c_str());
  if (!Shared.closeSinks(stderr))
    return 2;
  return (Disagree || Inconclusive) ? 1 : 0;
}
