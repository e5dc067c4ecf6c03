//===- tools/alive-fuzz.cpp - Differential fuzzing driver ------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Seeded differential fuzzing of the validator stack: corpus-seeded
/// modules are mutated (fuzz::Mutator), checked against the metamorphic
/// oracles (fuzz::Oracle), and failures are delta-debugged (fuzz::Reducer)
/// into a replayable artifact directory. A second mode corrupts raw IR text
/// to fuzz the parser/lexer error paths. Everything is deterministic in
/// --seed: two runs with the same flags produce identical stdout and
/// identical artifacts.
///
///   alive-fuzz [--seed N] [--runs N] [--mutations N] [--parser-runs N]
///              [--buggy PASS | --pipeline a,b,c] [--artifacts DIR]
///              [--no-reduce] [--max-candidates N] [shared refine flags]
///              [--stats] [--trace-out FILE] [--profile] [--profile-out F]
///              [--slow-query-ms N]
///   alive-fuzz --repro DIR        replay one saved failure
///
/// Exit codes: 0 = no oracle failures (or --repro reproduced), 1 = failures
/// found (or --repro did not reproduce), 2 = usage error.
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "fuzz/Mutator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "refine/CLI.h"
#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace alive;

namespace {

void usage(const refine::cli::OptionsParser &Shared) {
  std::fprintf(
      stderr,
      "usage: alive-fuzz [--seed N] [--runs N] [--mutations N] "
      "[--parser-runs N]\n"
      "                  [--buggy PASS | --pipeline a,b,c] [--artifacts DIR]\n"
      "                  [--no-reduce] [--max-candidates N] [--stats]\n"
      "                  [--trace-out FILE] [--profile] [--profile-out FILE]\n"
      "                  [--slow-query-ms N]\n"
      "       alive-fuzz --repro DIR\n"
      "%s"
      "  --seed N          master seed (default 1)\n"
      "  --runs N          IR-mutation fuzz runs (default 16)\n"
      "  --mutations N     mutations per run (default 3)\n"
      "  --parser-runs N   malformed-text parser fuzz runs (default 0)\n"
      "  --buggy PASS      fuzz the named buggy pass instead of the correct "
      "-O2 pipeline\n"
      "  --pipeline a,b,c  explicit pass pipeline for target derivation\n"
      "  --artifacts DIR   failure artifact directory (default "
      "fuzz-artifacts)\n"
      "  --no-reduce       keep failing inputs unreduced\n"
      "  --max-candidates N  reducer candidate budget (default 192)\n"
      "  --repro DIR       replay the failure saved in DIR and exit\n",
      Shared.usage().c_str());
}

bool readFile(const std::filesystem::path &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::filesystem::path &Path, const std::string &Text) {
  std::ofstream OutF(Path, std::ios::trunc);
  if (!OutF)
    return false;
  OutF << Text;
  return OutF.good();
}

std::string oneLine(std::string S) {
  for (char &C : S)
    if (C == '\n' || C == '\r')
      C = ' ';
  return S;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur.push_back(C);
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

std::string joinList(const std::vector<std::string> &L) {
  std::string Out;
  for (const std::string &S : L) {
    if (!Out.empty())
      Out.push_back(',');
    Out += S;
  }
  return Out;
}

/// The two parser-fuzz properties. A rejected input must carry a
/// diagnostic; an accepted input must survive print -> parse -> print.
/// \returns the failed oracle name, or empty when the text is fine.
std::string parserOracle(const std::string &Text, std::string &Detail) {
  Diag Err;
  auto M = ir::parseModule(Text, Err);
  if (!M) {
    if (Err.empty()) {
      Detail = "parser rejected the input without a diagnostic";
      return "parser-no-diagnostic";
    }
    return ""; // rejected with a diagnostic: the contract held
  }
  std::string P1 = ir::printModule(*M);
  Diag Err2;
  auto M2 = ir::parseModule(P1, Err2);
  if (!M2) {
    Detail = "printed form of an accepted input does not reparse: " +
             Err2.str();
    return "parser-roundtrip";
  }
  if (ir::printModule(*M2) != P1) {
    Detail = "print -> parse -> print of an accepted input is not a fixpoint";
    return "parser-roundtrip";
  }
  return "";
}

struct ReproSpec {
  std::map<std::string, std::string> KV;
  const std::string &get(const std::string &K) const {
    static const std::string Empty;
    auto It = KV.find(K);
    return It == KV.end() ? Empty : It->second;
  }
};

bool loadRepro(const std::filesystem::path &Dir, ReproSpec &Spec,
               std::string &Err) {
  std::string Text;
  if (!readFile(Dir / "repro.txt", Text)) {
    Err = "cannot read " + (Dir / "repro.txt").string();
    return false;
  }
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos || Eq == 0)
      continue;
    Spec.KV[Line.substr(0, Eq)] = Line.substr(Eq + 1);
  }
  if (Spec.get("oracle").empty()) {
    Err = "repro.txt has no oracle= line";
    return false;
  }
  return true;
}

int runRepro(const std::filesystem::path &Dir, refine::Options Opts,
             unsigned Jobs) {
  ReproSpec Spec;
  std::string Err;
  if (!loadRepro(Dir, Spec, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  const std::string &Name = Spec.get("oracle");

  // Recorded verification parameters win over the tool defaults so the
  // replay sees exactly what the fuzz run saw.
  unsigned U;
  double T;
  if (refine::cli::parseUnsigned(Spec.get("unroll").c_str(), U) && U > 0)
    Opts.UnrollFactor = U;
  if (refine::cli::parseDouble(Spec.get("budget_sec").c_str(), T) && T > 0)
    Opts.Budget.TimeoutSec = T;

  if (Name.rfind("parser-", 0) == 0) {
    std::string Input, Detail;
    if (!readFile(Dir / "input.ll", Input)) {
      std::fprintf(stderr, "error: cannot read %s\n",
                   (Dir / "input.ll").string().c_str());
      return 2;
    }
    std::string Failed = parserOracle(Input, Detail);
    if (Failed == Name) {
      std::printf("reproduced: %s: %s\n", Failed.c_str(), Detail.c_str());
      return 0;
    }
    std::printf("did NOT reproduce: expected %s, input is now %s\n",
                Name.c_str(),
                Failed.empty() ? "handled correctly" : Failed.c_str());
    return 1;
  }

  fuzz::OracleFailure F;
  F.Oracle = Name;
  if (!readFile(Dir / "src.ll", F.SrcIR)) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 (Dir / "src.ll").string().c_str());
    return 2;
  }
  // tgt.ll is absent for source-only oracles (self-refine, fixpoint).
  (void)readFile(Dir / "tgt.ll", F.TgtIR);

  fuzz::Oracle::Config C;
  C.Opts = Opts;
  C.ParityJobs = Jobs >= 2 ? Jobs : 2;
  if (!Spec.get("pipeline").empty())
    C.Pipeline = splitList(Spec.get("pipeline"));
  fuzz::Oracle O(C);
  std::string Detail;
  if (O.replay(F, &Detail)) {
    std::printf("reproduced: %s: %s\n", Name.c_str(),
                oneLine(Detail).c_str());
    return 0;
  }
  std::printf("did NOT reproduce: %s no longer fails\n", Name.c_str());
  return 1;
}

/// Writes one failure's artifact directory; \returns its path.
std::filesystem::path
writeArtifact(const std::filesystem::path &Root, const std::string &RunLabel,
              const std::string &OracleName,
              const std::map<std::string, std::string> &Meta,
              const std::map<std::string, std::string> &Files) {
  std::filesystem::path Dir = Root / (RunLabel + "-" + OracleName);
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Repro;
  for (const auto &[K, V] : Meta)
    Repro += K + "=" + V + "\n";
  writeFile(Dir / "repro.txt", Repro);
  for (const auto &[NameF, Text] : Files)
    writeFile(Dir / NameF, Text);
  return Dir;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 1;
  unsigned Runs = 16, Mutations = 3, ParserRuns = 0, MaxCandidates = 192;
  unsigned Jobs = 2;
  bool NoReduce = false;
  const char *ArtifactsDir = "fuzz-artifacts";
  const char *ReproDir = nullptr;
  std::string Buggy;
  std::vector<std::string> Pipeline;

  refine::Options Opts;
  // Fuzzing favors throughput over one-query depth: a modest per-query
  // budget keeps pathological mutants from stalling a whole run. --timeout
  // still overrides.
  Opts.Budget.TimeoutSec = 10;
  refine::cli::OptionsParser Shared(Opts, &Jobs);

  for (int I = 1; I < argc; ++I) {
    switch (Shared.consume(argc, argv, I)) {
    case refine::cli::Parsed::Error:
      return 2;
    case refine::cli::Parsed::Ok:
      continue;
    case refine::cli::Parsed::NotMine:
      break;
    }
    auto NeedValue = [&] { return refine::cli::flagValue(argc, argv, I); };
    if (!std::strcmp(argv[I], "--seed")) {
      const char *V = NeedValue();
      if (!V)
        return 2;
      char *End = nullptr;
      errno = 0;
      Seed = std::strtoull(V, &End, 0);
      // strtoull reads "" as 0 and wraps "-1" to 2^64 - 1.
      if (!std::isdigit((unsigned char)*V) || *End || errno == ERANGE) {
        std::fprintf(stderr, "error: --seed expects an integer, got '%s'\n",
                     V);
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--runs")) {
      if (!refine::cli::unsignedFlag(argc, argv, I, Runs))
        return 2;
    } else if (!std::strcmp(argv[I], "--mutations")) {
      if (!refine::cli::unsignedFlag(argc, argv, I, Mutations))
        return 2;
    } else if (!std::strcmp(argv[I], "--parser-runs")) {
      if (!refine::cli::unsignedFlag(argc, argv, I, ParserRuns))
        return 2;
    } else if (!std::strcmp(argv[I], "--max-candidates")) {
      if (!refine::cli::unsignedFlag(argc, argv, I, MaxCandidates))
        return 2;
    } else if (!std::strcmp(argv[I], "--buggy")) {
      const char *V = NeedValue();
      if (!V)
        return 2;
      Buggy = V;
      if (!opt::createPass(Buggy)) {
        std::fprintf(stderr, "error: unknown pass '%s'\n", V);
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--pipeline")) {
      const char *V = NeedValue();
      if (!V)
        return 2;
      Pipeline = splitList(V);
      for (const std::string &P : Pipeline)
        if (!opt::createPass(P)) {
          std::fprintf(stderr, "error: unknown pass '%s'\n", P.c_str());
          return 2;
        }
    } else if (!std::strcmp(argv[I], "--artifacts")) {
      const char *V = NeedValue();
      if (!V)
        return 2;
      ArtifactsDir = V;
    } else if (!std::strcmp(argv[I], "--repro")) {
      const char *V = NeedValue();
      if (!V)
        return 2;
      ReproDir = V;
    } else if (!std::strcmp(argv[I], "--no-reduce")) {
      NoReduce = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
      usage(Shared);
      return 2;
    }
  }
  if (!Shared.validate())
    return 2;
  if (!Buggy.empty() && !Pipeline.empty()) {
    std::fprintf(stderr, "error: --buggy and --pipeline are exclusive\n");
    return 2;
  }

  if (!Shared.openSinks())
    return 2;

  if (ReproDir) {
    int RC = runRepro(ReproDir, Opts, Jobs);
    return Shared.closeSinks(stderr) ? RC : 2;
  }

  fuzz::Oracle::Config C;
  C.Opts = Opts;
  C.ParityJobs = Jobs >= 2 ? Jobs : 2;
  if (!Buggy.empty())
    C.Pipeline = {Buggy};
  else if (!Pipeline.empty())
    C.Pipeline = Pipeline;
  else
    C.Pipeline = opt::defaultPipeline();
  fuzz::Oracle Oracle(C);
  fuzz::Reducer::Limits RL;
  RL.MaxCandidates = MaxCandidates;
  fuzz::Reducer Reducer(Oracle, RL);

  ALIVE_STAT_COUNTER(CtrRuns, "fuzz.runs");
  ALIVE_STAT_COUNTER(CtrFailures, "fuzz.failures");

  std::filesystem::path Root(ArtifactsDir);
  unsigned TotalFailures = 0;
  Rng Master(Seed);
  const auto &Unit = corpus::unitTestSuite();

  std::printf("alive-fuzz: seed=%llu runs=%u mutations=%u pipeline=%s\n",
              (unsigned long long)Seed, Runs, Mutations,
              joinList(C.Pipeline).c_str());

  for (unsigned Run = 0; Run < Runs; ++Run) {
    prof::Span Sp("fuzz_run");
    CtrRuns.inc();
    uint64_t RunSeed = Master.next();
    char Label[32];
    std::snprintf(Label, sizeof(Label), "run%03u", Run);

    // Seed choice: mostly generated functions (rotating loop/memory
    // shapes), every fourth run a curated unit-test source.
    std::string Base;
    const char *BaseKind;
    if (Run % 4 == 3 && !Unit.empty()) {
      Base = Unit[RunSeed % Unit.size()].SrcIR;
      BaseKind = "unit";
    } else {
      Base = corpus::generateFunctionIR(RunSeed, /*WithLoop=*/Run % 3 == 1,
                                        /*WithMemory=*/Run % 4 == 2);
      BaseKind = "gen";
    }

    fuzz::Mutator Mut(RunSeed);
    std::string Mutated = Mut.mutate(Base, Mutations);

    std::vector<fuzz::OracleFailure> Failures = Oracle.run(Mutated);
    std::printf("%s seed=%llu base=%s mutations=%zu failures=%zu\n", Label,
                (unsigned long long)RunSeed, BaseKind, Mut.log().size(),
                Failures.size());
    if (trace::enabled())
      trace::Event("fuzz_run")
          .num("run", Run)
          .str("base", BaseKind)
          .num("mutations", Mut.log().size())
          .num("failures", Failures.size());

    for (const fuzz::OracleFailure &F : Failures) {
      ++TotalFailures;
      CtrFailures.inc();
      std::printf("FAIL %s oracle=%s: %s\n", Label, F.Oracle.c_str(),
                  oneLine(F.Detail).c_str());
      if (trace::enabled())
        trace::Event("fuzz_failure")
            .num("run", Run)
            .str("oracle", F.Oracle)
            .str("detail", F.Detail);

      std::string Src = F.SrcIR, Tgt = F.TgtIR, Detail = F.Detail;
      size_t InitialInstrs = 0, FinalInstrs = 0;
      if (!NoReduce) {
        fuzz::ReduceResult R = Reducer.reduce(F.Oracle, F.SrcIR);
        Src = R.SrcIR;
        Tgt = R.TgtIR;
        if (!R.Detail.empty())
          Detail = R.Detail;
        InitialInstrs = R.InitialInstrs;
        FinalInstrs = R.FinalInstrs;
        if (trace::enabled())
          trace::Event("fuzz_reduce")
              .num("run", Run)
              .str("oracle", F.Oracle)
              .num("candidates", R.CandidatesTried)
              .num("accepted", R.Accepted)
              .num("initial_instrs", R.InitialInstrs)
              .num("final_instrs", R.FinalInstrs);
      }

      std::map<std::string, std::string> Meta{
          {"oracle", F.Oracle},
          {"seed", std::to_string(Seed)},
          {"run", std::to_string(Run)},
          {"unroll", std::to_string(Opts.UnrollFactor)},
          {"budget_sec", std::to_string(Opts.Budget.TimeoutSec)},
          {"pipeline", joinList(C.Pipeline)},
          {"expect", "fail"},
          {"detail", oneLine(Detail)},
      };
      std::map<std::string, std::string> Files{{"src.ll", Src}};
      if (!Tgt.empty())
        Files["tgt.ll"] = Tgt;
      auto Dir = writeArtifact(Root, Label, F.Oracle, Meta, Files);
      if (InitialInstrs || FinalInstrs)
        std::printf("  reduced %zu -> %zu instrs; artifacts: %s\n",
                    InitialInstrs, FinalInstrs, Dir.string().c_str());
      else
        std::printf("  artifacts: %s\n", Dir.string().c_str());
    }
  }

  // Parser fuzzing: corrupt the text, demand a diagnostic or a clean
  // round-trip — never a crash and never a silent reject.
  for (unsigned Run = 0; Run < ParserRuns; ++Run) {
    prof::Span Sp("fuzz_parser_run");
    CtrRuns.inc();
    uint64_t RunSeed = Master.next();
    char Label[32];
    std::snprintf(Label, sizeof(Label), "prun%03u", Run);

    std::string Base = corpus::generateFunctionIR(
        RunSeed, /*WithLoop=*/Run % 3 == 1, /*WithMemory=*/Run % 4 == 2);
    fuzz::Mutator Mut(RunSeed);
    std::string Text = Mut.mutateText(Base);

    std::string Detail;
    std::string Failed = parserOracle(Text, Detail);
    if (Failed.empty())
      continue;
    ++TotalFailures;
    CtrFailures.inc();
    std::printf("FAIL %s oracle=%s: %s\n", Label, Failed.c_str(),
                oneLine(Detail).c_str());
    if (trace::enabled())
      trace::Event("fuzz_failure")
          .num("parser_run", Run)
          .str("oracle", Failed)
          .str("detail", Detail);

    std::string Reduced = Text;
    if (!NoReduce)
      Reduced = fuzz::Reducer::reduceText(
          Text,
          [&](const std::string &Cand) {
            std::string D;
            return parserOracle(Cand, D) == Failed;
          },
          /*MaxProbes=*/256);
    std::map<std::string, std::string> Meta{
        {"oracle", Failed},
        {"seed", std::to_string(Seed)},
        {"run", std::to_string(Run)},
        {"expect", "fail"},
        {"detail", oneLine(Detail)},
    };
    auto Dir = writeArtifact(Root, Label, Failed, Meta,
                             {{"input.ll", Reduced}});
    std::printf("  reduced %zu -> %zu bytes; artifacts: %s\n", Text.size(),
                Reduced.size(), Dir.string().c_str());
  }

  std::printf("alive-fuzz: %u run(s), %u failure(s)\n", Runs + ParserRuns,
              TotalFailures);

  if (!Shared.closeSinks(stderr))
    return 2;
  return TotalFailures ? 1 : 0;
}
