//===- tools/alive-tv.cpp - Two-file refinement checker -----------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The standalone tool of Section 8.1: takes two textual IR files and
/// checks refinement between every function name present in both.
///
///   alive-tv src.ll tgt.ll [-j N] [--unroll N] [--timeout SEC]
///            [--equivalence] [--cache-dir DIR] [--no-query-cache]
///            [--retry N] [--deadline DUR] [--mem-limit MB]
///            [--stats] [--json] [--trace-out FILE]
///            [--profile] [--profile-out FILE] [--slow-query-ms N]
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "refine/CLI.h"
#include "refine/Validator.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace alive;

static bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

static void usage(const refine::cli::OptionsParser &Shared) {
  std::fprintf(stderr,
               "usage: alive-tv <src.ll> <tgt.ll> [-j N] [--unroll N] "
               "[--timeout SEC] [--equivalence]\n"
               "                [--cache-dir DIR] [--no-query-cache] "
               "[--stats] [--json] [--trace-out FILE]\n"
               "                [--profile] [--profile-out FILE] "
               "[--slow-query-ms N]\n"
               "%s"
               "  --json           emit a machine-readable per-pair summary "
               "on stdout\n",
               Shared.usage().c_str());
}

/// Renders one verdict's JSON object (without trailing newline/comma).
static void printPairJson(const std::string &Name, const refine::Verdict &V) {
  std::printf("    {\"function\": \"%s\", \"verdict\": \"%s\", "
              "\"failed_check\": \"%s\", \"detail\": \"%s\", "
              "\"seconds\": %.6f, \"queries_run\": %u, \"cached\": %s, "
              "\"queries\": [",
              trace::jsonEscape(Name).c_str(), V.kindName(),
              trace::jsonEscape(V.FailedCheck).c_str(),
              trace::jsonEscape(V.Detail).c_str(), V.Seconds, V.QueriesRun,
              V.Cached ? "true" : "false");
  bool FirstQ = true;
  for (const refine::QueryStats &Q : V.Queries) {
    std::printf("%s\n      {\"check\": \"%s\", \"result\": \"%s\", "
                "\"seconds\": %.6f, \"solver_seconds\": %.6f, "
                "\"sat_checks\": %u, \"ef_iterations\": %u, "
                "\"conflicts\": %llu, \"decisions\": %llu, "
                "\"propagations\": %llu, \"clauses\": %zu, "
                "\"cache_hit\": %s, \"restless_reads\": [",
                FirstQ ? "" : ",", trace::jsonEscape(Q.Check).c_str(),
                trace::jsonEscape(refine::toString(Q.Result)).c_str(),
                Q.Seconds,
                Q.SolverSeconds, Q.SatChecks, Q.EFIterations,
                (unsigned long long)Q.Conflicts,
                (unsigned long long)Q.Decisions,
                (unsigned long long)Q.Propagations, Q.Clauses,
                Q.CacheHit ? "true" : "false");
    for (size_t I = 0; I < Q.RestlessReads.size(); ++I)
      std::printf("%s\"%s\"", I ? ", " : "",
                  trace::jsonEscape(Q.RestlessReads[I]).c_str());
    std::printf("]}");
    FirstQ = false;
  }
  std::printf("%s]}", FirstQ ? "" : "\n    ");
}

/// Renders the statistics registry snapshot as the "stats" member of the
/// --json document, so machine consumers get the per-pair summary and the
/// process counters in one read (--stats keeps the human table on stderr).
static void printStatsJson() {
  stats::Snapshot S = stats::Registry::get().snapshot();
  std::printf("  \"stats\": {\n    \"counters\": {");
  bool First = true;
  for (const auto &[Name, V] : S.Counters) {
    std::printf("%s\n      \"%s\": %llu", First ? "" : ",",
                trace::jsonEscape(Name).c_str(), (unsigned long long)V);
    First = false;
  }
  std::printf("%s},\n    \"distributions\": {", First ? "" : "\n    ");
  First = true;
  for (const auto &[Name, D] : S.Dists) {
    std::printf("%s\n      \"%s\": {\"count\": %llu, \"sum\": %.6f, "
                "\"min\": %.6f, \"max\": %.6f}",
                First ? "" : ",", trace::jsonEscape(Name).c_str(),
                (unsigned long long)D.Count, D.Sum, D.Min, D.Max);
    First = false;
  }
  std::printf("%s}\n  }", First ? "" : "\n    ");
}

int main(int argc, char **argv) {
  const char *SrcPath = nullptr, *TgtPath = nullptr;
  bool Json = false;
  unsigned Jobs = 1;
  refine::Options Opts;
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
    if (!std::strcmp(argv[I], "--json")) {
      Json = true;
    } else if (argv[I][0] == '-' && argv[I][1] != '\0') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
      usage(Shared);
      return 2;
    } else if (!SrcPath) {
      SrcPath = argv[I];
    } else if (!TgtPath) {
      TgtPath = argv[I];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[I]);
      usage(Shared);
      return 2;
    }
  }
  if (!SrcPath || !TgtPath) {
    usage(Shared);
    return 2;
  }
  if (!Shared.validate() || !Shared.openSinks())
    return 2;

  std::string SrcText, TgtText;
  if (!readFile(SrcPath, SrcText) || !readFile(TgtPath, TgtText)) {
    std::fprintf(stderr, "error: cannot read input files\n");
    return 2;
  }
  Diag Err;
  Stopwatch ParseTimer;
  auto SrcM = ir::parseModule(SrcText, Err);
  if (!SrcM) {
    std::fprintf(stderr, "%s: %s\n", SrcPath, Err.str().c_str());
    return 2;
  }
  auto TgtM = ir::parseModule(TgtText, Err);
  if (!TgtM) {
    std::fprintf(stderr, "%s: %s\n", TgtPath, Err.str().c_str());
    return 2;
  }
  if (trace::enabled())
    trace::Event("parse")
        .str("src", SrcPath)
        .str("tgt", TgtPath)
        .num("seconds", ParseTimer.seconds())
        .num("src_bytes", SrcText.size())
        .num("tgt_bytes", TgtText.size());

  refine::Validator Validator(Opts);
  auto Results = Validator.verifyModules(*SrcM, *TgtM, Jobs);
  // Persist the cache before reporting so --json's stats snapshot includes
  // the disk counters; a flush failure is a warning, not a failed run.
  if (std::string CacheErr; !Validator.flushCache(&CacheErr))
    std::fprintf(stderr, "warning: cannot write cache: %s\n",
                 CacheErr.c_str());
  int Failures = 0;
  if (Json) {
    std::printf("{\n  \"src\": \"%s\",\n  \"tgt\": \"%s\",\n  \"pairs\": [\n",
                trace::jsonEscape(SrcPath).c_str(),
                trace::jsonEscape(TgtPath).c_str());
    bool First = true;
    for (const auto &[Name, Index, V] : Results) {
      (void)Index;
      if (V.isIncorrect())
        ++Failures;
      if (!First)
        std::printf(",\n");
      First = false;
      printPairJson(Name, V);
    }
    std::printf("\n  ],\n");
    printStatsJson();
    std::printf("\n}\n");
  } else {
    for (const auto &[Name, Index, V] : Results) {
      (void)Index;
      std::printf("---- @%s ----\n", Name.c_str());
      const char *Cached = V.Cached ? " (cached)" : "";
      switch (V.Kind) {
      case refine::VerdictKind::Correct:
        std::printf(
            "Transformation seems to be correct!%s  (%.2fs, %u queries)\n",
            Cached, V.Seconds, V.QueriesRun);
        break;
      case refine::VerdictKind::Incorrect:
        ++Failures;
        std::printf("Transformation doesn't verify!%s\nERROR: %s\n%s\n",
                    Cached, V.FailedCheck.c_str(), V.Detail.c_str());
        break;
      default:
        std::printf("%s%s: %s (%s)\n", V.kindName(), Cached,
                    V.FailedCheck.c_str(), V.Detail.c_str());
        break;
      }
    }
    if (Results.empty())
      std::printf("no function pairs to verify\n");
    // Honest degradation summary whenever a resource-governance knob is
    // active: what got retried, skipped, or shed — deadline skips are not
    // timeouts and do not affect the exit code.
    if (Opts.Retry.MaxRungs > 0 || Opts.DeadlineSec > 0 ||
        Opts.MaxRssBytes > 0) {
      refine::BatchSummary S = refine::summarize(Results);
      std::printf("summary: %u pairs, %u correct, %u incorrect, %u timeout, "
                  "%u oom, %u deadline-skipped, %u retried (%.2fs total)\n",
                  S.Pairs, S.Correct, S.Incorrect, S.Timeout, S.OutOfMemory,
                  S.DeadlineSkipped, S.Retried, S.Seconds);
    }
  }

  // With --json active, stdout must stay a single valid JSON document.
  if (!Shared.closeSinks(Json ? stderr : stdout))
    return 2;
  return Failures ? 1 : 0;
}
