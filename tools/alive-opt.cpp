//===- tools/alive-opt.cpp - Optimize with per-pass validation -----------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The opt-plugin analog (Section 8.1): runs a pass pipeline over a module
/// and validates every transformation.
///
///   alive-opt in.ll --passes=instcombine,dce [--tv] [--batch]
///             [--unroll N] [--timeout SEC] [--cache-dir DIR]
///             [--no-query-cache] [--stats] [--trace-out FILE]
///             [--profile] [--profile-out FILE] [--slow-query-ms N]
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "refine/CLI.h"
#include "refine/Validator.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace alive;

static void usage(const refine::cli::OptionsParser &Shared) {
  std::fprintf(stderr,
               "usage: alive-opt <in.ll> [--passes=a,b] [--tv] [--batch] "
               "[--no-print]\n%s",
               Shared.usage().c_str());
}

int main(int argc, char **argv) {
  const char *InPath = nullptr;
  std::vector<std::string> Passes = opt::defaultPipeline();
  bool TV = false, Batch = false, PrintResult = true;
  refine::Options Opts;
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
    if (!std::strncmp(argv[I], "--passes=", 9)) {
      Passes.clear();
      std::string List = argv[I] + 9;
      size_t Pos = 0;
      while (Pos < List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        Passes.push_back(List.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
    } else if (!std::strcmp(argv[I], "--tv")) {
      TV = true;
    } else if (!std::strcmp(argv[I], "--batch")) {
      Batch = true;
    } else if (!std::strcmp(argv[I], "--no-print")) {
      PrintResult = false;
    } else if (argv[I][0] == '-' && argv[I][1] != '\0') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
      usage(Shared);
      return 2;
    } else if (!InPath) {
      InPath = argv[I];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[I]);
      return 2;
    }
  }
  if (!InPath) {
    usage(Shared);
    return 2;
  }
  if (!Shared.validate() || !Shared.openSinks())
    return 2;
  std::ifstream In(InPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot read '%s'\n", InPath);
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Diag Err;
  auto M = ir::parseModule(SS.str(), Err);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", InPath, Err.str().c_str());
    return 2;
  }

  int Failures = 0;
  refine::Validator Validator(Opts);
  opt::TVHook Hook;
  if (TV) {
    ir::Module *MPtr = M.get();
    // MPtr by value: the hook outlives this block.
    Hook = [&, MPtr](const ir::Function &Before, const ir::Function &After,
                     const std::string &PassName) {
      smt::resetContext();
      refine::Verdict V = Validator.verifyPair(Before, After, MPtr);
      if (V.isCorrect())
        return;
      ++Failures;
      std::printf("TV FAILURE after %s on @%s: %s [%s]\n%s\n",
                  PassName.c_str(), Before.name().c_str(), V.kindName(),
                  V.FailedCheck.c_str(), V.Detail.c_str());
    };
  }
  opt::runPipeline(*M, Passes, Hook, Batch);
  if (std::string CacheErr; !Validator.flushCache(&CacheErr))
    std::fprintf(stderr, "warning: cannot write cache: %s\n",
                 CacheErr.c_str());
  if (PrintResult)
    std::printf("%s", ir::printModule(*M).c_str());
  if (!Shared.closeSinks(stderr))
    return 2;
  return Failures ? 1 : 0;
}
