//===- refine/CLI.cpp - Shared tool command-line parsing ---------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "refine/CLI.h"

#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace alive;
using namespace alive::refine;
using namespace alive::refine::cli;

bool cli::parseUnsigned(const char *S, unsigned &Out) {
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(S, &End, 10);
  if (End == S || *End != '\0' || errno == ERANGE || V < 0 || V > 0x7fffffff)
    return false;
  Out = (unsigned)V;
  return true;
}

bool cli::parseDouble(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cli::parseDuration(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || errno == ERANGE)
    return false;
  double Scale = 1;
  if (!std::strcmp(End, "ms"))
    Scale = 1e-3;
  else if (!std::strcmp(End, "s") || !*End)
    Scale = 1;
  else if (!std::strcmp(End, "m"))
    Scale = 60;
  else if (!std::strcmp(End, "h"))
    Scale = 3600;
  else
    return false;
  Out = V * Scale;
  return true;
}

const char *cli::flagValue(int Argc, char **Argv, int &I) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "error: %s requires a value\n", Argv[I]);
    return nullptr;
  }
  return Argv[++I];
}

bool cli::unsignedFlag(int Argc, char **Argv, int &I, unsigned &Out) {
  const char *Flag = Argv[I];
  const char *Val = flagValue(Argc, Argv, I);
  if (!Val)
    return false;
  if (!parseUnsigned(Val, Out)) {
    std::fprintf(stderr, "error: %s expects an integer, got '%s'\n", Flag,
                 Val);
    return false;
  }
  return true;
}

std::string OptionsParser::usage() const {
  char Defaults[256];
  std::snprintf(Defaults, sizeof Defaults,
                "  --unroll N       loop unroll bound (default %u)\n"
                "  --timeout SEC    solver time budget per pair in seconds "
                "(default %g)\n",
                Default.UnrollFactor, Default.Budget.TimeoutSec);
  std::string U;
  if (Jobs)
    U += "  -j N             verify pairs on N parallel workers "
         "(0 = one per hardware thread)\n";
  U += Defaults;
  U += "  --equivalence    check plain equivalence instead of refinement\n"
       "  --cache-dir DIR  persist the result cache to DIR/alive2re.cache "
       "(warm runs skip\n"
       "                   unchanged pairs and report them as cached)\n"
       "  --no-query-cache disable the result cache entirely\n"
       "  --retry N        budget-escalation ladder: retry timed-out pairs "
       "up to N times,\n"
       "                   multiplying the solver budget by 4 per rung "
       "(default 0 = off)\n"
       "  --deadline DUR   total wall-clock deadline for the whole run "
       "(\"30s\", \"5m\");\n"
       "                   pairs not dispatched in time are reported as "
       "deadline-skipped\n"
       "  --mem-limit MB   memory watchdog: cancel the longest-running pair "
       "when process\n"
       "                   RSS exceeds MB megabytes (0 = off)\n"
       "  --stats          print the statistics registry after the run\n"
       "  --trace-out FILE stream JSONL pipeline events to FILE\n"
       "  --profile        print the per-phase profile table after the run\n"
       "  --profile-out FILE  write a Chrome trace-event profile "
       "(Perfetto / chrome://tracing)\n"
       "  --slow-query-ms N   log path + cost of staged queries "
       "slower than N ms to stderr\n";
  return U;
}

Parsed OptionsParser::consume(int Argc, char **Argv, int &I) {
  const char *A = Argv[I];
  // A flag with a missing value is an Error, so flags never fall through to
  // a tool's positional handling half-parsed.
  const char *Val = nullptr;
  auto value = [&]() { return (Val = flagValue(Argc, Argv, I)) != nullptr; };

  if (!std::strcmp(A, "--unroll"))
    return unsignedFlag(Argc, Argv, I, Opts.UnrollFactor) ? Parsed::Ok
                                                           : Parsed::Error;
  if (!std::strcmp(A, "--timeout")) {
    if (!value())
      return Parsed::Error;
    if (!parseDouble(Val, Opts.Budget.TimeoutSec)) {
      std::fprintf(stderr,
                   "error: --timeout expects a number of seconds, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--equivalence")) {
    Opts.EquivalenceMode = true;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--cache-dir")) {
    if (!value())
      return Parsed::Error;
    if (!*Val) {
      std::fprintf(stderr, "error: --cache-dir expects a directory\n");
      return Parsed::Error;
    }
    Opts.Cache.Dir = Val;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--no-query-cache")) {
    // Levels only: a later --cache-dir must not be wiped (and vice versa a
    // kept Dir is inert while both levels are off).
    Opts.Cache.QueryLevel = Opts.Cache.PairLevel = false;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--retry"))
    return unsignedFlag(Argc, Argv, I, Opts.Retry.MaxRungs) ? Parsed::Ok
                                                             : Parsed::Error;
  if (!std::strcmp(A, "--deadline")) {
    if (!value())
      return Parsed::Error;
    if (!parseDuration(Val, Opts.DeadlineSec)) {
      std::fprintf(
          stderr,
          "error: --deadline expects a duration (e.g. 30s, 5m), got '%s'\n",
          Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--mem-limit")) {
    if (!value())
      return Parsed::Error;
    unsigned Mb = 0;
    if (!parseUnsigned(Val, Mb)) {
      std::fprintf(stderr,
                   "error: --mem-limit expects an integer number of "
                   "megabytes, got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    Opts.MaxRssBytes = (size_t)Mb << 20;
    return Parsed::Ok;
  }
  if (Jobs && (!std::strcmp(A, "-j") || !std::strcmp(A, "--jobs")))
    return unsignedFlag(Argc, Argv, I, *Jobs) ? Parsed::Ok : Parsed::Error;
  if (!std::strcmp(A, "--stats")) {
    ShowStats = true;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--profile")) {
    ShowProfile = true;
    return Parsed::Ok;
  }
  if (!std::strcmp(A, "--trace-out"))
    return (TraceOut = flagValue(Argc, Argv, I)) ? Parsed::Ok : Parsed::Error;
  if (!std::strcmp(A, "--profile-out"))
    return (ProfileOut = flagValue(Argc, Argv, I)) ? Parsed::Ok
                                                   : Parsed::Error;
  if (!std::strcmp(A, "--slow-query-ms")) {
    if (!value())
      return Parsed::Error;
    if (!parseDouble(Val, SlowQueryMs) || SlowQueryMs < 0) {
      std::fprintf(stderr,
                   "error: --slow-query-ms expects a non-negative number, "
                   "got '%s'\n",
                   Val);
      return Parsed::Error;
    }
    return Parsed::Ok;
  }
  return Parsed::NotMine;
}

bool OptionsParser::validate() const {
  std::string Err = Opts.validate();
  if (Err.empty())
    return true;
  std::fprintf(stderr, "error: invalid options: %s\n", Err.c_str());
  return false;
}

bool OptionsParser::openSinks() const {
  if (TraceOut && !trace::openFile(TraceOut)) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n", TraceOut);
    return false;
  }
  // Any profiling consumer turns span collection on, before the tool
  // parses its input so the parse span is part of the profile too.
  if (ShowProfile || ProfileOut || SlowQueryMs >= 0) {
    if (SlowQueryMs >= 0)
      prof::setSlowQueryMs(SlowQueryMs);
    prof::start();
  }
  return true;
}

bool OptionsParser::closeSinks(std::FILE *Tables) const {
  if (ShowStats)
    std::fputs(stats::Registry::get().table().c_str(), Tables);
  if (ShowProfile)
    std::fputs(prof::table().c_str(), Tables);
  bool Ok = !ProfileOut || prof::writeChromeTrace(ProfileOut);
  if (!Ok)
    std::fprintf(stderr, "error: cannot write profile file '%s'\n",
                 ProfileOut);
  trace::close();
  return Ok;
}
