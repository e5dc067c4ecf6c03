//===- refine/CLI.h - Shared tool command-line parsing ----------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag parser for every alive-* tool. The tools used to duplicate the
/// argv loop for the flags that map onto refine::Options — and the copies
/// diverged: alive-tv validated values, alive-opt and alive-corpus ran them
/// through atoi and silently accepted garbage. This parser owns the shared
/// flags (--unroll, --timeout, --equivalence, the cache and governance
/// flags, -j/--jobs where a tool is parallel, and the observability flags
/// --stats, --trace-out, --profile, --profile-out, --slow-query-ms); tools
/// offer each argv slot to it first and keep only their tool-specific
/// flags. Malformed values are diagnosed on stderr and the tool exits 2.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_REFINE_CLI_H
#define ALIVE2RE_REFINE_CLI_H

#include "refine/Refinement.h"

#include <cstdio>
#include <string>

namespace alive::refine::cli {

/// Parses a non-negative integer; rejects trailing garbage ("3x") and
/// negative values. Semantic range checks (e.g. a zero unroll factor) are
/// Options::validate()'s job, not the flag parser's.
bool parseUnsigned(const char *S, unsigned &Out);

/// Parses a decimal number (seconds); range-checked by Options::validate().
bool parseDouble(const char *S, double &Out);

/// Parses a wall-clock duration into seconds: a plain number means seconds,
/// and an "ms" / "s" / "m" / "h" suffix scales it ("30s", "1.5m", "250ms").
bool parseDuration(const char *S, double &Out);

/// The value of the flag at \p Argv[\p I], advancing \p I. A missing value
/// is diagnosed on stderr ("error: <flag> requires a value") and yields
/// null.
const char *flagValue(int Argc, char **Argv, int &I);

/// Parses the integer value of the flag at \p Argv[\p I] into \p Out,
/// advancing \p I. A missing or malformed value is diagnosed on stderr
/// ("error: <flag> expects an integer, got '<value>'") and yields false.
bool unsignedFlag(int Argc, char **Argv, int &I, unsigned &Out);

/// Outcome of offering one argv slot to the shared parser.
enum class Parsed {
  NotMine, ///< not a shared flag: the tool handles it
  Ok,      ///< consumed (possibly together with its value)
  Error,   ///< shared flag with a bad/missing value; diagnostic printed
};

class OptionsParser {
public:
  /// \p Opts holds the tool's defaults on entry; usage() prints those.
  /// \p Jobs enables -j/--jobs; pass null for serial tools.
  explicit OptionsParser(Options &Opts, unsigned *Jobs = nullptr)
      : Opts(Opts), Jobs(Jobs), Default(Opts) {}

  /// Offers argv[\p I] to the parser; consuming a flag's value advances
  /// \p I. On Error the diagnostic is already on stderr — return 2.
  Parsed consume(int Argc, char **Argv, int &I);

  /// Runs Options::validate() after the argv loop and prints the
  /// diagnostic on failure — a false return means exit 2.
  bool validate() const;

  /// Usage lines for the shared flags with the tool's defaults, each
  /// "  --flag ...\n", for a tool to splice into its own usage() output.
  std::string usage() const;

  /// Before the run: attaches the --trace-out sink and starts span
  /// collection when a profiling flag asks for it. A false return (the
  /// diagnostic is printed) means exit 2.
  bool openSinks() const;

  /// After the run: prints the --stats and --profile tables to \p Tables,
  /// writes the --profile-out file and closes the trace. A false return
  /// (the diagnostic is printed) means exit 2.
  bool closeSinks(std::FILE *Tables) const;

private:
  Options &Opts;
  unsigned *Jobs;
  const Options Default;
  bool ShowStats = false, ShowProfile = false;
  const char *TraceOut = nullptr, *ProfileOut = nullptr;
  double SlowQueryMs = -1;
};

} // namespace alive::refine::cli

#endif // ALIVE2RE_REFINE_CLI_H
