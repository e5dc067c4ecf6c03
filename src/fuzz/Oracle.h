//===- fuzz/Oracle.h - Metamorphic verification oracles ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic properties of the validator stack, evaluated through the
/// refine::Validator facade over a source module and the pipeline output it
/// derives. Oracles (stable names in parentheses):
///
///   - self-refinement (self-refine): every function refines itself;
///   - pipeline soundness (pipeline-soundness): the output of a correct
///     pipeline refines its input;
///   - print -> parse -> print fixpoint (print-parse-fixpoint);
///   - verdict parity across configurations that must not change semantics:
///     -j1 vs -jN (jobs-parity), cache cold/warm/disabled (cache-parity),
///     retry ladder off/on (retry-parity);
///   - unroll monotonicity (unroll-monotonic): an Incorrect verdict at a
///     smaller unroll bound must not flip to Correct at a larger one.
///
/// Parity oracles only fire when both sides are conclusive (Correct or
/// Incorrect) and disagree — Timeout/OutOfMemory differences are resource
/// noise, not soundness bugs — so failures are deterministic and real.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_FUZZ_ORACLE_H
#define ALIVE2RE_FUZZ_ORACLE_H

#include "refine/Refinement.h"

#include <string>
#include <vector>

namespace alive::fuzz {

/// One violated property. SrcIR/TgtIR are the failing pair as verified
/// (TgtIR empty for text-level oracles) so the failure replays without
/// re-running the pipeline.
struct OracleFailure {
  std::string Oracle; ///< stable oracle name ("pipeline-soundness", ...)
  std::string Detail; ///< verdict/diagnostic text
  std::string SrcIR;
  std::string TgtIR;
};

class Oracle {
public:
  struct Config {
    /// Base verification options (cache/retry are overridden per oracle).
    refine::Options Opts;
    /// Pass pipeline deriving the target from the source
    /// (opt::defaultPipeline() for the correct -O2; a buggy pass name to
    /// inject miscompiles).
    std::vector<std::string> Pipeline;
    /// Worker count of the parallel side of jobs-parity.
    unsigned ParityJobs = 2;
    bool SelfRefine = true;
    bool PipelineSoundness = true;
    bool PrintParseFixpoint = true;
    bool JobsParity = true;
    bool CacheParity = true;
    bool RetryParity = true;
    bool UnrollMonotonic = true;
  };

  explicit Oracle(Config C);

  /// Evaluates every enabled oracle over \p SrcIR and the derived target.
  std::vector<OracleFailure> run(const std::string &SrcIR);

  /// Re-evaluates one oracle by name — the reducer's predicate. The target
  /// is re-derived from \p SrcIR through the configured pipeline.
  bool fails(const std::string &OracleName, const std::string &SrcIR,
             std::string *Detail = nullptr);

  /// Replays a saved failure pair directly (no pipeline run): true when the
  /// recorded property still fails on (SrcIR, TgtIR). Used by
  /// `alive-fuzz --repro`.
  bool replay(const OracleFailure &F, std::string *Detail = nullptr);

  /// Runs the configured pipeline over \p SrcIR; empty string when the
  /// source does not parse.
  std::string deriveTarget(const std::string &SrcIR);

private:
  /// Verifies (SrcIR's last function, same-named function of TgtIR) under
  /// \p Opts; Failed verdict with a diagnostic when either side is
  /// malformed.
  refine::Verdict verify(const std::string &SrcIR, const std::string &TgtIR,
                         const refine::Options &Opts, unsigned Jobs = 1);

  /// Single-oracle evaluators; each returns true on FAILURE and fills
  /// \p Detail.
  bool checkSelfRefine(const std::string &Src, std::string &Detail);
  bool checkPairSound(const std::string &Src, const std::string &Tgt,
                      std::string &Detail);
  bool checkFixpoint(const std::string &Src, std::string &Detail);
  bool checkJobsParity(const std::string &Src, const std::string &Tgt,
                       std::string &Detail);
  bool checkCacheParity(const std::string &Src, const std::string &Tgt,
                        std::string &Detail);
  bool checkRetryParity(const std::string &Src, const std::string &Tgt,
                        std::string &Detail);
  bool checkUnrollMonotonic(const std::string &Src, const std::string &Tgt,
                            std::string &Detail);

  /// Dispatch by oracle name, shared by fails() and replay().
  bool evalOne(const std::string &Name, const std::string &Src,
               const std::string &Tgt, std::string &Detail);

  /// The -j1 cache-off retry-off verdict on (Src, Tgt), memoized per pair:
  /// five of the seven oracles compare against this one baseline, so one
  /// run() evaluates it once instead of five times.
  refine::Verdict baseVerdict(const std::string &Src, const std::string &Tgt);

  Config C;
  struct {
    std::string Src, Tgt;
    refine::Verdict V;
    bool Valid = false;
  } BaseMemo;
};

} // namespace alive::fuzz

#endif // ALIVE2RE_FUZZ_ORACLE_H
