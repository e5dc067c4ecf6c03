//===- support/Trace.h - Structured JSONL query tracing ---------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An optional structured trace of the solver pipeline: one JSON object per
/// line (JSONL), one line per pipeline event — unroll, encode, each staged
/// refinement query, each exists-forall search, each SAT check. Disabled by
/// default; when no sink is attached, enabled() is a relaxed atomic load so
/// instrumented call sites cost one predictable branch.
///
/// Every event carries "event" (its kind), "t" (seconds since the sink
/// was attached), "tid" (dense per-thread id, shared with the profiler's
/// Chrome tracks) and "span" (innermost prof::Span id, 0 when none), so
/// interleaved lines from `alive-tv -j N` runs stay attributable;
/// remaining fields are event-specific. Field values are strings, numbers
/// or booleans — nesting is deliberately unsupported so every consumer can
/// stream-parse line by line. See the "Observability" section of DESIGN.md
/// for the schema of each event kind.
///
/// Usage at an instrumented site:
///
///   if (trace::enabled())
///     trace::Event("sat_check").str("result", R).effort(Span.effort());
///
/// The event is emitted (atomically, one line) when the temporary dies.
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SUPPORT_TRACE_H
#define ALIVE2RE_SUPPORT_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace alive::prof {
struct Tally;
} // namespace alive::prof

namespace alive::trace {

/// True while a sink is attached. Relaxed atomic load: cheap enough for any
/// instrumented path.
bool enabled();

/// Attaches a file sink at \p Path (truncating). \returns false when the
/// file cannot be opened. Replaces any previous sink.
bool openFile(const std::string &Path);

/// Attaches \p OS as the sink (test hook); nullptr detaches. The stream
/// must outlive the attachment.
void setStream(std::ostream *OS);

/// Flushes and detaches the current sink, closing a file sink.
void close();

/// Escapes \p S for embedding in a JSON string literal (quotes, backslash,
/// control characters). Shared with the --json renderer in alive-tv.
std::string jsonEscape(std::string_view S);

/// One JSONL event, emitted on destruction. Construction is a no-op when
/// tracing is disabled; callers should still guard field computation with
/// enabled() to avoid formatting costs.
class Event {
public:
  explicit Event(const char *Kind);
  ~Event();

  Event(const Event &) = delete;
  Event &operator=(const Event &) = delete;

  Event &str(const char *Key, std::string_view Value);
  /// A list of strings: the one non-scalar field kind (the query event's
  /// restless_reads).
  Event &strs(const char *Key, const std::vector<std::string> &Values);
  Event &num(const char *Key, double Value);
  Event &flag(const char *Key, bool Value);
  /// Adds every effort key of \p T (prof::Tally::forEach).
  Event &effort(const prof::Tally &T);

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Event &num(const char *Key, T Value) {
    if (!On)
      return *this;
    if constexpr (std::is_signed_v<T>)
      return numI(Key, (int64_t)Value);
    else
      return numU(Key, (uint64_t)Value);
  }

private:
  Event &numU(const char *Key, uint64_t Value);
  Event &numI(const char *Key, int64_t Value);
  void key(const char *Key);

  bool On;
  std::string Buf;
};

} // namespace alive::trace

#endif // ALIVE2RE_SUPPORT_TRACE_H
