//===- support/Profile.cpp - Hierarchical thread-aware profiling ------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/Diag.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <type_traits>

using namespace alive;
using namespace alive::prof;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextSpanId{1};

std::mutex Mu;
std::vector<SpanRecord> Records; // guarded by Mu
Stopwatch Epoch;                 // reset by start(); reads are racy-benign
                                 // (only spans opened while enabled read it)

std::atomic<double> SlowQueryMs{-1.0};
std::mutex SlowMu;
std::ostream *SlowSink = nullptr; // guarded by SlowMu; nullptr = stderr

/// One open span as seen by this thread's stack.
struct OpenSpan {
  uint64_t Id;
  const char *Name;
};

struct ThreadState {
  std::vector<OpenSpan> Stack;
  uint64_t InheritedParent = 0;
  std::string InheritedPath;
};

ThreadState &threadState() {
  thread_local ThreadState TS;
  return TS;
}

/// ">"-joined path of this thread's open spans, including any adopted
/// cross-thread prefix.
std::string currentPath() {
  ThreadState &TS = threadState();
  std::string Out = TS.InheritedPath;
  for (const OpenSpan &S : TS.Stack) {
    if (!Out.empty())
      Out += '>';
    Out += S.Name;
  }
  return Out;
}

/// Appends each effort key of \p T as " key=value", or with \p Json as
/// ",\"key\":value".
void appendEffort(std::string &Out, const Tally &T, bool Json) {
  T.forEach([&](const char *Key, auto V) {
    char Buf[64];
    if constexpr (std::is_same_v<decltype(V), double>)
      std::snprintf(Buf, sizeof Buf, Json ? ",\"%s\":%.9g" : " %s=%.9g", Key,
                    V);
    else
      std::snprintf(Buf, sizeof Buf,
                    Json ? ",\"%s\":%" PRIu64 : " %s=%" PRIu64, Key, V);
    Out += Buf;
  });
}

void logSlowQuery(const SpanRecord &R) {
  char Head[64];
  std::snprintf(Head, sizeof Head, "[slow-query] %.1f ms  path=",
                R.DurSec * 1000.0);
  std::string Line = Head;
  std::string Path = currentPath();
  if (!Path.empty())
    Path += '>';
  Line += Path;
  Line += R.Name;
  Line += "  check=\"" + R.Detail + "\" ";
  appendEffort(Line, R.Effort, /*Json=*/false);
  Line += '\n';
  std::lock_guard<std::mutex> Lock(SlowMu);
  if (SlowSink) {
    *SlowSink << Line;
    SlowSink->flush();
  } else {
    std::fputs(Line.c_str(), stderr);
  }
}

} // namespace

bool prof::enabled() { return Enabled.load(std::memory_order_relaxed); }

void prof::start() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Records.clear();
    Epoch.reset();
  }
  // Release pairs with the acquire in Span's constructor: a span that sees
  // the flag also sees the reset epoch.
  Enabled.store(true, std::memory_order_release);
}

void prof::stop() { Enabled.store(false, std::memory_order_release); }

void prof::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Records.clear();
}

unsigned prof::threadId() {
  static std::atomic<unsigned> NextTid{0};
  thread_local unsigned Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

Tally &prof::tally() {
  thread_local Tally T;
  return T;
}

Span::Span(const char *Name, std::string_view Detail, stats::Sampler Time)
    : Name(Name), Time(Time), At0(tally()) {
  tally().Clauses = 0;
  if (!Enabled.load(std::memory_order_acquire))
    return;
  this->Detail = Detail;
  ThreadState &TS = threadState();
  SpanId = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  ParentId = TS.Stack.empty() ? TS.InheritedParent : TS.Stack.back().Id;
  TS.Stack.push_back({SpanId, Name});
  Start = Epoch.seconds();
}

Tally Span::effort() const {
  // Clauses was cleared at open, so it already is this span's peak.
  Tally D = tally();
  D.SolverSeconds -= At0.SolverSeconds;
  D.SatChecks -= At0.SatChecks;
  D.Conflicts -= At0.Conflicts;
  D.Decisions -= At0.Decisions;
  D.Propagations -= At0.Propagations;
  D.Restarts -= At0.Restarts;
  D.Rewrites -= At0.Rewrites;
  return D;
}

Span::~Span() {
  double Dur = seconds();
  Time.record(Dur);
  Tally Effort = effort();
  Tally &T = tally();
  T.Clauses = std::max(T.Clauses, At0.Clauses);
  if (!SpanId)
    return;
  SpanRecord R;
  R.Id = SpanId;
  R.Parent = ParentId;
  R.Name = Name;
  R.Detail = std::move(Detail);
  R.Tid = threadId();
  R.StartSec = Start;
  R.DurSec = Dur;
  R.Effort = Effort;

  // RAII spans unwind strictly nested, so this span is the innermost open
  // one; pop before the slow log so the path ends at this span's parent.
  ThreadState &TS = threadState();
  if (!TS.Stack.empty() && TS.Stack.back().Id == SpanId)
    TS.Stack.pop_back();

  double Slow = SlowQueryMs.load(std::memory_order_relaxed);
  if (Slow >= 0 && R.DurSec * 1000.0 >= Slow &&
      std::string_view(Name) == "staged_query")
    logSlowQuery(R);

  std::lock_guard<std::mutex> Lock(Mu);
  Records.push_back(std::move(R));
}

uint64_t prof::currentSpanId() {
  ThreadState &TS = threadState();
  return TS.Stack.empty() ? TS.InheritedParent : TS.Stack.back().Id;
}

Context prof::capture() {
  Context C;
  C.SpanId = currentSpanId();
  C.Path = currentPath();
  return C;
}

Adopt::Adopt(const Context &Ctx) {
  ThreadState &TS = threadState();
  PrevSpan = TS.InheritedParent;
  PrevPath = std::move(TS.InheritedPath);
  TS.InheritedParent = Ctx.SpanId;
  TS.InheritedPath = Ctx.Path;
}

Adopt::~Adopt() {
  ThreadState &TS = threadState();
  TS.InheritedParent = PrevSpan;
  TS.InheritedPath = std::move(PrevPath);
}

void prof::setSlowQueryMs(double Ms) {
  SlowQueryMs.store(Ms, std::memory_order_relaxed);
}

void prof::setSlowQueryStream(std::ostream *OS) {
  std::lock_guard<std::mutex> Lock(SlowMu);
  SlowSink = OS;
}

std::vector<SpanRecord> prof::snapshot() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Records;
}

std::vector<PhaseAgg> prof::aggregate() {
  std::vector<SpanRecord> Snap = snapshot();
  // Children time per parent id, for self-time attribution.
  std::map<uint64_t, double> ChildSec;
  for (const SpanRecord &R : Snap)
    if (R.Parent)
      ChildSec[R.Parent] += R.DurSec;

  std::map<std::string, PhaseAgg> ByName;
  for (const SpanRecord &R : Snap) {
    PhaseAgg &A = ByName[R.Name];
    A.Name = R.Name;
    ++A.Count;
    A.TotalSec += R.DurSec;
    A.MaxSec = std::max(A.MaxSec, R.DurSec);
    double Self = R.DurSec;
    if (auto It = ChildSec.find(R.Id); It != ChildSec.end())
      Self -= It->second;
    A.SelfSec += std::max(Self, 0.0);
    A.Conflicts += R.Effort.Conflicts;
  }

  std::vector<PhaseAgg> Out;
  for (auto &[Name, A] : ByName) {
    A.MeanSec = A.Count ? A.TotalSec / (double)A.Count : 0;
    Out.push_back(std::move(A));
  }
  std::sort(Out.begin(), Out.end(), [](const PhaseAgg &A, const PhaseAgg &B) {
    return A.TotalSec > B.TotalSec;
  });
  return Out;
}

std::string prof::table() {
  std::vector<PhaseAgg> Aggs = aggregate();
  if (Aggs.empty())
    return "(no profile spans recorded)\n";
  std::string Out =
      "phase                 count     total s      mean s       max s"
      "      self s    conflicts\n";
  char Line[256];
  for (const PhaseAgg &A : Aggs) {
    std::snprintf(Line, sizeof Line,
                  "%-20s %6" PRIu64 " %11.6f %11.6f %11.6f %11.6f %12" PRIu64
                  "\n",
                  A.Name.c_str(), A.Count, A.TotalSec, A.MeanSec, A.MaxSec,
                  A.SelfSec, A.Conflicts);
    Out += Line;
  }
  return Out;
}

bool prof::writeChromeTrace(const std::string &Path) {
  std::ofstream OS(Path, std::ios::out | std::ios::trunc);
  if (!OS)
    return false;
  std::vector<SpanRecord> Snap = snapshot();
  // Sorting globally by start time keeps "ts" monotone within every
  // (pid, tid) track, which chrome://tracing expects and
  // tools/check_trace.py enforces.
  std::stable_sort(Snap.begin(), Snap.end(),
                   [](const SpanRecord &A, const SpanRecord &B) {
                     return A.StartSec < B.StartSec;
                   });

  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  // One named track per thread seen in the records.
  std::map<unsigned, bool> Tids;
  for (const SpanRecord &R : Snap)
    Tids[R.Tid] = true;
  char Buf[512];
  for (const auto &[Tid, Unused] : Tids) {
    (void)Unused;
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"worker %u\"}}",
                  First ? "" : ",", Tid, Tid);
    OS << Buf;
    First = false;
  }
  for (const SpanRecord &R : Snap) {
    // Fixed-size fields via snprintf; the free-form detail is appended as a
    // separately escaped string so long check names cannot truncate the
    // record mid-JSON.
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"alive\","
                  "\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64,
                  First ? "" : ",", R.Tid, R.StartSec * 1e6, R.DurSec * 1e6,
                  R.Name, R.Id, R.Parent);
    std::string Args = Buf;
    appendEffort(Args, R.Effort, /*Json=*/true);
    OS << Args << ",\"detail\":\"" << trace::jsonEscape(R.Detail) << "\"}}";
    First = false;
  }
  OS << "\n]}\n";
  OS.flush();
  return (bool)OS;
}
