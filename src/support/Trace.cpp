//===- support/Trace.cpp - Structured JSONL query tracing -------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Diag.h"
#include "support/Profile.h"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

using namespace alive;
using namespace alive::trace;

namespace {

std::atomic<bool> Enabled{false};
std::mutex SinkMu;
std::ostream *Sink = nullptr;         // guarded by SinkMu
std::ofstream FileSink;               // owned file sink, when used
Stopwatch *Epoch = nullptr;           // reset when a sink is attached

void attach(std::ostream *OS) {
  std::lock_guard<std::mutex> Lock(SinkMu);
  if (FileSink.is_open() && Sink == &FileSink) {
    FileSink.flush();
    FileSink.close();
  }
  Sink = OS;
  if (OS) {
    static Stopwatch W;
    W.reset();
    Epoch = &W;
  }
  Enabled.store(OS != nullptr, std::memory_order_relaxed);
}

} // namespace

bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

bool trace::openFile(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(SinkMu);
    if (FileSink.is_open())
      FileSink.close();
    FileSink.clear();
    FileSink.open(Path, std::ios::out | std::ios::trunc);
    if (!FileSink)
      return false;
  }
  attach(&FileSink);
  return true;
}

void trace::setStream(std::ostream *OS) { attach(OS); }

void trace::close() { attach(nullptr); }

std::string trace::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Hex[8];
        std::snprintf(Hex, sizeof Hex, "\\u%04x", C);
        Out += Hex;
      } else {
        Out += (char)C;
      }
    }
  }
  return Out;
}

Event::Event(const char *Kind) : On(enabled()) {
  if (!On)
    return;
  double T = 0;
  {
    std::lock_guard<std::mutex> Lock(SinkMu);
    if (Epoch)
      T = Epoch->seconds();
  }
  // Every event carries the emitting thread ("tid", dense per-thread ids
  // shared with the profiler's Chrome tracks) and the innermost profiling
  // span ("span", 0 when none), so JSONL lines from `-j N` runs correlate.
  char Head[160];
  std::snprintf(Head, sizeof Head,
                "{\"event\":\"%s\",\"t\":%.6f,\"tid\":%u,\"span\":%" PRIu64,
                Kind, T, prof::threadId(), prof::currentSpanId());
  Buf = Head;
}

Event::~Event() {
  if (!On)
    return;
  Buf += "}\n";
  std::lock_guard<std::mutex> Lock(SinkMu);
  if (Sink) {
    *Sink << Buf;
    Sink->flush();
  }
}

void Event::key(const char *Key) {
  Buf += ",\"";
  Buf += Key;
  Buf += "\":";
}

Event &Event::str(const char *Key, std::string_view Value) {
  if (!On)
    return *this;
  key(Key);
  Buf += '"';
  Buf += jsonEscape(Value);
  Buf += '"';
  return *this;
}

Event &Event::num(const char *Key, double Value) {
  if (!On)
    return *this;
  key(Key);
  char Num[48];
  if (!std::isfinite(Value))
    std::snprintf(Num, sizeof Num, "null");
  else
    std::snprintf(Num, sizeof Num, "%.9g", Value);
  Buf += Num;
  return *this;
}

Event &Event::numU(const char *Key, uint64_t Value) {
  key(Key);
  char Num[32];
  std::snprintf(Num, sizeof Num, "%" PRIu64, Value);
  Buf += Num;
  return *this;
}

Event &Event::numI(const char *Key, int64_t Value) {
  key(Key);
  char Num[32];
  std::snprintf(Num, sizeof Num, "%" PRId64, Value);
  Buf += Num;
  return *this;
}

Event &Event::strs(const char *Key, const std::vector<std::string> &Values) {
  if (!On)
    return *this;
  key(Key);
  Buf += '[';
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I)
      Buf += ',';
    Buf += '"';
    Buf += jsonEscape(Values[I]);
    Buf += '"';
  }
  Buf += ']';
  return *this;
}

Event &Event::flag(const char *Key, bool Value) {
  if (!On)
    return *this;
  key(Key);
  Buf += Value ? "true" : "false";
  return *this;
}

Event &Event::effort(const prof::Tally &T) {
  if (On)
    T.forEach([this](const char *Key, auto Value) { num(Key, Value); });
  return *this;
}
