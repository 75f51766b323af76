//===-- pipebench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded around each call the
/// benchmark makes into a framework layer, kept in memory, and written at
/// exit as Chrome trace-event JSON (load it in chrome://tracing or
/// Perfetto). A span is named "<layer>.<operation>"; the layer prefix is
/// what selfSecondsByLayer() aggregates. Wall-clock spans nest through a
/// per-thread current-span stack; virtual-clock spans (the simulated
/// platform's time) go to their own timeline, one lane per rank.
///
/// A disabled tracer records nothing and costs one branch per call, so
/// the untimed and timed code paths are the same.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_TRACE_H
#define PIPEBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pipebench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  /// True for a traced run.
  bool enabled() const { return Enabled; }
  /// True when spans are being recorded right now.
  bool recording() const { return Enabled && Active; }
  /// Pauses or resumes recording; the overhead measurement interleaves
  /// traced and untraced operations.
  void setActive(bool A) { Active = A; }

  /// Opens a span as a child of this thread's current span and makes it
  /// current. Returns 0 when not recording.
  std::uint64_t begin(const char *Name);
  /// Closes span \p Id (0 is ignored) and restores its parent as current.
  void end(std::uint64_t Id);
  /// Records a finished wall-clock span with explicit times, parent and
  /// request id.
  void add(const char *Name, Clock::time_point Start, Clock::time_point End,
           std::uint64_t Parent, std::uint64_t Request);
  /// Records a span on the virtual clock of simulated rank \p Rank.
  void addVirtual(const char *Name, int Rank, double Start, double End);

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    std::uint64_t Id;
  };

  /// Wall-clock self time per layer: each span's duration minus the part
  /// of it its child spans cover, summed by name prefix.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Writes every span as Chrome trace-event JSON; \p Metadata (a JSON
  /// object) is stored under "otherData". Returns false on I/O failure.
  bool writeChrome(const std::string &Path, const std::string &Metadata) const;

  std::size_t spanCount() const;

private:
  struct Span {
    std::string Name;
    double Start = 0.0; ///< Seconds (wall: since Origin; virtual: sim time).
    double End = -1.0;  ///< Negative while open.
    std::uint64_t Id = 0;
    std::uint64_t Parent = 0;
    std::uint64_t Request = 0;
    int Lane = 0; ///< Thread index (wall) or rank (virtual).
    bool Virtual = false;
  };

  double sinceOrigin(Clock::time_point T) const {
    return std::chrono::duration<double>(T - Origin).count();
  }
  std::uint64_t push(Span S);
  int laneOfThisThread();

  const bool Enabled;
  bool Active = true;
  const Clock::time_point Origin;

  mutable std::mutex Mutex; ///< Guards Spans and Lanes.
  std::vector<Span> Spans;  ///< Index = Id - 1.
  std::map<std::thread::id, int> Lanes;
};

} // namespace pipebench

#endif // PIPEBENCH_TRACE_H
