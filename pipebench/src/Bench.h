//===-- pipebench/src/Bench.h - Pipeline benchmark shared parts -*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads of the pipeline benchmark share: the run
/// options, the metric set every workload fills, the correctness tally,
/// and the small statistics helpers (medians and percentiles of timings).
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_BENCH_H
#define PIPEBENCH_BENCH_H

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Length of the timed phase.
  double Seconds = 10.0;
  /// Record spans and report the per-layer metrics.
  bool Trace = false;
  /// Minimal sizes for the self-check.
  bool Smoke = false;
  /// Corrupt one checked output on purpose (self-check of the checks).
  bool InjectWrong = false;
  /// Scratch directory for files the workload writes (model files).
  std::string WorkDir = ".";
};

/// One metric value with its unit.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// Everything a workload reports.
struct Report {
  std::map<std::string, Metric> Metrics;
  /// Operations checked, and how many of them were wrong, failed or shed.
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Human-readable lines printed before the result.
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Sets the per-layer metrics of layers this workload does not exercise
  /// to 0: (name, unit) pairs.
  void idle(std::initializer_list<std::pair<const char *, const char *>> List) {
    for (const auto &[Name, Unit] : List)
      set(Name, 0.0, Unit);
  }
  /// Counts one checked operation; \p Ok false counts it as failed and
  /// records \p What.
  void check(bool Ok, const std::string &What);
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU seconds consumed so far by every thread of this process, live or
/// finished. Unlike wall time it excludes the time the host hands this
/// machine's CPUs to other guests (steal).
double processCpuSeconds();

/// Linear-interpolated percentile (\p Q in [0, 1]) of \p Values; 0 when
/// empty.
double percentile(std::vector<double> Values, double Q);

inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 0.5);
}

/// FNV-1a over raw bytes, continuing from \p Hash.
std::uint64_t fnv1a(const void *Data, std::size_t Len,
                    std::uint64_t Hash = 1469598103934665603ull);

/// Share of all CPU time of the machine that the host stole (gave to
/// other guests) since construction, from /proc/stat; 0 where unknown.
class StealMeter {
public:
  StealMeter();
  double share() const;

private:
  std::uint64_t Steal = 0, Total = 0;
};

/// Host speed, measured by a calibration kernel owned by the benchmark.
/// The host may be a virtual machine whose cores, caches and memory bus
/// other guests share; the CPU time of the same work then moves by 30%
/// within minutes. The kernel runs on 4 threads, is shaped like the
/// workload's own work, and is timed on the CPU clock between operations.
/// Dividing by it takes most of that drift out: a time "at reference
/// speed" is CPU seconds scaled by the kernel's reference time over the
/// median kernel time of the run.
class HostSpeed {
public:
  enum class Kernel {
    /// Streams a few MB per thread, like a Jacobi sweep or a GEMM panel.
    Stream,
    /// Inserts into and probes a hash table of a few MB per thread, like
    /// the solvers' inverse-time caches under a partition server.
    HashTable,
  };
  explicit HostSpeed(Kernel Kind) : Kind(Kind) {}

  /// Runs the kernel once on 4 threads and records the mean CPU seconds.
  void sample();
  double kernelSeconds() const { return median(Samples); }
  /// Per-thread kernel CPU seconds on the reference host (a fixed unit).
  double referenceSeconds() const {
    return Kind == Kernel::Stream ? 5e-3 : 14e-3;
  }
  double toReference(double CpuSeconds) const {
    return CpuSeconds * referenceSeconds() / kernelSeconds();
  }

private:
  Kernel Kind;
  std::vector<double> Samples;
};

/// Process CPU seconds of repeated set-ups; setup_s is their median. The
/// workloads take one sample before anything else and one before each
/// timed operation, so that the samples see the same host conditions as
/// the operations: on a shared host the same set-up reads 0.5 or 1 us
/// depending on what other guests run at that moment.
class SetUpTimes {
public:
  /// Times \p Batch calls of \p SetUp (a set-up of a microsecond is not
  /// measurable alone) under a "bench.setup" span.
  template <typename F> void sample(Tracer &T, F &&SetUp, int Batch = 1) {
    Tracer::Scope S(T, "bench.setup");
    double C0 = processCpuSeconds();
    for (int B = 0; B < Batch; ++B)
      SetUp();
    Times.push_back((processCpuSeconds() - C0) / Batch);
  }
  double median() const { return pipebench::median(Times); }

private:
  std::vector<double> Times;
};

/// Runs \p Fn under a span named \p Name and returns its wall seconds.
template <typename F> double timeSpan(Tracer &T, const char *Name, F &&Fn) {
  Tracer::Scope S(T, Name);
  Clock::time_point T0 = Clock::now();
  Fn();
  return secondsSince(T0);
}

/// Wall and process CPU seconds of the untraced timed operations, and CPU
/// seconds of the traced ones.
struct OpTimes {
  std::vector<double> Wall, Cpu, TracedCpu;

  /// Traced over untraced throughput on the CPU clock (1 = no overhead).
  double overheadRatio() const { return median(Cpu) / median(TracedCpu); }
};

/// Calls \p Op(Index) until \p Seconds have passed and at least \p MinOps
/// operations ran, each under a "bench.op" span and after an untimed call
/// of \p Between and a host-speed sample. A traced run records every
/// second operation only, so that the untraced ones measure the tracing
/// overhead side by side.
template <typename F, typename G>
OpTimes timedLoop(Tracer &T, HostSpeed &Speed, double Seconds, int MinOps,
                  F &&Op, G &&Between) {
  OpTimes Out;
  Clock::time_point Start = Clock::now();
  for (int I = 0; I < MinOps || secondsSince(Start) < Seconds; ++I) {
    bool Traced = T.enabled() && I % 2 == 1;
    T.setActive(Traced);
    Between();
    Speed.sample();
    Clock::time_point T0 = Clock::now();
    double C0 = processCpuSeconds();
    {
      Tracer::Scope S(T, "bench.op");
      Op(I);
    }
    double Wall = secondsSince(T0), Cpu = processCpuSeconds() - C0;
    if (Traced) {
      Out.TracedCpu.push_back(Cpu);
    } else {
      Out.Wall.push_back(Wall);
      Out.Cpu.push_back(Cpu);
    }
  }
  T.setActive(true);
  return Out;
}

Report runJacobiDrift(const RunOptions &O, Tracer &T, HostSpeed &Speed);
Report runMatMulPipeline(const RunOptions &O, Tracer &T, HostSpeed &Speed);
Report runServeReload(const RunOptions &O, Tracer &T, HostSpeed &Speed);

} // namespace pipebench

#endif // PIPEBENCH_BENCH_H
