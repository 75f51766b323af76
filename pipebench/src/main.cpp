//===-- pipebench/src/main.cpp - Pipeline benchmark entry point -----------===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the pipeline benchmark and prints, as its last
// line, one JSON object with the correctness tally and every metric it
// measured (name -> {value, unit}). Lines before it start with "# " and
// carry the provenance and human-readable notes.
//
//   pipebench --workload jacobi_drift|matmul_pipeline|serve_reload
//             --seed N --seconds S [--trace 0|1] [--trace-file PATH]
//             [--work-dir DIR] [--sha SHA] [--smoke] [--inject-wrong]
//
// Exit status: 0 when the run completed (the JSON says whether its
// outputs were correct), 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "blas/Gemm.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

using namespace pipebench;

double pipebench::percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

std::uint64_t pipebench::fnv1a(const void *Data, std::size_t Len,
                               std::uint64_t Hash) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

double pipebench::processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
}

namespace {
/// The aggregate "cpu" line of /proc/stat: (steal, total) jiffies.
std::pair<std::uint64_t, std::uint64_t> cpuJiffies() {
  std::ifstream IS("/proc/stat");
  std::string Cpu;
  std::uint64_t V = 0, Total = 0, Steal = 0;
  IS >> Cpu;
  for (int Field = 0; Field < 8 && IS >> V; ++Field) {
    Total += V; // user nice system idle iowait irq softirq steal
    if (Field == 7)
      Steal = V;
  }
  return {Steal, Total};
}
} // namespace

StealMeter::StealMeter() { std::tie(Steal, Total) = cpuJiffies(); }

double StealMeter::share() const {
  auto [S, T] = cpuJiffies();
  return T > Total ? static_cast<double>(S - Steal) / (T - Total) : 0.0;
}

namespace {
double threadCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
}

/// The streaming calibration kernel: six passes of a row-times-vector
/// product over a private 4.8 MB matrix (the size of one rank's rows of a
/// Jacobi system with N = 1536). Returns its CPU seconds.
double runStreamKernel(int Thread) {
  std::vector<double> A(600000, 1.0 + Thread), X(1536, 0.5);
  double C0 = threadCpuSeconds();
  double Sum = 0.0;
  for (int Pass = 0; Pass < 6; ++Pass)
    for (std::size_t I = 0; I < A.size(); I += 8) {
      double Acc = 0.0;
      for (std::size_t J = I; J < I + 8; ++J)
        Acc += A[J] * X[J % X.size()];
      Sum += Acc;
    }
  double Seconds = threadCpuSeconds() - C0;
  volatile double Sink = Sum; // Keeps the loop from being optimised away.
  static_cast<void>(Sink);
  return Seconds;
}

/// The hash-table calibration kernel: 150 000 inserts or probes of
/// random keys into a fresh private table that grows to about 105 000
/// entries (a few MB, allocated as it grows). Returns its CPU seconds.
double runHashTableKernel(int Thread) {
  double C0 = threadCpuSeconds();
  std::unordered_map<std::uint64_t, double> Table;
  std::uint64_t X =
      0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(Thread + 1);
  double Sum = 0.0;
  for (int I = 0; I < 150000; ++I) {
    X ^= X << 13; // xorshift64
    X ^= X >> 7;
    X ^= X << 17;
    auto [It, Inserted] = Table.try_emplace(X % 200000, 1.0);
    if (!Inserted)
      Sum += It->second;
  }
  double Seconds = threadCpuSeconds() - C0;
  volatile double Sink = Sum;
  static_cast<void>(Sink);
  return Seconds;
}
} // namespace

void HostSpeed::sample() {
  constexpr int Threads = 4;
  std::vector<double> Cpu(Threads);
  std::vector<std::thread> Pool;
  for (int K = 0; K < Threads; ++K)
    Pool.emplace_back([&Cpu, K, this] {
      Cpu[static_cast<std::size_t>(K)] =
          Kind == Kernel::Stream ? runStreamKernel(K) : runHashTableKernel(K);
    });
  for (std::thread &Th : Pool)
    Th.join();
  double Mean = 0.0;
  for (double C : Cpu)
    Mean += C / Threads;
  Samples.push_back(Mean);
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 5)
    Notes.push_back("FAILED: " + What);
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string cpuModel() {
  std::ifstream IS("/proc/cpuinfo");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

std::string provenance(const RunOptions &O, const std::string &Sha) {
  std::ostringstream OS;
  OS << "{\"cpu\":" << jsonString(cpuModel())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"gemm_isa\":"
     << jsonString(fupermod::gemmIsaName(fupermod::gemmMicroIsa()))
     << ",\"build_type\":" << jsonString(PIPEBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << jsonString(PIPEBENCH_CXX_FLAGS)
     << ",\"compiler\":" << jsonString(PIPEBENCH_COMPILER)
     << ",\"git_sha\":" << jsonString(Sha)
     << ",\"workload\":" << jsonString(O.Workload) << ",\"seed\":" << O.Seed
     << ",\"seconds\":" << O.Seconds << ",\"trace\":" << (O.Trace ? 1 : 0)
     << "}";
  return OS.str();
}

double peakRssMiB() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

int usage(const char *Why) {
  std::cerr << "pipebench: " << Why
            << "\nusage: pipebench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--trace-file PATH] [--work-dir DIR] "
               "[--sha SHA] [--smoke] [--inject-wrong]\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string TraceFile = "pipebench-trace.json", Sha = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (Arg == "--inject-wrong") {
      O.InjectWrong = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload")
      O.Workload = Val;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), &End);
    else if (Arg == "--trace")
      O.Trace = Val == "1";
    else if (Arg == "--trace-file")
      TraceFile = Val;
    else if (Arg == "--work-dir")
      O.WorkDir = Val;
    else if (Arg == "--sha")
      Sha = Val;
    else
      return usage(("unknown option " + Arg).c_str());
    if (End && *End != '\0')
      return usage(("bad number for " + Arg).c_str());
  }
  if (!(O.Seconds > 0.0) || !std::isfinite(O.Seconds))
    return usage("--seconds must be positive");

  Tracer T(O.Trace);
  StealMeter Steal;
  HostSpeed Speed(O.Workload == "serve_reload" ? HostSpeed::Kernel::HashTable
                                               : HostSpeed::Kernel::Stream);
  Report Rep;
  if (O.Workload == "jacobi_drift")
    Rep = runJacobiDrift(O, T, Speed);
  else if (O.Workload == "matmul_pipeline")
    Rep = runMatMulPipeline(O, T, Speed);
  else if (O.Workload == "serve_reload")
    Rep = runServeReload(O, T, Speed);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  Rep.set("peak_rss_mib", peakRssMiB(), "MiB");
  Rep.set("host.steal_share", Steal.share(), "ratio");
  Rep.set("host.kernel_ms", 1e3 * Speed.kernelSeconds(), "ms");
  Rep.Notes.push_back("share of the machine's CPU time stolen by the host: " +
                      std::to_string(Steal.share()));
  for (auto &[Name, M] : Rep.Metrics)
    if (!std::isfinite(M.Value)) {
      Rep.check(false, "metric " + Name + " is not finite");
      M.Value = 0.0;
    }
  Rep.set("failed_ratio",
          Rep.Attempted ? static_cast<double>(Rep.Failed) / Rep.Attempted : 1.0,
          "ratio");
  std::string Prov = provenance(O, Sha);
  if (O.Trace) {
    std::map<std::string, double> Self = T.selfSecondsByLayer();
    for (const auto &[Layer, Seconds] : Self)
      Rep.set(Layer + ".self_s", Seconds, "s");
    if (!T.writeChrome(TraceFile, Prov))
      Rep.check(false, "cannot write the trace file " + TraceFile);
    Rep.Notes.push_back("trace: " + std::to_string(T.spanCount()) +
                        " spans written to " + TraceFile);
  }

  std::cout << "# provenance " << Prov << "\n";
  for (const std::string &N : Rep.Notes)
    std::cout << "# " << N << "\n";
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"correct\":" << (Rep.Failed == 0 ? "true" : "false")
            << ",\"attempted\":" << Rep.Attempted
            << ",\"failed\":" << Rep.Failed << ",\"metrics\":{";
  const char *Sep = "";
  for (const auto &[Name, M] : Rep.Metrics) {
    std::cout << Sep << jsonString(Name) << ":{\"value\":" << M.Value
              << ",\"unit\":" << jsonString(M.Unit) << "}";
    Sep = ",";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
