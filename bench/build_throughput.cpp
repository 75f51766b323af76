//===-- bench/build_throughput.cpp - parallel builder throughput ----------===//
//
// Records the repo's perf trajectory for the model-building and
// partitioning hot path: wall time of buildModelsParallel at 1/2/4/8
// workers on an 8-device simulated cluster (with wall-time emulation, so
// a measurement costs real blocking time the way a device kernel does),
// bit-identity of the parallel Point sets against the serial build, the
// cold latency of the partitioners over the built models, and the
// hint-warm repeat-partition path: the same solve re-run through the
// warm partitioners with a PartitionHint, which must return identical
// unit counts at a fraction of the cold latency.
//
// Output: a table on stdout and BENCH_build_throughput.json in the
// working directory. With --smoke, runs a tiny configuration and exits
// non-zero if parallel output diverges from serial, the partitioners
// fail, or a warm repeat partition differs from its cold solve — the
// tier-1 perf tripwire.
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/Metrics.h"
#include "core/Partitioners.h"
#include "sim/Cluster.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

using namespace fupermod;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool bitIdentical(const Point &A, const Point &B) {
  return std::memcmp(&A.Units, &B.Units, sizeof(double)) == 0 &&
         std::memcmp(&A.Time, &B.Time, sizeof(double)) == 0 &&
         A.Reps == B.Reps &&
         std::memcmp(&A.ConfidenceInterval, &B.ConfidenceInterval,
                     sizeof(double)) == 0 &&
         A.Status == B.Status;
}

bool identicalBuilds(const std::vector<BuiltModel> &A,
                     const std::vector<BuiltModel> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t R = 0; R < A.size(); ++R) {
    if (A[R].Raw.size() != B[R].Raw.size())
      return false;
    for (std::size_t I = 0; I < A[R].Raw.size(); ++I)
      if (!bitIdentical(A[R].Raw[I], B[R].Raw[I]))
        return false;
  }
  return true;
}

struct PartitionStats {
  double ColdSeconds = 0.0;
  bool Ok = true;
};

/// Times one cold partition (fresh memos) over \p Models.
PartitionStats measurePartition(const Partitioner &Algorithm,
                                std::int64_t Total,
                                std::span<Model *const> Models) {
  for (Model *M : Models)
    M->clearEvalCache();
  Dist D;
  double T0 = now();
  bool Ok = Algorithm(Total, Models, D);
  PartitionStats S;
  S.ColdSeconds = now() - T0;
  S.Ok = Ok && D.sum() == Total;
  return S;
}

struct WarmStats {
  double ColdSeconds = 0.0;
  /// Seconds per hint-warm repeat (the epoch-validated memo path).
  double WarmSeconds = 0.0;
  double Speedup = 0.0;
  bool Identical = true;
  bool Ok = true;
};

/// Times one warm partitioner cold (empty hint) and across \p Reps
/// hint-warm repeats, verifying every repeat returns the cold solve's
/// unit counts exactly.
WarmStats measureWarmPartition(const WarmPartitioner &Algorithm,
                               std::int64_t Total,
                               std::span<Model *const> Models, int Reps) {
  for (Model *M : Models)
    M->clearEvalCache();
  PartitionHint Hint;
  Dist Cold;
  double T0 = now();
  bool Ok = Algorithm(Total, Models, Cold, Hint);
  double T1 = now();

  WarmStats S;
  Dist Warm;
  double T2 = now();
  for (int R = 0; R < Reps; ++R) {
    Ok = Algorithm(Total, Models, Warm, Hint) && Ok;
    S.Identical = S.Identical && Warm.sameUnits(Cold);
  }
  double T3 = now();
  S.Ok = Ok && Cold.sum() == Total;
  S.ColdSeconds = T1 - T0;
  S.WarmSeconds = (T3 - T2) / Reps;
  S.Speedup = S.WarmSeconds > 0.0 ? S.ColdSeconds / S.WarmSeconds : 0.0;
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const bool Smoke = Opts.has("smoke");

  // 8 heterogeneous devices; the smoke configuration shrinks everything
  // so the tier-1 run costs well under a second.
  const int Ranks = Smoke ? 3 : 8;
  const std::int64_t Total = Smoke ? 3000 : 20000;
  Cluster Cl = makeHeterogeneousCluster(Ranks, /*Variant=*/11);
  Cl.NoiseSigma = 0.02;

  ModelBuildPlan Plan;
  Plan.Kind = "piecewise";
  Plan.MinSize = 100.0;
  Plan.MaxSize = 6000.0;
  Plan.NumPoints = Smoke ? 4 : 12;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = Smoke ? 4 : 8;
  Plan.Prec.TargetRelativeError = 0.02;

  // Calibrate wall-time emulation so the serial build costs a measurable,
  // bounded amount of real time (~1.2 s full, ~0.1 s smoke): run once
  // without emulation to learn the total simulated seconds.
  double SimSeconds = 0.0;
  {
    std::vector<BuiltModel> Dry = buildModelsParallel(Cl, Plan);
    for (const BuiltModel &B : Dry)
      for (const Point &P : B.Raw)
        if (P.Reps > 0)
          SimSeconds += P.Time * P.Reps;
  }
  const double TargetSerialSeconds = Smoke ? 0.1 : 1.2;
  Plan.WallScale = SimSeconds > 0.0 ? TargetSerialSeconds / SimSeconds : 0.0;

  std::cout << "=== build throughput: parallel model construction & "
               "partitioning ===\n\n"
            << "platform: " << Ranks << " heterogeneous devices, "
            << Plan.NumPoints << " sizes in [" << Plan.MinSize << ", "
            << Plan.MaxSize << "], wall emulation "
            << TargetSerialSeconds << " s serial budget\n\n";

  // Build at increasing worker counts; Jobs = 1 is the serial reference.
  const int JobCounts[] = {1, 2, 4, 8};
  double Seconds[4] = {0, 0, 0, 0};
  std::vector<BuiltModel> Serial;
  bool Identical = true;
  Table T({"jobs", "build_wall(s)", "speedup", "bit_identical"});
  for (int J = 0; J < 4; ++J) {
    if (JobCounts[J] > Ranks && JobCounts[J] != 1 &&
        JobCounts[J] / 2 >= Ranks) {
      Seconds[J] = Seconds[J - 1];
      continue; // More workers than devices changes nothing; skip re-run.
    }
    Plan.Jobs = JobCounts[J];
    double T0 = now();
    std::vector<BuiltModel> Built = buildModelsParallel(Cl, Plan);
    Seconds[J] = now() - T0;
    if (JobCounts[J] == 1)
      Serial = std::move(Built);
    else {
      bool Same = identicalBuilds(Serial, Built);
      Identical = Identical && Same;
    }
    T.addRow({Table::num(JobCounts[J]), Table::num(Seconds[J], 3),
              Table::num(Seconds[0] / Seconds[J], 2),
              JobCounts[J] == 1 ? "(reference)"
                                : (Identical ? "yes" : "NO")});
  }
  T.print(std::cout);
  double Speedup8 = Seconds[0] / Seconds[3];

  // Cold partition latency over the serial build's models.
  std::vector<Model *> Models;
  for (BuiltModel &B : Serial)
    Models.push_back(B.M.get());
  PartitionStats Geo =
      measurePartition(partitionGeometric, Total, Models);
  PartitionStats Num =
      measurePartition(partitionNumerical, Total, Models);

  // Hint-warm repeats: the epoch-validated memo path of the warm
  // partitioners, which --serve takes on every repeat request.
  const int WarmReps = Smoke ? 20 : 200;
  WarmStats GeoW = measureWarmPartition(partitionGeometricWarm, Total,
                                        Models, WarmReps);
  WarmStats NumW = measureWarmPartition(partitionNumericalWarm, Total,
                                        Models, WarmReps);

  std::cout << "\npartition latency (geometric): cold "
            << Geo.ColdSeconds * 1e6 << " us\n"
            << "partition latency (numerical): cold "
            << Num.ColdSeconds * 1e6 << " us\n"
            << "hint-warm repeat (geometric): " << GeoW.WarmSeconds * 1e6
            << " us (" << GeoW.Speedup << "x cold), units "
            << (GeoW.Identical ? "identical" : "DIVERGED") << "\n"
            << "hint-warm repeat (numerical): " << NumW.WarmSeconds * 1e6
            << " us (" << NumW.Speedup << "x cold), units "
            << (NumW.Identical ? "identical" : "DIVERGED") << "\n"
            << "\nserial " << Seconds[0] << " s -> 8 workers "
            << Seconds[3] << " s (" << Speedup8 << "x), outputs "
            << (Identical ? "bit-identical" : "DIVERGED") << "\n";

  std::FILE *J = std::fopen("BENCH_build_throughput.json", "w");
  if (J) {
    std::fprintf(J,
                 "{\n"
                 "  \"bench\": \"build_throughput\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"devices\": %d,\n"
                 "  \"points_per_device\": %d,\n"
                 "  \"total_units\": %lld,\n"
                 "  \"build_wall_seconds\": {\"jobs1\": %.6f, \"jobs2\": "
                 "%.6f, \"jobs4\": %.6f, \"jobs8\": %.6f},\n"
                 "  \"speedup_8_workers\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"partition\": {\n"
                 "    \"geometric\": {\"cold_us\": %.2f, \"hint_warm_us\": "
                 "%.3f, \"hint_speedup\": %.1f},\n"
                 "    \"numerical\": {\"cold_us\": %.2f, \"hint_warm_us\": "
                 "%.3f, \"hint_speedup\": %.1f}\n"
                 "  },\n"
                 "  \"hint_units_identical\": %s\n"
                 "}\n",
                 Smoke ? "smoke" : "full", Ranks, Plan.NumPoints,
                 static_cast<long long>(Total), Seconds[0], Seconds[1],
                 Seconds[2], Seconds[3], Speedup8,
                 Identical ? "true" : "false", Geo.ColdSeconds * 1e6,
                 GeoW.WarmSeconds * 1e6, GeoW.Speedup, Num.ColdSeconds * 1e6,
                 NumW.WarmSeconds * 1e6, NumW.Speedup,
                 GeoW.Identical && NumW.Identical ? "true" : "false");
    std::fclose(J);
    std::cout << "# wrote BENCH_build_throughput.json\n";
  }

  // Tripwires. Determinism and partitioner health gate both modes; the
  // speedup floors gate the full run only (smoke is too short to time).
  if (!Identical || !Geo.Ok || !Num.Ok || !GeoW.Ok || !NumW.Ok) {
    std::cout << "FAIL: parallel build diverged or partitioning broke\n";
    return 1;
  }
  if (!GeoW.Identical || !NumW.Identical) {
    std::cout << "FAIL: hint-warm repeat partition diverged from cold\n";
    return 1;
  }
  if (!Smoke && Speedup8 < 3.0) {
    std::cout << "FAIL: 8-worker speedup " << Speedup8 << " < 3x floor\n";
    return 1;
  }
  if (!Smoke && (GeoW.Speedup < 10.0 || NumW.Speedup < 10.0)) {
    std::cout << "FAIL: hint-warm speedup (geometric " << GeoW.Speedup
              << "x, numerical " << NumW.Speedup << "x) < 10x floor\n";
    return 1;
  }
  return 0;
}
