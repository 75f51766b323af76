//===-- pipebench/src/Jacobi.cpp - jacobi_drift workload ------------------===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// runJacobi on a 4-rank heterogeneous platform with seeded measurement
// noise, where one rank slows down 3x a quarter into every solve and
// recovers later, with the
// cost-arbitrated equalization policy deciding when to rebalance. Every
// round runs the dynamic-balancing path: engine BalancedLoop -> equalize
// -> core partitioners -> dist minimal-move redistribute -> mpp ring
// allgather. The blas layer and the partition server stay idle.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Jacobi.h"
#include "engine/Session.h"
#include "sim/Cluster.h"

#include <memory>
#include <string>

using namespace fupermod;
using namespace pipebench;

namespace {

constexpr int Ranks = 4;
/// The device mix (the one matmul_pipeline uses).
constexpr std::uint64_t PlatformVariant = 4;
/// Largest accepted infinity-norm residual |A x - b| after a solve.
constexpr double ResidualBound = 1e-9;

/// The platform with its drifting rank. The seed drives the devices'
/// measurement noise, and through it every timing the balancer sees; the
/// device mix itself is fixed, so that runs with different seeds measure
/// the same amount of work.
Cluster makeDriftPlatform(std::uint64_t Seed, int Sweeps) {
  Cluster Cl = makeHeterogeneousCluster(Ranks, PlatformVariant);
  Cl.Seed = Seed;
  const int Slow = 1;
  FaultEvent Ramp;
  Ramp.Kind = FaultKind::Slowdown;
  Ramp.AfterCalls = Sweeps / 4;
  Ramp.Factor = 3.0;
  FaultEvent Recover = Ramp;
  Recover.AfterCalls = (3 * Sweeps) / 5;
  Recover.Factor = 1.0 / 3.0;
  Cl.addFault(Slow, Ramp);
  Cl.addFault(Slow, Recover);
  return Cl;
}

JacobiOptions makeOptions(int N, int Sweeps, const Cluster &Cl) {
  JacobiOptions O;
  O.N = N;
  O.MaxIterations = Sweeps;
  O.Tolerance = -1.0; // Never converge early: every solve does equal work.
  O.Balance = true;
  O.StalenessDecay = 0.5;
  equalize::EqualizeConfig &E = O.Equalize;
  E.Policy = "arbitrated";
  E.Monitor.TriggerThreshold = 0.25;
  E.Monitor.ClearThreshold = 0.2;
  E.Monitor.Cooldown = 2;
  E.Monitor.EwmaAlpha = 0.6;
  E.Arbiter.BytesPerUnit = static_cast<double>(N + 1) * sizeof(double);
  E.Arbiter.Link = Cl.Inter;
  E.Arbiter.HorizonRounds = 10;
  E.Arbiter.MinRelativeSaving = 0.15;
  return O;
}

std::uint64_t solutionHash(const JacobiReport &R) {
  return fnv1a(R.Solution.data(), R.Solution.size() * sizeof(double));
}

/// Lays each iteration's per-rank compute times on the virtual timeline:
/// iteration i starts when the slowest rank of iteration i-1 finished
/// computing, offset by \p Base.
void traceVirtual(Tracer &T, const JacobiReport &R, double Base) {
  double Start = Base;
  for (const JacobiIteration &It : R.Iterations) {
    double Longest = 0.0;
    for (std::size_t Rank = 0; Rank < It.ComputeTimes.size(); ++Rank) {
      T.addVirtual("apps.jacobi_compute", static_cast<int>(Rank), Start,
                   Start + It.ComputeTimes[Rank]);
      Longest = std::max(Longest, It.ComputeTimes[Rank]);
    }
    Start += Longest;
  }
}

} // namespace

Report pipebench::runJacobiDrift(const RunOptions &O, Tracer &T,
                                 HostSpeed &Speed) {
  const int N = O.Smoke ? 192 : 1536;
  const int Sweeps = O.Smoke ? 20 : 200;
  Report Rep;

  // Set-up: the platform, the policy, and the engine session runJacobi
  // creates from them (create() validates the policy). runJacobi builds
  // its own session on every solve; this times the same creation. One
  // creation takes microseconds, so a sample times a batch of them.
  constexpr int Batch = 50;
  Cluster Cl;
  JacobiOptions JO;
  bool SessionOk = true;
  SetUpTimes SetUps;
  std::vector<double> CreateSeconds;
  std::vector<std::unique_ptr<engine::Session>> Sessions;
  Sessions.reserve(Batch);
  auto SetUp = [&] {
    SetUps.sample(
        T,
        [&] {
          Cl = makeDriftPlatform(O.Seed, Sweeps);
          JO = makeOptions(N, Sweeps, Cl);
          CreateSeconds.push_back(timeSpan(T, "engine.session_create", [&] {
            engine::SessionConfig Cfg;
            Cfg.Platform = Cl;
            Cfg.ModelKind = JO.ModelKind;
            Cfg.Algorithm = JO.Algorithm;
            Cfg.Equalize = JO.Equalize;
            Result<std::unique_ptr<engine::Session>> S =
                engine::Session::create(std::move(Cfg));
            SessionOk = SessionOk && static_cast<bool>(S);
            if (S)
              Sessions.push_back(std::move(S.value()));
          }));
        },
        Batch);
    Sessions.clear(); // Tear-down is not part of the set-up.
  };
  SetUp();
  Rep.check(SessionOk, "session create rejected the platform or policy");

  auto Solve = [&] {
    Tracer::Scope S(T, "apps.jacobi_solve");
    return runJacobi(Cl, JO);
  };
  // One checked operation per solve: it fails when runJacobi reports an
  // error, the residual is above the bound, or (against the reference)
  // the solution or the virtual makespan differ.
  auto Check = [&](const JacobiReport &R, const JacobiReport *Ref,
                   bool Corrupt) {
    std::string Why;
    if (!R.Error.empty())
      Why = "runJacobi: " + R.Error;
    else if (!(R.Residual < ResidualBound))
      Why = "residual " + std::to_string(R.Residual) + " above bound";
    else if (Ref && (solutionHash(R) ^ Corrupt) != solutionHash(*Ref))
      Why = "solution hash differs from the first solve";
    else if (Ref && R.Makespan != Ref->Makespan)
      Why = "virtual makespan not reproducible";
    Rep.check(Why.empty(), Why);
  };

  // Warm-up solve: discarded from timing; its outputs are the reference.
  JacobiReport Ref = Solve();
  Check(Ref, nullptr, false);
  const double Makespan = Ref.Makespan;

  double VirtualBase = 0.0;
  OpTimes Times = timedLoop(T, Speed, O.Seconds, O.Smoke ? 2 : 5, [&](int I) {
    JacobiReport R = Solve();
    Check(R, &Ref, O.InjectWrong && I == 0);
    if (T.recording()) {
      traceVirtual(T, R, VirtualBase);
      VirtualBase += R.Makespan;
    }
  }, SetUp);

  Rep.set("setup_s", Speed.toReference(SetUps.median()), "s");
  Rep.set("ref_cpu_ms_per_op",
          1e3 * Speed.toReference(median(Times.Cpu)) / Sweeps, "ms");
  Rep.set("virtual_s", Makespan, "s");
  Rep.set("wall.throughput_per_s", Sweeps / median(Times.Wall), "1/s");
  Rep.set("wall.latency_p50_ms", 1e3 * median(Times.Wall), "ms");
  Rep.set("wall.latency_p99_ms", 1e3 * percentile(Times.Wall, 0.99), "ms");
  Rep.set("apps.jacobi_solve_ms", 1e3 * median(Times.Wall), "ms");
  Rep.Notes.push_back(std::to_string(Times.Wall.size()) +
                      " untraced solves of " + std::to_string(Sweeps) +
                      " sweeps, N = " + std::to_string(N) +
                      " (one operation = one sweep; latency = one solve)");

  if (!T.enabled())
    return Rep;
  double Compute = 0.0;
  for (const JacobiIteration &It : Ref.Iterations)
    for (double C : It.ComputeTimes)
      Compute += C;
  const CommStatsSnapshot &C = Ref.Comm;
  Rep.set("trace.overhead_ratio", Times.overheadRatio(), "ratio");
  Rep.set("engine.session_create_ms", 1e3 * median(CreateSeconds), "ms");
  Rep.set("apps.virtual_wait_share", 1.0 - Compute / (Ranks * Makespan),
          "ratio");
  Rep.set("mpp.messages", static_cast<double>(C.Messages), "count");
  Rep.set("mpp.bytes_logical", static_cast<double>(C.BytesLogical), "B");
  Rep.set("mpp.bytes_copied", static_cast<double>(C.BytesCopied), "B");
  Rep.set("mpp.channels", static_cast<double>(C.ChannelsCreated), "count");
  Rep.set("dist.redistribute_bytes", static_cast<double>(C.RedistributeBytes),
          "B");
  const equalize::EqualizeStats &E = Ref.Equalize;
  Rep.set("equalize.rounds", static_cast<double>(E.Rounds), "count");
  Rep.set("equalize.triggers", static_cast<double>(E.Triggers), "count");
  Rep.set("equalize.vetoes", static_cast<double>(E.Vetoes), "count");
  Rep.set("equalize.rebalances", static_cast<double>(E.Rebalances), "count");
  Rep.set("equalize.migration_bytes", static_cast<double>(E.MigrationBytes),
          "B");
  // Idle here: model files, measurement, 2-D layout, blas, the server.
  Rep.idle({{"engine.load_models_ms", "ms"},
            {"core.measure_ms", "ms"},
            {"core.measure_reps", "count"},
            {"core.partition_us", "us"},
            {"apps.layout_us", "us"},
            {"apps.matmul_product_ms", "ms"},
            {"blas.gemm_gflops", "GFLOP/s"},
            {"blas.kernel_share", "ratio"},
            {"apps.blocks_communicated", "count"},
            {"apps.virtual_idle_s", "s"},
            {"engine.submit_us_p50", "us"},
            {"engine.cache_hit_ratio", "ratio"},
            {"engine.coalesced_ratio", "ratio"},
            {"engine.repeat_share", "ratio"},
            {"engine.hit_latency_p50_ms", "ms"},
            {"engine.miss_latency_p50_ms", "ms"},
            {"core.replay_cpu_ms_per_op", "ms"},
            {"core.solve_geometric_us_p50", "us"},
            {"core.solve_numerical_us_p50", "us"},
            {"core.inverse_cache_hit_ratio", "ratio"},
            {"engine.reload_ms_p50", "ms"},
            {"engine.reload_ms_max", "ms"},
            {"core.cache_invalidations", "count"},
            {"engine.shed", "count"},
            {"engine.errors", "count"},
            {"core.self_s", "s"}});
  return Rep;
}
