//===-- apps/Jacobi.cpp - Jacobi method with load balancing ---------------===//

#include "apps/Jacobi.h"

#include "dist/PartitionedVector.h"
#include "engine/Balance.h"
#include "engine/Session.h"
#include "mpp/Runtime.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

namespace {

std::uint64_t mix(std::uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double unitFromHash(std::uint64_t H) {
  return static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
}

} // namespace

double fupermod::jacobiMatrixEntry(int N, int Row, int Col) {
  if (Row == Col)
    return static_cast<double>(N);
  std::uint64_t H = mix(static_cast<std::uint64_t>(Row) * 2654435761u +
                        static_cast<std::uint64_t>(Col) + 17);
  return unitFromHash(H) - 0.5;
}

double fupermod::jacobiRhsEntry(int N, int Row) {
  std::uint64_t H = mix(static_cast<std::uint64_t>(N) * 31 +
                        static_cast<std::uint64_t>(Row));
  return 2.0 * unitFromHash(H) - 1.0;
}

void fupermod::jacobiSweep(int N, std::int64_t FirstRow, std::int64_t Rows,
                           const double *Sys, std::size_t Stride,
                           std::span<const double> X, std::span<double> Out) {
  assert(FirstRow >= 0 && FirstRow + Rows <= N &&
         Stride > static_cast<std::size_t>(N) &&
         Out.size() >= static_cast<std::size_t>(Rows) &&
         X.size() >= static_cast<std::size_t>(N) && "invalid sweep band");
  const double *XP = X.data();
  std::int64_t R = 0;
  // Eight rows per pass over X: eight independent add chains instead of
  // one, each still summing its own row in ascending column order. The
  // diagonal block [Row, Row + 8) is split out so that the two long runs
  // around it carry no per-column test.
  for (; R + 8 <= Rows; R += 8) {
    const double *A0 = Sys + static_cast<std::size_t>(R) * Stride;
    const double *A1 = A0 + Stride, *A2 = A1 + Stride, *A3 = A2 + Stride;
    const double *A4 = A3 + Stride, *A5 = A4 + Stride, *A6 = A5 + Stride;
    const double *A7 = A6 + Stride;
    const int Row = static_cast<int>(FirstRow + R);
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    double S4 = 0.0, S5 = 0.0, S6 = 0.0, S7 = 0.0;
    auto AddColumns = [&](int Lo, int Hi) {
      for (int Col = Lo; Col < Hi; ++Col) {
        const double XC = XP[Col];
        S0 += A0[Col] * XC;
        S1 += A1[Col] * XC;
        S2 += A2[Col] * XC;
        S3 += A3[Col] * XC;
        S4 += A4[Col] * XC;
        S5 += A5[Col] * XC;
        S6 += A6[Col] * XC;
        S7 += A7[Col] * XC;
      }
    };
    AddColumns(0, Row);
    // Lane L skips its own diagonal, column Row + L.
    for (int L = 0; L < 8; ++L) {
      const int Col = Row + L;
      const double XC = XP[Col];
      if (L != 0)
        S0 += A0[Col] * XC;
      if (L != 1)
        S1 += A1[Col] * XC;
      if (L != 2)
        S2 += A2[Col] * XC;
      if (L != 3)
        S3 += A3[Col] * XC;
      if (L != 4)
        S4 += A4[Col] * XC;
      if (L != 5)
        S5 += A5[Col] * XC;
      if (L != 6)
        S6 += A6[Col] * XC;
      if (L != 7)
        S7 += A7[Col] * XC;
    }
    AddColumns(Row + 8, N);
    double *O = Out.data() + R;
    O[0] = (A0[N] - S0) / A0[Row];
    O[1] = (A1[N] - S1) / A1[Row + 1];
    O[2] = (A2[N] - S2) / A2[Row + 2];
    O[3] = (A3[N] - S3) / A3[Row + 3];
    O[4] = (A4[N] - S4) / A4[Row + 4];
    O[5] = (A5[N] - S5) / A5[Row + 5];
    O[6] = (A6[N] - S6) / A6[Row + 6];
    O[7] = (A7[N] - S7) / A7[Row + 7];
  }
  for (; R < Rows; ++R) {
    const double *ARow = Sys + static_cast<std::size_t>(R) * Stride;
    const int Row = static_cast<int>(FirstRow + R);
    double Sum = 0.0;
    for (int Col = 0; Col < N; ++Col)
      if (Col != Row)
        Sum += ARow[Col] * XP[Col];
    Out[static_cast<std::size_t>(R)] = (ARow[N] - Sum) / ARow[Row];
  }
}

JacobiReport fupermod::runJacobi(const Cluster &Platform,
                                 const JacobiOptions &Options) {
  int P = Platform.size();
  int N = Options.N;
  assert(N > 0 && P > 0 && "invalid Jacobi configuration");

  // All phases (model feedback, repartitioning, execution) route through
  // one engine session; unknown algorithm/model names become a
  // diagnosable report error instead of an assert.
  engine::SessionConfig Cfg;
  Cfg.Platform = Platform;
  Cfg.ModelKind = Options.ModelKind;
  Cfg.Algorithm = Options.Algorithm;
  Cfg.Equalize = Options.Equalize;
  Result<std::unique_ptr<engine::Session>> SessionR =
      engine::Session::create(std::move(Cfg));
  if (!SessionR) {
    JacobiReport Report;
    Report.Error = SessionR.error();
    return Report;
  }
  engine::Session &Engine = *SessionR.value();
  // create() adopted the platform spec's `equalize` line when Options
  // left the policy empty; this resolved config drives the loop.
  const equalize::EqualizeConfig &EqCfg = Engine.config().Equalize;
  bool UseEqualize = Options.Balance && !EqCfg.Policy.empty();

  engine::BalancePolicy Policy;
  Policy.Enabled = Options.Balance;
  Policy.RebalanceThreshold = Options.RebalanceThreshold;
  Policy.TrackFailures = true;

  std::vector<JacobiIteration> Stats(
      static_cast<std::size_t>(Options.MaxIterations));
  for (auto &S : Stats) {
    S.ComputeTimes.assign(static_cast<std::size_t>(P), 0.0);
    S.Rows.assign(static_cast<std::size_t>(P), 0);
  }
  int IterationsDone = 0;
  int RebalanceCount = 0;
  bool Converged = false;
  std::vector<double> Solution;
  double Residual = 0.0;
  std::vector<int> FailedRanks;
  equalize::EqualizeStats EqStats;

  auto Body = [&](Comm &C) {
    int Me = C.rank();
    SimDevice Dev = Platform.makeDevice(Me);
    bool DevFailed = false;

    engine::BalancedLoop Loop =
        Engine.makeBalancedLoop(N, P, Options.StalenessDecay);

    // Each rank owns a policy replica; identical configs fed identical
    // gathered times keep the replicas in lockstep (no extra collectives).
    std::unique_ptr<equalize::Equalizer> Eq;
    if (UseEqualize) {
      Result<std::unique_ptr<equalize::Equalizer>> EqR =
          equalize::makeEqualizer(EqCfg);
      Eq = std::move(EqR.value()); // Config validated at session create.
    }

    // The system lives in a partitioner-aware container: one unit = one
    // matrix row interleaved with its right-hand-side entry, [a_r0 ..
    // a_r(N-1) | b_r], so a repartition moves each row in one piece.
    // Initial data is generated in place; every later move is real
    // communication, driven by the container's minimal-move plan.
    dist::PartitionedVector<double> Sys(C, Loop.dist(), N + 1);
    Sys.generate([&](std::int64_t Row, std::span<double> Out) {
      for (int Col = 0; Col < N; ++Col)
        Out[static_cast<std::size_t>(Col)] =
            jacobiMatrixEntry(N, static_cast<int>(Row), Col);
      Out[static_cast<std::size_t>(N)] =
          jacobiRhsEntry(N, static_cast<int>(Row));
    });

    std::vector<double> X(static_cast<std::size_t>(N), 0.0);

    int It = 0;
    for (; It < Options.MaxIterations; ++It) {
      double IterStart = C.time();
      std::int64_t MyStart = Sys.start();
      std::int64_t MyRows = Sys.units();

      // Local sweep: x_new over owned rows (real arithmetic).
      std::vector<double> XNewLocal(static_cast<std::size_t>(MyRows), 0.0);
      jacobiSweep(N, MyStart, MyRows, Sys.local().data(),
                  static_cast<std::size_t>(N) + 1, X, XNewLocal);

      // Virtual computation cost (one unit = one row). A hard-failed
      // device produces no timing; the rank reports the failure to the
      // balancer below so its rows migrate to the survivors.
      if (MyRows > 0) {
        Measurement M = Dev.measure(static_cast<double>(MyRows));
        if (M.Status == MeasureStatus::Failed) {
          DevFailed = true;
        } else {
          C.compute(M.Seconds);
          Stats[static_cast<std::size_t>(It)]
              .ComputeTimes[static_cast<std::size_t>(Me)] = M.Seconds;
        }
      }
      if (Me == 0) {
        const std::vector<std::int64_t> &Starts = Sys.starts();
        for (int Q = 0; Q < P; ++Q)
          Stats[static_cast<std::size_t>(It)]
              .Rows[static_cast<std::size_t>(Q)] =
              Starts[static_cast<std::size_t>(Q) + 1] -
              Starts[static_cast<std::size_t>(Q)];
      }

      // Load balancing with the (rows, iteration-time) point, exactly the
      // paper's fupermod_balance_iterate call site. With a positive
      // threshold, the balancer only runs when the measured imbalance
      // warrants the redistribution cost (ref [6]). The equalization
      // path replaces the threshold test with the configured policy.
      bool Balanced = Eq ? Loop.balanceEqualized(C, IterStart, *Eq, DevFailed)
                         : Loop.balance(C, IterStart, Policy, DevFailed);
      if (Balanced && Me == 0)
        ++RebalanceCount;

      // Exchange solution fragments (by the distribution used to compute
      // them) and evaluate convergence identically on every rank.
      // Ring allgather: each solution fragment crosses every link once,
      // the cheaper choice for these payloads.
      std::vector<double> XNew =
          C.allgathervRing(std::span<const double>(XNewLocal));
      assert(static_cast<int>(XNew.size()) == N &&
             "lost solution entries in allgather");
      double Error = 0.0;
      for (int I = 0; I < N; ++I)
        Error = std::max(Error, std::fabs(XNew[static_cast<std::size_t>(I)] -
                                          X[static_cast<std::size_t>(I)]));
      X = XNew;
      if (Me == 0)
        Stats[static_cast<std::size_t>(It)].Error = Error;

      // Migrate [A | b] rows to the new distribution — only when the
      // repartition actually moved units between ranks.
      Loop.redistributeIfChanged(Sys);

      if (Error <= Options.Tolerance) {
        ++It;
        Converged = true;
        break;
      }
    }

    if (Me == 0) {
      IterationsDone = It;
      if (Eq)
        EqStats = Eq->stats();
      for (int Q = 0; Q < P; ++Q)
        if (Loop.context().isExcluded(Q))
          FailedRanks.push_back(Q);
      Solution = X;
      for (int Row = 0; Row < N; ++Row) {
        double Sum = -jacobiRhsEntry(N, Row);
        for (int Col = 0; Col < N; ++Col)
          Sum += jacobiMatrixEntry(N, Row, Col) *
                 X[static_cast<std::size_t>(Col)];
        Residual = std::max(Residual, std::fabs(Sum));
      }
    }
  };

  SpmdResult Run = Engine.execute(P, Body).value();

  JacobiReport Report;
  Stats.resize(static_cast<std::size_t>(IterationsDone));
  Report.Iterations = std::move(Stats);
  Report.Makespan = Run.makespan();
  Report.Converged = Converged;
  Report.Rebalances = RebalanceCount;
  Report.Solution = std::move(Solution);
  Report.Residual = Residual;
  Report.FailedRanks = std::move(FailedRanks);
  Report.Equalize = EqStats;
  Report.Comm = Run.Comm;
  return Report;
}
