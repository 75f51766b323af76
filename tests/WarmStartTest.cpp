//===-- tests/WarmStartTest.cpp - warm-started partitioning laws ----------===//
//
// Property-based net over the warm-started partitioners: ~200 seeded
// random heterogeneous clusters, each taken through every hint state the
// warm variants distinguish. The law under test is single: a warm call
// returns exactly what the cold algorithm returns right now, whatever the
// hint says —
//
//  1. empty hint (first call): the cold code path itself;
//  2. valid hint, unchanged models: the memoized solution is replayed
//     without touching the models at all (fit epochs prove exactness);
//  3. stale hint after incremental feedback: the solvers reuse the hint
//     only as a seed (bisection bracket, Newton initial guess), so the
//     answer tracks the *new* fit;
//  4. stale hint after a device was excluded: the size mismatch forces a
//     full revalidation and re-solve.
//
// Plus the solver half: the geometric bisection leaves its loop once the
// bracket has collapsed, and a warm solve must still return bit for bit
// what the full-length bisection returns.
//
//===----------------------------------------------------------------------===//

#include "core/Benchmark.h"
#include "core/Model.h"
#include "core/Partitioners.h"
#include "sim/Cluster.h"
#include "solver/NewtonSolver.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace fupermod;

namespace {

/// Calls into any CountingModel since process start.
std::atomic<std::uint64_t> ModelCalls{0};

/// A piecewise model that counts every prediction and inverse it is
/// asked for, so a test can prove a code path never touched the models.
class CountingModel : public PiecewiseModel {
public:
  double sizeForTime(double T) const override {
    ++ModelCalls;
    return PiecewiseModel::sizeForTime(T);
  }
  double timeDerivative(double X) const override {
    ++ModelCalls;
    return PiecewiseModel::timeDerivative(X);
  }
  void timesAt(std::span<const double> Xs,
               std::span<double> Out) const override {
    ++ModelCalls;
    PiecewiseModel::timesAt(Xs, Out);
  }

protected:
  double timeImpl(double X) const override {
    ++ModelCalls;
    return PiecewiseModel::timeImpl(X);
  }
};

Registrar<ModelRegistry> RegCounting(modelRegistry(), "counting-piecewise", [] {
  return std::unique_ptr<Model>(std::make_unique<CountingModel>());
});

struct BuiltCluster {
  Cluster Cl;
  std::vector<BuiltModel> Built;
  std::vector<Model *> Models;
};

/// Benchmarks and fits one model per device of a (P, Variant)-named
/// random platform (the PartitionPropertyTest generator, noise-free).
BuiltCluster buildCluster(int P, std::uint64_t Variant) {
  BuiltCluster B;
  B.Cl = makeHeterogeneousCluster(P, Variant);
  B.Cl.NoiseSigma = 0.0;

  ModelBuildPlan Plan;
  Plan.Kind = "counting-piecewise";
  Plan.MinSize = 64.0;
  Plan.MaxSize = 7000.0;
  Plan.NumPoints = 10;
  Plan.Prec.MinReps = 1;
  Plan.Prec.MaxReps = 2;
  B.Built = buildModelsParallel(B.Cl, Plan);
  for (BuiltModel &M : B.Built)
    B.Models.push_back(M.M.get());
  return B;
}

Point makePoint(double Units, double Time, int Reps = 3) {
  Point P;
  P.Units = Units;
  P.Time = Time;
  P.Reps = Reps;
  P.ConfidenceInterval = 0.0;
  return P;
}

bool bitEqual(double A, double B) {
  return std::bit_cast<std::uint64_t>(A) == std::bit_cast<std::uint64_t>(B);
}

/// What a solve records in its hint, computed independently of the
/// library's solver.
struct Reference {
  double Tau = 0.0;
  std::vector<double> Shares;
  std::vector<std::int64_t> Units;
};

/// Per-device share limit of the partitioners: the feasibility cap as a
/// unit count, saturated inside int64 range.
std::vector<double> shareLimits(std::span<Model *const> Models) {
  std::vector<double> Limits;
  for (Model *M : Models)
    Limits.push_back(static_cast<double>(std::min<std::int64_t>(
        maxUnitsUnderCap(M->feasibleLimit()), std::int64_t(1) << 62)));
  return Limits;
}

/// The paper's geometric solve with a bisection that always runs its 100
/// steps: bracket the common completion time from \p SeedTau (0 = the
/// even-share probe), bisect, and read each device's share off its
/// inverse time function.
void referenceGeometric(double Total, std::span<Model *const> Models,
                        double SeedTau, Reference &Out) {
  std::size_t P = Models.size();
  std::vector<double> Limits = shareLimits(Models);
  auto SumAt = [&](double T) {
    double Sum = 0.0;
    for (std::size_t I = 0; I < P; ++I)
      Sum += std::min(Models[I]->sizeForTime(T), Limits[I]);
    return Sum;
  };
  double Lo = 0.0;
  double Hi = SeedTau > 0.0 ? SeedTau
                            : Models[0]->timeAt(std::max(
                                  Total / static_cast<double>(P), 1.0));
  Hi = std::max(Hi, 1e-9);
  bool Bracketed = false;
  for (int I = 0; I < 200 && !Bracketed; ++I) {
    Bracketed = SumAt(Hi) >= Total;
    if (!Bracketed)
      Hi *= 2.0;
  }
  Out.Tau = Hi;
  if (Bracketed) {
    for (int I = 0; I < 100; ++I) {
      double Mid = 0.5 * (Lo + Hi);
      if (SumAt(Mid) < Total)
        Lo = Mid;
      else
        Hi = Mid;
    }
    Out.Tau = 0.5 * (Lo + Hi);
  }
  Out.Shares.clear();
  for (std::size_t I = 0; I < P; ++I)
    Out.Shares.push_back(std::min(Models[I]->sizeForTime(Out.Tau), Limits[I]));
}

/// The numerical partitioner's Newton refinement of the balance system
/// t_i(x_i) = t_p(x_p), sum x_i = D from \p X0; false when Newton did
/// not converge to a finite non-negative point.
bool referenceNewton(double D, std::span<Model *const> Models,
                     double TimeScale, std::span<const double> X0,
                     std::vector<double> &Refined) {
  std::size_t P = Models.size();
  VectorFunction F = [&](std::span<const double> X, std::span<double> R) {
    double TLast = Models[P - 1]->timeAt(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I)
      R[I] = (Models[I]->timeAt(std::max(X[I], 0.0)) - TLast) / TimeScale;
    double Sum = 0.0;
    for (double V : X)
      Sum += V;
    R[P - 1] = (Sum - D) / D;
  };
  JacobianFunction J = [&](std::span<const double> X, std::span<double> Jac) {
    std::fill(Jac.begin(), Jac.end(), 0.0);
    double DLast = Models[P - 1]->timeDerivative(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I) {
      Jac[I * P + I] =
          Models[I]->timeDerivative(std::max(X[I], 0.0)) / TimeScale;
      Jac[I * P + (P - 1)] = -DLast / TimeScale;
    }
    for (std::size_t Col = 0; Col < P; ++Col)
      Jac[(P - 1) * P + Col] = 1.0 / D;
  };
  NewtonOptions Options;
  Options.ResidualTolerance = 1e-10;
  Options.MaxIterations = 200;
  Options.LowerBounds.assign(P, 0.0);
  Options.UpperBounds = shareLimits(Models);
  NewtonResult Solved = solveNewton(F, X0, Options, J);
  bool Sane = Solved.Converged;
  for (double V : Solved.X)
    Sane = Sane && std::isfinite(V) && V >= 0.0;
  if (Sane)
    Refined = std::move(Solved.X);
  return Sane;
}

/// What partition{Geometric,Numerical}Warm record for \p Total given the
/// hint \p Prior they were called with (P >= 2).
Reference referenceWarm(const std::string &Name, std::int64_t Total,
                        std::span<Model *const> Models,
                        const PartitionHint &Prior) {
  Reference R;
  double D = static_cast<double>(Total);
  referenceGeometric(D, Models, Prior.Valid ? Prior.Tau : 0.0, R);
  if (Name == "numerical") {
    double TimeScale = std::max(R.Tau, 1e-9);
    bool HaveWarmX0 = Prior.Valid && Prior.Total == Total &&
                      Prior.Shares.size() == Models.size();
    std::vector<double> Refined;
    bool Sane = referenceNewton(D, Models, TimeScale,
                                HaveWarmX0 ? Prior.Shares : R.Shares, Refined);
    if (!Sane && HaveWarmX0)
      Sane = referenceNewton(D, Models, TimeScale, R.Shares, Refined);
    if (Sane)
      R.Shares = std::move(Refined);
  }
  std::vector<double> Caps;
  for (Model *M : Models)
    Caps.push_back(M->feasibleLimit());
  R.Units = roundSharesCapped(R.Shares, Total, Caps);
  return R;
}

/// Bit-equality of a recorded hint with the reference solve.
void expectHintMatches(const PartitionHint &Hint, const Reference &R,
                       const std::string &Where) {
  EXPECT_TRUE(bitEqual(Hint.Tau, R.Tau)) << Where << ": tau " << Hint.Tau
                                         << " vs " << R.Tau;
  ASSERT_EQ(Hint.Shares.size(), R.Shares.size()) << Where;
  for (std::size_t I = 0; I < R.Shares.size(); ++I)
    EXPECT_TRUE(bitEqual(Hint.Shares[I], R.Shares[I]))
        << Where << ": share " << I << " " << Hint.Shares[I] << " vs "
        << R.Shares[I];
  EXPECT_EQ(Hint.Units, R.Units) << Where;
}

} // namespace

TEST(WarmStart, EveryHintStateMatchesColdOverRandomClusters) {
  for (std::uint64_t Case = 0; Case < 200; ++Case) {
    SplitMix64 Rng(0x51ed2701 + Case);
    int P = 2 + static_cast<int>(Case % 7);
    BuiltCluster B = buildCluster(P, /*Variant=*/4000 + Case);
    std::int64_t Total =
        1500 + static_cast<std::int64_t>(Rng.uniform(0.0, 45000.0));

    for (const char *Name : {"geometric", "numerical"}) {
      Partitioner Cold = findPartitioner(Name);
      WarmPartitioner Warm = findWarmPartitioner(Name);
      ASSERT_TRUE(Cold && Warm);
      PartitionHint Hint;

      // 1. First call, empty hint: the cold path, byte for byte.
      Dist C0, W0;
      ASSERT_TRUE(Cold(Total, B.Models, C0));
      ASSERT_TRUE(Warm(Total, B.Models, W0, Hint));
      EXPECT_TRUE(W0.sameUnits(C0))
          << Name << " first warm call diverged, cluster " << Case;

      // 2. Unchanged models: memo replay — identical result, and the
      // models are provably untouched (no prediction or inverse asked).
      std::uint64_t Calls = ModelCalls.load();
      Dist W1;
      ASSERT_TRUE(Warm(Total, B.Models, W1, Hint));
      EXPECT_TRUE(W1.sameUnits(C0))
          << Name << " memo replay diverged, cluster " << Case;
      EXPECT_EQ(ModelCalls.load(), Calls)
          << Name << " memo replay touched the models, cluster " << Case;
      // The check above can fail: a re-solve does touch the models.
      PartitionHint Empty;
      Dist W1Solved;
      ASSERT_TRUE(Warm(Total, B.Models, W1Solved, Empty));
      EXPECT_GT(ModelCalls.load(), Calls)
          << Name << " re-solve went unseen, cluster " << Case;

      // 3. Incremental feedback on one device: the hint is stale (its
      // epoch no longer matches) and may only seed the solver.
      std::size_t Victim = static_cast<std::size_t>(Case) % B.Models.size();
      double X = 200.0 + Rng.uniform(0.0, 5000.0);
      B.Models[Victim]->update(
          makePoint(X, B.Cl.Devices[Victim].time(X) * 1.07));
      Dist C1, W2;
      ASSERT_TRUE(Cold(Total, B.Models, C1));
      ASSERT_TRUE(Warm(Total, B.Models, W2, Hint));
      EXPECT_TRUE(W2.sameUnits(C1))
          << Name << " post-feedback warm diverged, cluster " << Case;

      // 4. Device exclusion: fewer models than the hint was recorded
      // for — revalidation must fail on the size mismatch alone.
      std::vector<Model *> Sub(B.Models.begin(), B.Models.end() - 1);
      Dist C2, W3;
      ASSERT_TRUE(Cold(Total, Sub, C2));
      ASSERT_TRUE(Warm(Total, Sub, W3, Hint));
      EXPECT_TRUE(W3.sameUnits(C2))
          << Name << " post-exclusion warm diverged, cluster " << Case;
    }
  }
}

TEST(WarmStart, GenericMemoWrapperCoversUnseededAlgorithms) {
  // "constant" has no bespoke seeded path; findWarmPartitioner wraps the
  // cold algorithm with the epoch-validated memo, which must give the
  // same equality guarantees.
  for (std::uint64_t Case = 0; Case < 40; ++Case) {
    int P = 2 + static_cast<int>(Case % 5);
    BuiltCluster B = buildCluster(P, /*Variant=*/6000 + Case);
    std::int64_t Total = 3000 + static_cast<std::int64_t>(Case) * 137;

    Partitioner Cold = findPartitioner("constant");
    WarmPartitioner Warm = findWarmPartitioner("constant");
    ASSERT_TRUE(Cold && Warm);
    PartitionHint Hint;

    Dist C0, W0, W1;
    ASSERT_TRUE(Cold(Total, B.Models, C0));
    ASSERT_TRUE(Warm(Total, B.Models, W0, Hint));
    EXPECT_TRUE(W0.sameUnits(C0)) << "cluster " << Case;
    ASSERT_TRUE(Warm(Total, B.Models, W1, Hint)); // memo replay
    EXPECT_TRUE(W1.sameUnits(C0)) << "cluster " << Case;

    // Feedback invalidates the memo through the epoch, like the seeded
    // variants.
    double X = 500.0 + static_cast<double>(Case) * 11.0;
    B.Models[0]->update(makePoint(X, B.Cl.Devices[0].time(X) * 1.25));
    Dist C1, W2;
    ASSERT_TRUE(Cold(Total, B.Models, C1));
    ASSERT_TRUE(Warm(Total, B.Models, W2, Hint));
    EXPECT_TRUE(W2.sameUnits(C1)) << "cluster " << Case;
  }
}

TEST(WarmStart, UnknownAlgorithmStillDiagnosed) {
  std::string Err;
  WarmPartitioner W = findWarmPartitioner("no-such-algorithm", &Err);
  EXPECT_FALSE(static_cast<bool>(W));
  EXPECT_FALSE(Err.empty());
}

TEST(WarmStart, HintsMatchFullLengthBisectionOverRandomClusters) {
  // The solvers leave the bisection once its midpoint rounds onto an
  // endpoint. A reference that always runs the 100 steps must agree bit
  // for bit on the recorded tau, the real shares and the units, on the
  // cold first call and on the tau/shares-seeded call after feedback.
  for (std::uint64_t Case = 0; Case < 200; ++Case) {
    SplitMix64 Rng(0x6a09e667 + Case);
    int P = 2 + static_cast<int>(Case % 7);
    BuiltCluster B = buildCluster(P, /*Variant=*/8000 + Case);
    std::int64_t Total =
        1500 + static_cast<std::int64_t>(Rng.uniform(0.0, 45000.0));
    std::size_t Victim = static_cast<std::size_t>(Case) % B.Models.size();
    double X = 200.0 + Rng.uniform(0.0, 5000.0);
    Point Feedback;
    Feedback.Units = X;
    Feedback.Time = B.Cl.Devices[Victim].time(X) * 0.93;
    Feedback.Reps = 3;

    for (const char *Name : {"geometric", "numerical"}) {
      WarmPartitioner Warm = findWarmPartitioner(Name);
      ASSERT_TRUE(Warm);
      std::string Where =
          std::string(Name) + " cluster " + std::to_string(Case);
      PartitionHint Hint;
      Reference R0 = referenceWarm(Name, Total, B.Models, Hint);
      Dist D0;
      ASSERT_TRUE(Warm(Total, B.Models, D0, Hint));
      expectHintMatches(Hint, R0, Where + " cold");

      PartitionHint Prior = Hint;
      B.Models[Victim]->update(Feedback);
      Reference R1 = referenceWarm(Name, Total, B.Models, Prior);
      Dist D1;
      ASSERT_TRUE(Warm(Total, B.Models, D1, Hint));
      expectHintMatches(Hint, R1, Where + " seeded");
    }
  }
}
