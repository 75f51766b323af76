//===-- tests/JacobiTest.cpp - Jacobi application tests -------------------===//

#include "apps/Jacobi.h"

#include "core/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

using namespace fupermod;

namespace {

JacobiOptions smallOptions() {
  JacobiOptions O;
  O.N = 96;
  O.MaxIterations = 40;
  O.Tolerance = 1e-9;
  O.Balance = false;
  return O;
}

} // namespace

TEST(JacobiSystem, DiagonallyDominant) {
  const int N = 50;
  for (int Row = 0; Row < N; ++Row) {
    double OffSum = 0.0;
    for (int Col = 0; Col < N; ++Col)
      if (Col != Row)
        OffSum += std::fabs(jacobiMatrixEntry(N, Row, Col));
    EXPECT_GT(std::fabs(jacobiMatrixEntry(N, Row, Row)), OffSum)
        << "row " << Row;
  }
}

TEST(JacobiSystem, EntriesAreDeterministic) {
  EXPECT_DOUBLE_EQ(jacobiMatrixEntry(64, 3, 7), jacobiMatrixEntry(64, 3, 7));
  EXPECT_DOUBLE_EQ(jacobiRhsEntry(64, 5), jacobiRhsEntry(64, 5));
}

TEST(Jacobi, ConvergesWithoutBalancing) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  JacobiReport R = runJacobi(Cl, smallOptions());
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(R.Residual, 1e-6);
  EXPECT_FALSE(R.Iterations.empty());
  // Distribution never moved.
  for (const JacobiIteration &It : R.Iterations)
    EXPECT_EQ(It.Rows[0], 32);
}

TEST(Jacobi, ConvergesWithBalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(R.Residual, 1e-6);
}

TEST(Jacobi, SameSolutionWithAndWithoutBalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  JacobiReport Plain = runJacobi(Cl, O);
  O.Balance = true;
  JacobiReport Balanced = runJacobi(Cl, O);
  ASSERT_EQ(Plain.Solution.size(), Balanced.Solution.size());
  for (std::size_t I = 0; I < Plain.Solution.size(); ++I)
    EXPECT_NEAR(Plain.Solution[I], Balanced.Solution[I], 1e-8);
}

TEST(Jacobi, BalancingMovesRowsAwayFromSlowDevices) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 25.0); // 4x slower.
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.N = 100;
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_GE(R.Iterations.size(), 3u);
  // Starts even.
  EXPECT_EQ(R.Iterations.front().Rows[0], 50);
  // Converges to the 4:1 split.
  EXPECT_NEAR(static_cast<double>(R.Iterations.back().Rows[0]), 80.0, 5.0);
}

TEST(Jacobi, BalancingReducesPerIterationImbalance) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.N = 240;
  O.Balance = true;
  O.MaxIterations = 12;
  O.Tolerance = 0.0; // Run all iterations.
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_GE(R.Iterations.size(), 6u);
  double First = imbalance(R.Iterations.front().ComputeTimes);
  double Last = imbalance(R.Iterations.back().ComputeTimes);
  EXPECT_LT(Last, 0.6 * First);
}

TEST(Jacobi, BalancingBeatsEvenDistributionOnMakespan) {
  Cluster Cl = makeUniformCluster(2, 100.0);
  Cl.Devices[1] = makeConstantProfile("slow", 20.0);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.N = 120;
  O.MaxIterations = 15;
  O.Tolerance = 0.0;
  JacobiReport Even = runJacobi(Cl, O);
  O.Balance = true;
  JacobiReport Balanced = runJacobi(Cl, O);
  EXPECT_LT(Balanced.Makespan, 0.8 * Even.Makespan);
}

TEST(Jacobi, RowCountsAlwaysSumToN) {
  Cluster Cl = makeHclLikeCluster(false);
  JacobiOptions O = smallOptions();
  O.N = 150;
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  for (const JacobiIteration &It : R.Iterations) {
    std::int64_t Sum = 0;
    for (std::int64_t Rows : It.Rows)
      Sum += Rows;
    EXPECT_EQ(Sum, 150);
  }
}

TEST(Jacobi, DeterministicAcrossRuns) {
  Cluster Cl = makeHclLikeCluster(false);
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport A = runJacobi(Cl, O);
  JacobiReport B = runJacobi(Cl, O);
  EXPECT_DOUBLE_EQ(A.Makespan, B.Makespan);
  ASSERT_EQ(A.Iterations.size(), B.Iterations.size());
  for (std::size_t I = 0; I < A.Iterations.size(); ++I)
    EXPECT_EQ(A.Iterations[I].Rows, B.Iterations[I].Rows);
}

TEST(Jacobi, ThresholdSuppressesMarginalRebalancing) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.N = 240;
  O.Balance = true;
  O.MaxIterations = 12;
  O.Tolerance = 0.0;

  JacobiReport Always = runJacobi(Cl, O);
  O.RebalanceThreshold = 0.15;
  JacobiReport Thresholded = runJacobi(Cl, O);

  // Always-on balances every iteration; the threshold stops once the
  // imbalance drops below 15%.
  EXPECT_EQ(Always.Rebalances, 12);
  EXPECT_LT(Thresholded.Rebalances, 12);
  EXPECT_GE(Thresholded.Rebalances, 1);
  // Quality stays comparable: both end clearly better balanced than the
  // even start.
  double ImbT = imbalance(Thresholded.Iterations.back().ComputeTimes);
  EXPECT_LT(ImbT, 0.5 * imbalance(Thresholded.Iterations.front().ComputeTimes));
}

TEST(Jacobi, HugeThresholdMeansNoRedistribution) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.0;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  O.RebalanceThreshold = 0.99;
  JacobiReport R = runJacobi(Cl, O);
  EXPECT_EQ(R.Rebalances, 0);
  for (const JacobiIteration &It : R.Iterations)
    EXPECT_EQ(It.Rows[0], It.Rows[1]); // Still the even distribution.
}

namespace {

std::uint64_t fnv1a(std::uint64_t H, const void *Data, std::size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::uint64_t reportHash(const JacobiReport &R) {
  std::uint64_t H = 1469598103934665603ull;
  H = fnv1a(H, R.Solution.data(), R.Solution.size() * sizeof(double));
  return fnv1a(H, &R.Makespan, sizeof(double));
}

} // namespace

// Bit-exact regression pins, captured from the pre-container Jacobi: the
// PartitionedVector rewrite must reproduce the hand-rolled app's solution
// AND virtual-time trace (the hash folds the Makespan bits in). Any
// change to message sizes, counts, or ordering moves these values.
TEST(JacobiRegression, StaticRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeUniformCluster(3, 100.0);
  Cl.NoiseSigma = 0.0;
  JacobiReport R = runJacobi(Cl, smallOptions());
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(reportHash(R), 18116180524780898970ull);
}

TEST(JacobiRegression, BalancedRunBitIdenticalToPreContainerApp) {
  Cluster Cl = makeHclLikeCluster(false);
  Cl.NoiseSigma = 0.01;
  JacobiOptions O = smallOptions();
  O.Balance = true;
  JacobiReport R = runJacobi(Cl, O);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Rebalances, 6);
  EXPECT_EQ(reportHash(R), 7772390316824469943ull);
}

namespace {

/// The row-at-a-time sweep jacobiSweep replaced: one add chain per row,
/// ascending columns, the diagonal skipped by a per-column test.
void sweepRowByRow(int N, std::int64_t FirstRow, std::int64_t Rows,
                   const double *Sys, std::size_t Stride,
                   const std::vector<double> &X, std::vector<double> &Out) {
  for (std::int64_t R = 0; R < Rows; ++R) {
    const double *ARow = Sys + static_cast<std::size_t>(R) * Stride;
    int Row = static_cast<int>(FirstRow + R);
    double Sum = 0.0;
    for (int Col = 0; Col < N; ++Col)
      if (Col != Row)
        Sum += ARow[Col] * X[static_cast<std::size_t>(Col)];
    Out[static_cast<std::size_t>(R)] = (ARow[N] - Sum) / ARow[Row];
  }
}

/// Rows [FirstRow, FirstRow + Rows) of the test system's [A | b] units,
/// Stride doubles apart (padding past b holds NaN, which must not leak).
std::vector<double> band(int N, std::int64_t FirstRow, std::int64_t Rows,
                         std::size_t Stride) {
  std::vector<double> Sys(static_cast<std::size_t>(Rows) * Stride,
                          std::numeric_limits<double>::quiet_NaN());
  for (std::int64_t R = 0; R < Rows; ++R) {
    double *Unit = Sys.data() + static_cast<std::size_t>(R) * Stride;
    int Row = static_cast<int>(FirstRow + R);
    for (int Col = 0; Col < N; ++Col)
      Unit[Col] = jacobiMatrixEntry(N, Row, Col);
    Unit[N] = jacobiRhsEntry(N, Row);
  }
  return Sys;
}

std::vector<double> randomX(int N, std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<double> X(static_cast<std::size_t>(N));
  for (double &V : X)
    V = Rng.uniform(-3.0, 3.0);
  return X;
}

} // namespace

// The 8-row sweep keeps every row's own summation order, so it must equal
// the row-by-row loop bit for bit: every Rows % 8 residue, bands at the
// top, middle and bottom of the matrix (the diagonal block on every lane,
// up to the last columns), N both a multiple of 8 and not, and a padded
// stride.
TEST(JacobiSweep, BitIdenticalToRowByRow) {
  for (int N : {37, 96, 200}) {
    std::vector<double> X = randomX(N, static_cast<std::uint64_t>(N));
    for (std::int64_t Rows = 1; Rows <= 19; ++Rows) {
      for (std::int64_t FirstRow : {std::int64_t{0}, (N - Rows) / 2 + 1,
                                    static_cast<std::int64_t>(N) - Rows}) {
        for (std::size_t Pad : {std::size_t{0}, std::size_t{3}}) {
          std::size_t Stride = static_cast<std::size_t>(N) + 1 + Pad;
          std::vector<double> Sys = band(N, FirstRow, Rows, Stride);
          std::vector<double> Want(static_cast<std::size_t>(Rows));
          std::vector<double> Got(static_cast<std::size_t>(Rows));
          sweepRowByRow(N, FirstRow, Rows, Sys.data(), Stride, X, Want);
          jacobiSweep(N, FirstRow, Rows, Sys.data(), Stride, X, Got);
          EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                                   Want.size() * sizeof(double)))
              << "N " << N << ", rows [" << FirstRow << ", "
              << FirstRow + Rows << "), stride " << Stride;
        }
      }
    }
  }
}

// An infinite X entry sits on its own row's diagonal: skipping the
// diagonal keeps that row finite, where multiplying it by a zeroed
// diagonal would give 0 * inf = NaN. Every lane of a group and the
// remainder rows are checked.
TEST(JacobiSweep, DiagonalSkipKeepsInfinityOut) {
  const int N = 37;
  const std::int64_t FirstRow = 5, Rows = 19;
  const std::size_t Stride = static_cast<std::size_t>(N) + 1;
  std::vector<double> Sys = band(N, FirstRow, Rows, Stride);
  for (std::int64_t R = 0; R < Rows; ++R) {
    std::vector<double> X = randomX(N, 7);
    X[static_cast<std::size_t>(FirstRow + R)] =
        std::numeric_limits<double>::infinity();
    std::vector<double> Want(static_cast<std::size_t>(Rows));
    std::vector<double> Got(static_cast<std::size_t>(Rows));
    sweepRowByRow(N, FirstRow, Rows, Sys.data(), Stride, X, Want);
    jacobiSweep(N, FirstRow, Rows, Sys.data(), Stride, X, Got);
    double Own = Got[static_cast<std::size_t>(R)];
    EXPECT_TRUE(std::isfinite(Own)) << "row " << FirstRow + R;
    EXPECT_EQ(0, std::memcmp(&Own, &Want[static_cast<std::size_t>(R)],
                             sizeof(double)))
        << "row " << FirstRow + R;
    // Every other row picks the infinity up exactly as the reference does.
    EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                             Want.size() * sizeof(double)))
        << "row " << FirstRow + R;
  }
}
