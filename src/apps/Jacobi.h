//===-- apps/Jacobi.h - Jacobi method with load balancing -------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second use case (Section 4.4, Fig. 4): the Jacobi method
/// with rows of the system distributed over heterogeneous processes and
/// redistributed at runtime by the dynamic load balancer. Each iteration:
///
///   1. every process sweeps its rows (real arithmetic; virtual cost from
///      its device profile, one computation unit = one row),
///   2. the compute duration feeds `balanceIterate`, which updates the
///      partial FPMs and repartitions,
///   3. rows of A and entries of b migrate to match the new distribution,
///   4. the updated solution fragments are allgathered.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_APPS_JACOBI_H
#define FUPERMOD_APPS_JACOBI_H

#include "core/Partition.h"
#include "equalize/Policy.h"
#include "mpp/Group.h"
#include "sim/Cluster.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fupermod {

/// Parameters of one Jacobi run.
struct JacobiOptions {
  /// Number of equations/unknowns.
  int N = 256;
  /// Application iteration cap.
  int MaxIterations = 30;
  /// Stop when the largest |x_new - x_old| falls below this.
  double Tolerance = 1e-10;
  /// Rebalance the row distribution at runtime.
  bool Balance = true;
  /// Rebalance only when the relative imbalance of the measured
  /// iteration times, (max - min) / max, exceeds this threshold
  /// (0 = rebalance every iteration). The threshold criterion of the
  /// paper's dynamic load balancing algorithm (ref [6]) avoids paying
  /// redistribution cost for marginal gains.
  double RebalanceThreshold = 0.0;
  /// Partitioning algorithm used by the balancer.
  std::string Algorithm = "geometric";
  /// Partial-model kind used by the balancer.
  std::string ModelKind = "piecewise";
  /// Per-rebalance exponential down-weighting of old model points
  /// (1 = keep history forever). Values below 1 let the balancer track
  /// devices whose speed changes mid-run — e.g. an injected slowdown —
  /// instead of averaging the old and new regimes forever.
  double StalenessDecay = 1.0;
  /// Equalization policy. With a non-empty Policy (and Balance on), the
  /// loop takes the equalization path (BalancedLoop::balanceEqualized)
  /// instead of the legacy threshold test; empty keeps the historical
  /// balance() path bit for bit. Left empty, a platform spec carrying an
  /// `equalize` line still turns the subsystem on (Session::create
  /// adopts it).
  equalize::EqualizeConfig Equalize;
};

/// Per-iteration record of one Jacobi run.
struct JacobiIteration {
  /// Virtual compute time of each rank during this iteration.
  std::vector<double> ComputeTimes;
  /// Rows held by each rank during this iteration.
  std::vector<std::int64_t> Rows;
  /// Largest |x_new - x_old| after the iteration.
  double Error = 0.0;
};

/// Outcome of one Jacobi run.
struct JacobiReport {
  std::vector<JacobiIteration> Iterations;
  /// Virtual completion time of the run.
  double Makespan = 0.0;
  /// True when the tolerance was reached within the iteration cap.
  bool Converged = false;
  /// Number of iterations in which the balancer actually ran.
  int Rebalances = 0;
  /// Final solution vector (identical on all ranks; exposed for checks).
  std::vector<double> Solution;
  /// Infinity norm of A x - b for the returned solution.
  double Residual = 0.0;
  /// Ranks whose devices hard-failed during the run (excluded by the
  /// balancer; empty on a healthy run).
  std::vector<int> FailedRanks;
  /// Equalization-policy tallies (all zero on the legacy path).
  equalize::EqualizeStats Equalize;
  /// Communication counters of the run (redistribute/halo bytes plus the
  /// "equalize.*" named counters published by rank 0).
  CommStatsSnapshot Comm;
  /// Non-empty when the run could not start (e.g. an unknown algorithm
  /// or model-kind name); the diagnostic lists the registered names.
  std::string Error;
};

/// Runs the Jacobi method on the given simulated platform.
JacobiReport runJacobi(const Cluster &Platform, const JacobiOptions &Options);

/// Deterministic diagonally dominant test system: entry (\p Row, \p Col)
/// of A (diagonal = N, off-diagonal pseudo-random in [-0.5, 0.5]).
double jacobiMatrixEntry(int N, int Row, int Col);

/// Right-hand side entry \p Row of the test system.
double jacobiRhsEntry(int N, int Row);

/// One Jacobi sweep over the \p Rows consecutive rows that start at global
/// row \p FirstRow: Out[R] = (b - sum over Col != Row of a[Col] * X[Col])
/// / a[Row] for Row = FirstRow + R. Row R's unit [a_0 .. a_(N-1) | b]
/// starts at Sys + R * Stride (Stride >= N + 1), the layout of
/// PartitionedVector's local storage. Each row's sum adds its products in
/// ascending column order from 0.0 and skips the diagonal (it does not
/// multiply it by zero, which would read 0 * inf = NaN once X is not
/// finite), so the result is the same bit for bit however the rows are
/// grouped: the sweep runs 8 rows per pass over X, one accumulator each,
/// and the last Rows % 8 rows one at a time.
void jacobiSweep(int N, std::int64_t FirstRow, std::int64_t Rows,
                 const double *Sys, std::size_t Stride,
                 std::span<const double> X, std::span<double> Out);

} // namespace fupermod

#endif // FUPERMOD_APPS_JACOBI_H
