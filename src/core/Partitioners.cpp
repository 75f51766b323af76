//===-- core/Partitioners.cpp - Static partitioning algorithms ------------===//

#include "core/Partitioners.h"

#include "solver/NewtonSolver.h"

#include <cassert>
#include <cmath>

using namespace fupermod;

namespace {

/// Fills predicted times of \p Out from the models and rounded units.
void fillPredictions(std::span<Model *const> Models, Dist &Out) {
  for (std::size_t I = 0; I < Out.Parts.size(); ++I) {
    Part &P = Out.Parts[I];
    P.PredictedTime =
        P.Units > 0 ? Models[I]->timeAt(static_cast<double>(P.Units)) : 0.0;
  }
}

bool modelsReady(std::span<Model *const> Models) {
  if (Models.empty())
    return false;
  for (Model *M : Models)
    if (!M || !M->fitted())
      return false;
  return true;
}

/// Per-model feasibility caps (smallest size known infeasible).
std::vector<double> feasibleCaps(std::span<Model *const> Models) {
  std::vector<double> Caps;
  Caps.reserve(Models.size());
  for (Model *M : Models)
    Caps.push_back(M->feasibleLimit());
  return Caps;
}

/// Largest real share a device with feasibility cap \p Cap may take.
double shareLimit(double Cap) {
  return static_cast<double>(std::min<std::int64_t>(maxUnitsUnderCap(Cap),
                                                    std::int64_t(1) << 62));
}

/// True when the devices can hold \p Total units at all under the caps.
bool capacitySufficient(std::span<const double> Caps, std::int64_t Total) {
  double Capacity = 0.0;
  for (double Cap : Caps) {
    Capacity += std::min(
        static_cast<double>(maxUnitsUnderCap(Cap)), 1e18);
    if (Capacity >= static_cast<double>(Total))
      return true;
  }
  return Capacity >= static_cast<double>(Total);
}

/// Real-valued geometric solution: the common completion time Tau with
/// sum_i min(t_i^{-1}(Tau), cap_i) = Total, and the corresponding shares.
/// Shares are clipped to each device's feasibility cap, so a device never
/// receives sizes it cannot execute.
///
/// \p SeedTau > 0 starts the bracketing from a previous solve's
/// completion time instead of the even-share probe — the warm path after
/// an incremental model update, where the old makespan is already within
/// a doubling or two of the new one. The seed only changes where the
/// bisection starts, never what it converges to (up to bisection
/// resolution); SeedTau == 0 is the cold path, bit-for-bit as before.
bool solveGeometric(double Total, std::span<Model *const> Models,
                    std::vector<double> &Shares, double &Tau,
                    double SeedTau = 0.0) {
  std::size_t P = Models.size();
  std::vector<double> Limits;
  for (double Cap : feasibleCaps(Models))
    Limits.push_back(shareLimit(Cap));
  // Each probe is one exact inverse per model: a closed form or a binary
  // search over knots, except for models that fall back to the memoized
  // bracketed search of Model::sizeForTime.
  auto ShareAt = [&](std::size_t I, double T) {
    return std::min(Models[I]->sizeForTime(T), Limits[I]);
  };
  auto SumAt = [&](double T) {
    double Sum = 0.0;
    for (std::size_t I = 0; I < P; ++I)
      Sum += ShareAt(I, T);
    return Sum;
  };

  // Bracket the common time: Lo = 0 allocates nothing; grow Hi until the
  // processes would absorb the whole problem.
  double Lo = 0.0;
  double Hi = SeedTau > 0.0 && std::isfinite(SeedTau)
                  ? SeedTau
                  : Models[0]->timeAt(
                        std::max(Total / static_cast<double>(P), 1.0));
  Hi = std::max(Hi, 1e-9);
  bool Bracketed = false;
  for (int I = 0; I < 200; ++I) {
    if (SumAt(Hi) >= Total) {
      Bracketed = true;
      break;
    }
    Hi *= 2.0;
  }
  Shares.resize(P);
  if (!Bracketed) {
    // Capacity-saturated platform: every device takes all it can hold
    // (callers verified aggregate capacity, so this still covers Total
    // up to rounding).
    for (std::size_t I = 0; I < P; ++I)
      Shares[I] = ShareAt(I, Hi);
    Tau = Hi;
    return true;
  }

  for (int I = 0; I < 100; ++I) {
    double Mid = 0.5 * (Lo + Hi);
    // Mid rounded onto an endpoint: every later step would reassign that
    // endpoint to itself, so Tau and the shares are already final.
    if (Mid == Lo || Mid == Hi)
      break;
    if (SumAt(Mid) < Total)
      Lo = Mid;
    else
      Hi = Mid;
  }
  Tau = 0.5 * (Lo + Hi);
  for (std::size_t I = 0; I < P; ++I)
    Shares[I] = ShareAt(I, Tau);
  return true;
}

/// Newton refinement half of the numerical partitioner: damped Newton on
/// the balance system t_i(x_i) = t_p(x_p), sum x_i = D starting from
/// \p X0. Returns true and fills \p Refined when Newton converged to a
/// sane (finite, non-negative) point; leaves \p Refined alone otherwise.
bool refineNumerical(double D, std::span<Model *const> Models,
                     std::span<const double> Caps, double TimeScale,
                     std::span<const double> X0,
                     std::vector<double> &Refined) {
  std::size_t P = Models.size();

  // Balance system: equal completion times and full coverage, scaled to
  // comparable magnitudes.
  VectorFunction F = [&](std::span<const double> X, std::span<double> R) {
    double TLast = Models[P - 1]->timeAt(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I) {
      double TI = Models[I]->timeAt(std::max(X[I], 0.0));
      R[I] = (TI - TLast) / TimeScale;
    }
    double Sum = 0.0;
    for (double V : X)
      Sum += V;
    R[P - 1] = (Sum - D) / D;
  };
  JacobianFunction J = [&](std::span<const double> X, std::span<double> Jac) {
    std::fill(Jac.begin(), Jac.end(), 0.0);
    double DLast = Models[P - 1]->timeDerivative(std::max(X[P - 1], 0.0));
    for (std::size_t I = 0; I + 1 < P; ++I) {
      Jac[I * P + I] = Models[I]->timeDerivative(std::max(X[I], 0.0)) /
                       TimeScale;
      Jac[I * P + (P - 1)] = -DLast / TimeScale;
    }
    for (std::size_t Col = 0; Col < P; ++Col)
      Jac[(P - 1) * P + Col] = 1.0 / D;
  };

  NewtonOptions Options;
  Options.ResidualTolerance = 1e-10;
  Options.MaxIterations = 200;
  Options.LowerBounds.assign(P, 0.0);
  Options.UpperBounds.resize(P);
  for (std::size_t I = 0; I < P; ++I)
    Options.UpperBounds[I] = shareLimit(Caps[I]);
  NewtonResult Solved = solveNewton(F, X0, Options, J);

  bool Sane = Solved.Converged;
  for (double V : Solved.X)
    Sane = Sane && std::isfinite(V) && V >= 0.0;
  if (Sane)
    Refined = std::move(Solved.X);
  return Sane;
}

/// True when the stored solution in \p Hint provably still describes the
/// cold answer for \p Total over \p Models: same total and every model
/// still at the fit epoch it was solved against (epoch values are
/// process-wide unique, so equality implies the same fit of the same
/// model object).
bool hintStillExact(const PartitionHint &Hint, std::int64_t Total,
                    std::span<Model *const> Models) {
  if (!Hint.Valid || Hint.Total != Total)
    return false;
  std::size_t P = Models.size();
  if (Hint.FitEpochs.size() != P || Hint.Units.size() != P ||
      Hint.PredictedTimes.size() != P)
    return false;
  for (std::size_t I = 0; I < P; ++I)
    if (Models[I]->fitEpoch() != Hint.FitEpochs[I])
      return false;
  return true;
}

/// Reconstructs the distribution stored in a validated hint.
void replayHint(const PartitionHint &Hint, Dist &Out) {
  std::size_t P = Hint.Units.size();
  Out.Total = Hint.Total;
  Out.Parts.assign(P, Part());
  for (std::size_t I = 0; I < P; ++I) {
    Out.Parts[I].Units = Hint.Units[I];
    Out.Parts[I].PredictedTime = Hint.PredictedTimes[I];
  }
}

/// Epochs of every model, captured *before* solving so a concurrent model
/// update during the solve leaves a hint that fails revalidation instead
/// of one that vouches for a half-updated answer.
std::vector<std::uint64_t> snapshotEpochs(std::span<Model *const> Models) {
  std::vector<std::uint64_t> Epochs;
  Epochs.reserve(Models.size());
  for (Model *M : Models)
    Epochs.push_back(M->fitEpoch());
  return Epochs;
}

/// Stores a fresh successful solve into \p Hint.
void recordHint(PartitionHint &Hint, std::int64_t Total,
                std::vector<std::uint64_t> Epochs, const Dist &Out,
                std::span<const double> Shares, double Tau) {
  std::size_t P = Out.Parts.size();
  Hint.Valid = true;
  Hint.Total = Total;
  Hint.FitEpochs = std::move(Epochs);
  Hint.Units.resize(P);
  Hint.PredictedTimes.resize(P);
  for (std::size_t I = 0; I < P; ++I) {
    Hint.Units[I] = Out.Parts[I].Units;
    Hint.PredictedTimes[I] = Out.Parts[I].PredictedTime;
  }
  Hint.Shares.assign(Shares.begin(), Shares.end());
  Hint.Tau = Tau;
}

} // namespace

bool fupermod::partitionConstant(std::int64_t Total,
                                 std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;

  // Constant speeds, probed at the even share (exact for ConstantModel).
  double Probe =
      std::max(static_cast<double>(Total) / static_cast<double>(P), 1.0);
  std::vector<double> Speeds(P);
  double SpeedSum = 0.0;
  for (std::size_t I = 0; I < P; ++I) {
    Speeds[I] = Models[I]->speedAt(Probe);
    SpeedSum += Speeds[I];
  }
  assert(SpeedSum > 0.0 && "no process has positive speed");

  std::vector<double> Shares(P);
  for (std::size_t I = 0; I < P; ++I)
    Shares[I] = static_cast<double>(Total) * Speeds[I] / SpeedSum;
  std::vector<std::int64_t> Units = roundSharesCapped(Shares, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

bool fupermod::partitionGeometric(std::int64_t Total,
                                  std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;

  std::vector<double> Shares;
  double Tau = 0.0;
  if (!solveGeometric(static_cast<double>(Total), Models, Shares, Tau))
    return false;
  std::vector<std::int64_t> Units = roundSharesCapped(Shares, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

bool fupermod::partitionNumerical(std::int64_t Total,
                                  std::span<Model *const> Models, Dist &Out) {
  if (!modelsReady(Models))
    return false;
  std::size_t P = Models.size();
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;
  if (P == 1) {
    Out.Parts[0].Units = Total;
    fillPredictions(Models, Out);
    return true;
  }

  // Initial guess: the geometric solution (always available through the
  // generic sizeForTime search, even on non-monotone splines).
  std::vector<double> Shares;
  double Tau = 0.0;
  if (!solveGeometric(static_cast<double>(Total), Models, Shares, Tau))
    return false;
  double TimeScale = std::max(Tau, 1e-9);
  double D = static_cast<double>(Total);

  // Accept the Newton refinement only when it converged to a sane point;
  // otherwise keep the geometric shares (the paper's algorithms are
  // interchangeable on restricted shapes).
  std::vector<double> Refined;
  bool Sane = refineNumerical(D, Models, Caps, TimeScale, Shares, Refined);
  const std::vector<double> &Final = Sane ? Refined : Shares;

  std::vector<std::int64_t> Units = roundSharesCapped(Final, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  return true;
}

bool fupermod::partitionGeometricWarm(std::int64_t Total,
                                      std::span<Model *const> Models,
                                      Dist &Out, PartitionHint &Hint) {
  if (!modelsReady(Models))
    return false;
  if (hintStillExact(Hint, Total, Models)) {
    replayHint(Hint, Out);
    return true;
  }
  std::size_t P = Models.size();
  std::vector<std::uint64_t> Epochs = snapshotEpochs(Models);
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;

  // The previous makespan brackets the new one within a doubling or two
  // after an incremental model update; with no usable hint this is the
  // cold solve.
  double Seed = Hint.Valid && Hint.Tau > 0.0 ? Hint.Tau : 0.0;
  std::vector<double> Shares;
  double Tau = 0.0;
  if (!solveGeometric(static_cast<double>(Total), Models, Shares, Tau, Seed))
    return false;
  std::vector<std::int64_t> Units = roundSharesCapped(Shares, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  recordHint(Hint, Total, std::move(Epochs), Out, Shares, Tau);
  return true;
}

bool fupermod::partitionNumericalWarm(std::int64_t Total,
                                      std::span<Model *const> Models,
                                      Dist &Out, PartitionHint &Hint) {
  if (!modelsReady(Models))
    return false;
  if (hintStillExact(Hint, Total, Models)) {
    replayHint(Hint, Out);
    return true;
  }
  std::size_t P = Models.size();
  std::vector<std::uint64_t> Epochs = snapshotEpochs(Models);
  Out.Total = Total;
  Out.Parts.assign(P, Part());
  if (Total == 0)
    return true;
  std::vector<double> Caps = feasibleCaps(Models);
  if (!capacitySufficient(Caps, Total))
    return false;
  if (P == 1) {
    Out.Parts[0].Units = Total;
    fillPredictions(Models, Out);
    std::vector<double> Shares = {static_cast<double>(Total)};
    recordHint(Hint, Total, std::move(Epochs), Out, Shares,
               Out.Parts[0].PredictedTime);
    return true;
  }

  double Seed = Hint.Valid && Hint.Tau > 0.0 ? Hint.Tau : 0.0;
  std::vector<double> Shares;
  double Tau = 0.0;
  if (!solveGeometric(static_cast<double>(Total), Models, Shares, Tau, Seed))
    return false;
  double TimeScale = std::max(Tau, 1e-9);
  double D = static_cast<double>(Total);

  // Newton from the previous converged shares when they distribute the
  // same total (typically one or two iterations); if that stalls —
  // feedback moved the balance point out of the old basin — retry the
  // cold initial guess so warm never returns anything the cold path
  // would not.
  bool HaveWarmX0 =
      Hint.Valid && Hint.Total == Total && Hint.Shares.size() == P;
  std::vector<double> Refined;
  bool Sane = refineNumerical(D, Models, Caps, TimeScale,
                              HaveWarmX0 ? std::span<const double>(Hint.Shares)
                                         : std::span<const double>(Shares),
                              Refined);
  if (!Sane && HaveWarmX0)
    Sane = refineNumerical(D, Models, Caps, TimeScale, Shares, Refined);
  const std::vector<double> &Final = Sane ? Refined : Shares;

  std::vector<std::int64_t> Units = roundSharesCapped(Final, Total, Caps);
  for (std::size_t I = 0; I < P; ++I)
    Out.Parts[I].Units = Units[I];
  fillPredictions(Models, Out);
  recordHint(Hint, Total, std::move(Epochs), Out, Final, Tau);
  return true;
}

PartitionerRegistry &fupermod::partitionerRegistry() {
  static PartitionerRegistry R("partitioner");
  return R;
}

WarmPartitionerRegistry &fupermod::warmPartitionerRegistry() {
  static WarmPartitionerRegistry R("warm partitioner");
  return R;
}

namespace {
Registrar<PartitionerRegistry> RegConstant(partitionerRegistry(), "constant",
                                           [] { return partitionConstant; });
Registrar<PartitionerRegistry> RegGeometric(partitionerRegistry(), "geometric",
                                            [] { return partitionGeometric; });
Registrar<PartitionerRegistry> RegNumerical(partitionerRegistry(), "numerical",
                                            [] { return partitionNumerical; });
Registrar<WarmPartitionerRegistry>
    RegGeometricWarm(warmPartitionerRegistry(), "geometric",
                     [] { return WarmPartitioner(partitionGeometricWarm); });
Registrar<WarmPartitionerRegistry>
    RegNumericalWarm(warmPartitionerRegistry(), "numerical",
                     [] { return WarmPartitioner(partitionNumericalWarm); });
} // namespace

Partitioner fupermod::findPartitioner(const std::string &Name,
                                      std::string *Err) {
  return partitionerRegistry().create(Name, Err);
}

WarmPartitioner fupermod::findWarmPartitioner(const std::string &Name,
                                              std::string *Err) {
  if (warmPartitionerRegistry().contains(Name))
    return warmPartitionerRegistry().create(Name, Err);
  // Any other registered algorithm gets the generic epoch-validated memo
  // around its cold implementation: the repeat-partition fast path works
  // for every algorithm, bespoke seeding only where it exists above.
  Partitioner Cold = findPartitioner(Name, Err);
  if (!Cold)
    return WarmPartitioner();
  return [Cold](std::int64_t Total, std::span<Model *const> Models, Dist &Out,
                PartitionHint &Hint) {
    if (modelsReady(Models) && hintStillExact(Hint, Total, Models)) {
      replayHint(Hint, Out);
      return true;
    }
    std::vector<std::uint64_t> Epochs = snapshotEpochs(Models);
    if (!Cold(Total, Models, Out))
      return false;
    recordHint(Hint, Total, std::move(Epochs), Out, {}, 0.0);
    return true;
  };
}
