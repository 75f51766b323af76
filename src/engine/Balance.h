//===-- engine/Balance.h - Shared dynamic-balancing driver ------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-side driver of the apps' dynamic load-balancing loops. The
/// iterative applications (Jacobi, the stencil) used to each re-implement
/// the same pieces around DynamicContext:
///
///  - the imbalance-threshold test (allreduce the iteration times, only
///    rebalance when (max - min) / max clears the threshold),
///  - the balanceIterate call feeding the measured iteration into the
///    partial models.
///
/// BalancedLoop factors those out; the data itself moves through the
/// dist layer (redistributeIfChanged over a dist::PartitionedVector). The
/// collective sequence (allreduce order, message order, payload sizes) is
/// exactly the apps' historical one, so virtual-time traces are
/// bit-identical to the pre-engine code.
///
//===----------------------------------------------------------------------===//

#ifndef FUPERMOD_ENGINE_BALANCE_H
#define FUPERMOD_ENGINE_BALANCE_H

#include "core/Dynamic.h"

#include <cstdint>
#include <string>

namespace fupermod {

class Comm;

namespace equalize {
class Equalizer;
} // namespace equalize

namespace engine {

/// Per-iteration balancing policy of an application loop.
struct BalancePolicy {
  /// Master switch: disabled loops never rebalance (static distribution).
  bool Enabled = true;
  /// Rebalance only when the relative imbalance of the measured
  /// iteration times, (max - min) / max, exceeds this (0 = every
  /// iteration).
  double RebalanceThreshold = 0.0;
  /// Also allreduce a device-failure flag with the threshold test; a
  /// failure anywhere overrides the threshold (the dead rank's share
  /// must move regardless of measured imbalance).
  bool TrackFailures = false;
};

/// One application's balancing state: the dynamic context (partial
/// models + current distribution) plus the threshold-gated rebalance
/// step. Each SPMD rank owns one (replicated) instance.
class BalancedLoop {
public:
  /// \p Algorithm must be non-null (obtain it via
  /// Session::makeBalancedLoop, which pre-validates the name).
  BalancedLoop(Partitioner Algorithm, const std::string &ModelKind,
               std::int64_t Total, int NumProcs,
               double StalenessDecay = 1.0);

  DynamicContext &context() { return Ctx; }
  const DynamicContext &context() const { return Ctx; }

  /// Current distribution.
  const Dist &dist() const { return Ctx.dist(); }

  /// The per-iteration balance step, collective on \p C: snapshots the
  /// iteration duration since \p IterStart, applies the threshold test
  /// (with the exact allreduce sequence of the historical apps), and
  /// when warranted feeds the duration into balanceIterate. Returns true
  /// when the balancer ran. Bumps distEpoch() when the run actually
  /// moved units between ranks.
  bool balance(Comm &C, double IterStart, const BalancePolicy &Policy,
               bool DeviceFailed = false);

  /// The equalization-subsystem variant of balance(), collective on \p C:
  /// gathers every rank's iteration duration and failure flag in one
  /// allgather, feeds them to the replicated \p Eq policy
  /// (equalize::Equalizer decides *whether* this round warrants a solve),
  /// and on a trigger repartitions — then lets the policy's approve()
  /// step veto adoption (cost arbitration). A vetoed solve keeps the
  /// measurements in the partial models but restores the previous
  /// distribution, so the running data layout never moves for a
  /// non-amortizing rebalance. A device failure anywhere forces both the
  /// solve and adoption. Bumps distEpoch() only on adopted repartitions
  /// that moved units. Returns true when a solve ran (adopted or
  /// vetoed). Every rank must pass an identically configured policy
  /// instance; only rank 0 publishes the policy's statistics deltas into
  /// the world counters (Comm::accumulateCounter, "equalize.*" keys).
  bool balanceEqualized(Comm &C, double IterStart, equalize::Equalizer &Eq,
                        bool DeviceFailed = false);

  /// Distribution epoch: starts at zero and increments every time
  /// balance() changes the per-rank unit counts (threshold-suppressed or
  /// no-op balancer runs do not count). Data structures synchronised to
  /// an older epoch must redistribute.
  std::uint64_t distEpoch() const { return DistEpoch; }

  /// Migrates \p V (a dist::PartitionedVector or anything exposing
  /// syncedEpoch()/setSyncedEpoch()/redistribute(const Dist &)) to the
  /// current distribution iff it is synced to an older epoch — so data
  /// moves exactly when a repartition changed unit counts and never
  /// otherwise. Collective when it fires; call it at the same loop point
  /// on every rank. Returns true when a redistribution ran.
  template <typename Container> bool redistributeIfChanged(Container &V) {
    if (V.syncedEpoch() == DistEpoch)
      return false;
    V.redistribute(Ctx.dist());
    V.setSyncedEpoch(DistEpoch);
    return true;
  }

private:
  DynamicContext Ctx;
  std::uint64_t DistEpoch = 0;
};

} // namespace engine
} // namespace fupermod

#endif // FUPERMOD_ENGINE_BALANCE_H
