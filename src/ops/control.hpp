// ops::ControlPlane — executes the operator command feed against a live
// Exchange, at epoch boundaries, on the thread that serializes it.
//
// Ownership model: the ControlPlane owns the CommandQueue and a
// MetricsRegistry; the Exchange is borrowed and must outlive it. Producers
// grab queue() and post from any thread; the serving thread — the one
// calling drain()/inject() — calls pump() between epochs. pump()
// take_all()s, executes each command in post order, and delivers the typed
// acks. Nothing here adds locks around
// the Exchange: the contract is positional (WHO calls pump), exactly like
// the fault plane's, and the TSan churn test pins it.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "ops/command_queue.hpp"
#include "ops/metrics.hpp"

namespace ftcs::ops {

/// Produces the grown network a kGrow command applies: given the live
/// exchange and the command's arg (planner hint; 0 = planner default),
/// return an append-only extension of ex.network(), or nullopt when no
/// growth is possible for this topology. May throw std::invalid_argument
/// with a reason — the plane turns either into a typed kUnsupported ack, as
/// it does a network Exchange::grow rejects. Runs on the pumping thread
/// on the serving thread, right before Exchange::grow applies it.
using GrowthPlanner = std::function<std::optional<graph::Network>(
    const svc::Exchange&, std::uint64_t arg)>;

class ControlPlane {
 public:
  explicit ControlPlane(svc::Exchange& ex, std::string instance = "exchange")
      : ex_(&ex), metrics_(std::move(instance)) {}
  /// Federated plane: commands execute against the whole federation —
  /// kInject/kRepair target shard Command::arg, kQuery/kQuiesce/kSnapshot
  /// aggregate across members, and the trunk verbs (kTrunks, kTrunkFault,
  /// kTrunkRepair) come alive. The federation must outlive the plane.
  explicit ControlPlane(svc::Federation& fed,
                        std::string instance = "federation")
      : ex_(&fed.member(0)), fed_(&fed), metrics_(std::move(instance)) {}

  /// The operator-facing feed: post() from any thread.
  [[nodiscard]] CommandQueue& queue() noexcept { return queue_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Overrides how kGrow commands plan the grown topology. The default
  /// planner doubles a canonical Cantor exchange (networks::grow_cantor,
  /// recognized by its "cantor-N-MM" network name) and declines anything
  /// else with a typed kUnsupported ack.
  void set_growth_planner(GrowthPlanner planner) {
    planner_ = std::move(planner);
  }

  /// Drains and executes every queued command; returns how many ran.
  /// MUST be called on the thread that serializes the exchange (no other
  /// call, hangup, drain or fault event running).
  std::size_t pump();

 private:
  Ack execute(const Command& cmd);
  /// Cheap health gauges every ack carries.
  void fill_gauges(Ack& a) const;

  svc::Exchange* ex_;
  svc::Federation* fed_ = nullptr;  // set only for the federated ctor
  CommandQueue queue_;
  MetricsRegistry metrics_;
  GrowthPlanner planner_;  // empty -> default Cantor-doubling planner
};

}  // namespace ftcs::ops
