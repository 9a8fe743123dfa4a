// Thread-safe MPSC operator command feed with typed acks.
//
// The fault plane and the batched drain share one threading contract: one
// thread at a time serializes the exchange. An operator (a REPL, a CI script,
// a soak harness) lives on some OTHER thread. CommandQueue is the bridge:
// any number of producers post() typed commands from anywhere; the single
// consumer — the thread that serializes the Exchange — take_all()s them
// at an epoch boundary, executes them against the Exchange (see
// ops/control.hpp), and deliver()s a typed Ack per command. Producers
// observe results by ticket: try_ack() polls, wait() blocks on the condvar.
//
// Acks are take-once (like Exchange::poll): the first try_ack/wait to see a
// ticket's Ack consumes it. Tickets are process-unique per queue, never 0.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/schedule.hpp"
#include "fault/weld_components.hpp"
#include "svc/exchange.hpp"
#include "svc/trunk.hpp"

namespace ftcs::ops {

enum class CommandKind : std::uint8_t {
  kInject,    // apply Command::event (kFail or kStuckOn) via Exchange::inject
  kRepair,    // apply Command::event via Exchange::repair
  kGrow,      // hitless growth: plan via the plane's GrowthPlanner, apply
              // through Exchange::grow; the ack carries the GrowthReport
  kQuery,     // health probe: stats + fault/short/queue gauges
  kSnapshot,  // metrics scrape: Prometheus or JSON text in the ack
  kQuiesce,   // drain_all() the batched queue
  // Federation-only verbs (acked kUnsupported on a single-exchange plane):
  kTrunks,       // per-trunk-group occupancy/health book in the ack
  kTrunkFault,   // fail trunk line arg2 of group arg (edge fault)
  kTrunkRepair,  // restore trunk line arg2 of group arg
};

[[nodiscard]] constexpr const char* to_string(CommandKind k) noexcept {
  switch (k) {
    case CommandKind::kInject: return "inject";
    case CommandKind::kRepair: return "repair";
    case CommandKind::kGrow: return "grow";
    case CommandKind::kQuery: return "query";
    case CommandKind::kSnapshot: return "snapshot";
    case CommandKind::kQuiesce: return "quiesce";
    case CommandKind::kTrunks: return "trunks";
    case CommandKind::kTrunkFault: return "trunk_fault";
    case CommandKind::kTrunkRepair: return "trunk_repair";
  }
  return "unknown";
}

enum class SnapshotFormat : std::uint64_t { kPrometheus = 0, kJson = 1 };

struct Command {
  CommandKind kind = CommandKind::kQuery;
  /// kInject/kRepair payload. event.time is informational here — the
  /// operator IS the schedule.
  fault::FaultEvent event{};
  /// kGrow: planner hint (0 = planner default, i.e. double the exchange).
  /// kSnapshot: SnapshotFormat.
  /// kTrunkFault/kTrunkRepair: trunk group id. kInject/kRepair: target
  /// shard (a single exchange is shard 0). The plane acks kInvalid to a
  /// shard, switch id, group or line out of range.
  std::uint64_t arg = 0;
  /// kTrunkFault/kTrunkRepair: line index within group `arg`.
  std::uint64_t arg2 = 0;
};

enum class AckStatus : std::uint8_t {
  kOk,
  kNoop,         // idempotent fault op found the switch already in state
  kUnsupported,  // the plane cannot run this verb here (trunk verbs on a
                 // single exchange, growth without a plan, federated growth)
  kInvalid,      // a coordinate is out of range (shard, switch id, trunk
                 // group or line); `text` names the bound, nothing ran
};

/// One typed ack per command, delivered at the epoch boundary that executed
/// it. Fields beyond `kind`/`status`/`seq` are populated per kind.
struct Ack {
  CommandKind kind = CommandKind::kQuery;
  AckStatus status = AckStatus::kOk;
  std::uint64_t seq = 0;  // the command's ticket
  // kInject / kRepair: the full FaultImpact, so the operator learns which
  // calls died (typed kFaulted outcomes) and where the victims landed —
  // reroutes[i] answers killed[i], and a connected reroute's id is the NEW
  // live handle (the operator now owns it, hangup-wise). Every fault ack
  // keeps calls_killed == reroute_succeeded + reroute_failed. On a
  // federated plane the three counters are the federation's (member faults
  // and trunk verbs alike) and the outcome lists stay empty: a member's
  // handles are not the operator's to hang up.
  std::size_t calls_killed = 0;
  std::uint64_t reroute_succeeded = 0;
  std::uint64_t reroute_failed = 0;
  std::vector<svc::Outcome> killed;
  std::vector<svc::Outcome> reroutes;
  std::optional<fault::ShortAlarm> alarm;  // set iff this event flipped
                                           // the Lemma 7 state
  // kQuery / kQuiesce (and filled for fault ops too — cheap gauges):
  std::size_t active_calls = 0;
  std::size_t pending = 0;
  std::size_t failed_switches = 0;
  std::size_t stuck_switches = 0;
  bool shorted = false;
  // kQuery / kQuiesce:
  svc::ExchangeStats stats{};
  std::size_t drained = 0;  // kQuiesce: requests the final drain admitted
  // Federated planes fill these on every ack (kTrunks exists to fetch them
  // without side effects): the per-group trunk book and the committed
  // inter-exchange call gauge. Empty/zero on a single-exchange plane.
  std::vector<svc::TrunkGauge> trunks;
  std::size_t half_calls = 0;
  // kGrow: the applied (or rejected) growth — switches/ports added, calls
  // carried, calls killed (always 0), quiesce wall time.
  std::optional<svc::GrowthReport> growth;
  // kSnapshot (serialized metrics), kGrow (human-readable summary or
  // rejection reason) and kInvalid / kUnsupported acks (why):
  std::string text;
};

using CmdTicket = std::uint64_t;

class CommandQueue {
 public:
  struct Posted {
    Command cmd;
    CmdTicket ticket = 0;
  };

  /// Producer side: enqueue a command from any thread.
  CmdTicket post(const Command& cmd);
  /// Producer side: non-blocking ack poll (take-once).
  [[nodiscard]] std::optional<Ack> try_ack(CmdTicket ticket);
  /// Producer side: block until the consumer delivers `ticket`'s ack.
  [[nodiscard]] Ack wait(CmdTicket ticket);
  /// Commands currently queued (not yet taken by the consumer).
  [[nodiscard]] std::size_t depth() const;

  /// Consumer side (the thread that serializes the Exchange): take every
  /// queued command, in post order.
  [[nodiscard]] std::vector<Posted> take_all();
  /// Consumer side: publish `ticket`'s ack and wake waiters.
  void deliver(CmdTicket ticket, Ack ack);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Posted> queue_;
  std::unordered_map<CmdTicket, Ack> acks_;
  CmdTicket next_ = 1;
};

}  // namespace ftcs::ops
