#include "ops/control.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "networks/cantor.hpp"

namespace ftcs::ops {

namespace {

/// Default kGrow planner: double a canonical Cantor exchange. The network
/// name ("cantor-<n>-m<m>") carries the parameters; anything else —
/// including an exchange already grown past its canonical shape — is
/// declined (grow_cantor itself re-validates structurally and throws).
std::optional<graph::Network> plan_cantor_doubling(const svc::Exchange& ex) {
  unsigned n = 0, m = 0;
  if (std::sscanf(ex.network().name.c_str(), "cantor-%u-m%u", &n, &m) != 2)
    return std::nullopt;
  if (n == 0 || (n & (n - 1)) != 0) return std::nullopt;
  networks::CantorParams params;
  params.k = 0;
  for (unsigned t = n; t > 1; t >>= 1) ++params.k;
  params.copies = m;
  return networks::grow_cantor(ex.network(), params);
}

/// Marks `a` kInvalid with the bound a coordinate broke.
void reject_coordinate(Ack& a, const char* what, std::uint64_t value,
                       std::uint64_t bound) {
  a.status = AckStatus::kInvalid;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%s %" PRIu64 " out of range (must be < %" PRIu64 ")", what,
                value, bound);
  a.text = buf;
}

}  // namespace

void ControlPlane::fill_gauges(Ack& a) const {
  if (fed_) {
    a.active_calls = fed_->active_calls();
    a.pending = fed_->pending();
    a.failed_switches = fed_->failed_switch_count();
    a.stuck_switches = fed_->stuck_switch_count();
    a.shorted = fed_->shorted();
    a.trunks = fed_->trunk_gauges();
    a.half_calls = fed_->active_inter_calls();
    return;
  }
  a.active_calls = ex_->active_calls();
  a.pending = ex_->pending();
  a.failed_switches = ex_->failed_switch_count();
  a.stuck_switches = ex_->stuck_switch_count();
  a.shorted = ex_->shorted();
}

Ack ControlPlane::execute(const Command& cmd) {
  Ack a;
  a.kind = cmd.kind;
  switch (cmd.kind) {
    case CommandKind::kInject:
    case CommandKind::kRepair: {
      // Command::arg names the target shard; a single exchange is shard 0.
      const unsigned shards = fed_ ? fed_->shards() : 1;
      if (cmd.arg >= shards) {
        reject_coordinate(a, "shard", cmd.arg, shards);
        break;
      }
      const auto shard = static_cast<unsigned>(cmd.arg);
      svc::Exchange& m = fed_ ? fed_->member(shard) : *ex_;
      const std::size_t switches = m.network().g.edge_count();
      if (cmd.event.edge >= switches) {
        reject_coordinate(a, "switch", cmd.event.edge, switches);
        break;
      }
      if (fed_) {
        // Federated fault op: the ack counts the federation's calls (see
        // Ack): a half the member rerouted in place was never lost.
        const std::size_t down_before = m.failed_switch_count();
        const svc::FedFaultImpact impact =
            cmd.kind == CommandKind::kInject ? fed_->inject(shard, cmd.event)
                                             : fed_->repair(shard, cmd.event);
        if (m.failed_switch_count() == down_before)
          a.status = AckStatus::kNoop;
        a.calls_killed = impact.killed.size();
        a.reroute_succeeded = impact.reroute_succeeded;
        a.reroute_failed = impact.reroute_failed;
        a.alarm = impact.member.alarm;
        break;
      }
      const std::size_t down_before = m.failed_switch_count();
      svc::FaultImpact impact = cmd.kind == CommandKind::kInject
                                    ? m.inject(cmd.event)
                                    : m.repair(cmd.event);
      if (m.failed_switch_count() == down_before)
        a.status = AckStatus::kNoop;  // idempotent: already in that state
      a.calls_killed = impact.calls_killed();
      a.reroute_succeeded = impact.reroute_succeeded;
      a.reroute_failed = impact.reroute_failed;
      a.killed = std::move(impact.killed);
      a.reroutes = std::move(impact.reroutes);
      a.alarm = impact.alarm;
      break;
    }
    case CommandKind::kGrow: {
      if (fed_) {
        a.status = AckStatus::kUnsupported;
        a.text =
            "federated growth is unsupported; members grow through their "
            "own per-exchange control planes";
        break;
      }
      std::optional<graph::Network> grown;
      try {
        grown =
            planner_ ? planner_(*ex_, cmd.arg) : plan_cantor_doubling(*ex_);
      } catch (const std::invalid_argument& e) {
        a.status = AckStatus::kUnsupported;
        a.text = std::string("growth planning failed: ") + e.what();
        break;
      }
      if (!grown) {
        a.status = AckStatus::kUnsupported;
        a.text = "no growth plan for topology '" + ex_->network().name +
                 "' (the default planner doubles canonical Cantor exchanges; "
                 "set_growth_planner for anything else)";
        break;
      }
      a.growth = ex_->grow(std::move(*grown));
      if (!a.growth->applied) {
        a.status = AckStatus::kUnsupported;
        a.text = a.growth->error;
        break;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "grew to %s: +%zu switches, +%zu/+%zu ports, %" PRIu64
                    " calls carried, %" PRIu64 " killed, quiesce %.3f ms",
                    ex_->network().name.c_str(), a.growth->switches_added,
                    a.growth->inputs_added, a.growth->outputs_added,
                    a.growth->calls_carried, a.growth->calls_killed,
                    a.growth->quiesce_seconds * 1e3);
      a.text = buf;
      break;
    }
    case CommandKind::kQuery:
      a.stats = fed_ ? fed_->stats().members : ex_->stats();
      break;
    case CommandKind::kSnapshot:
      if (fed_) {
        a.text = static_cast<SnapshotFormat>(cmd.arg) == SnapshotFormat::kJson
                     ? metrics_.scrape_json(*fed_)
                     : metrics_.scrape_prometheus(*fed_);
      } else {
        a.text = static_cast<SnapshotFormat>(cmd.arg) == SnapshotFormat::kJson
                     ? metrics_.scrape_json(*ex_)
                     : metrics_.scrape_prometheus(*ex_);
      }
      break;
    case CommandKind::kQuiesce:
      if (fed_) {
        a.drained = fed_->drain_all();
        a.stats = fed_->stats().members;
      } else {
        a.drained = ex_->drain_all();
        a.stats = ex_->stats();
      }
      break;
    case CommandKind::kTrunks:
      // Pure read: fill_gauges below supplies the per-group book.
      if (!fed_) {
        a.status = AckStatus::kUnsupported;
        a.text = "trunk commands need a federated control plane";
      }
      break;
    case CommandKind::kTrunkFault:
    case CommandKind::kTrunkRepair: {
      if (!fed_) {
        a.status = AckStatus::kUnsupported;
        a.text = "trunk commands need a federated control plane";
        break;
      }
      if (cmd.arg >= fed_->trunk_group_count()) {
        reject_coordinate(a, "trunk group", cmd.arg,
                          fed_->trunk_group_count());
        break;
      }
      const auto group = static_cast<std::uint32_t>(cmd.arg);
      const std::uint32_t lines = fed_->trunk_group(group).capacity();
      if (cmd.arg2 >= lines) {
        reject_coordinate(a, "trunk line", cmd.arg2, lines);
        break;
      }
      const auto line = static_cast<std::uint32_t>(cmd.arg2);
      const svc::TrunkFaultImpact imp = cmd.kind == CommandKind::kTrunkFault
                                            ? fed_->fail_trunk(group, line)
                                            : fed_->repair_trunk(group, line);
      if (!imp.applied) a.status = AckStatus::kNoop;
      a.calls_killed = imp.killed.size();
      a.reroute_succeeded = imp.reroute_succeeded;
      a.reroute_failed = imp.reroute_failed;
      break;
    }
  }
  fill_gauges(a);
  return a;
}

std::size_t ControlPlane::pump() {
  const std::vector<CommandQueue::Posted> cmds = queue_.take_all();
  for (const CommandQueue::Posted& p : cmds) {
    Ack a = execute(p.cmd);
    a.seq = p.ticket;
    queue_.deliver(p.ticket, std::move(a));
  }
  return cmds.size();
}

}  // namespace ftcs::ops
