#include "ftcs/traffic.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/prng.hpp"

namespace ftcs::core {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

// One event loop, four event streams merged by simulated time: arrivals,
// departures, fault-schedule events, and (batched plane only) admission
// epochs. Calls are tracked by a unique tag, not by handle, because the
// fault plane can swap a call's handle mid-flight (kill + reroute) or
// remove it entirely; departures look the tag up when they fire. With no
// schedule and epoch_interval == 0 the loop reduces to the original
// immediate-plane simulation, RNG draw for RNG draw.
TrafficReport simulate_traffic(svc::Exchange& exchange,
                               const TrafficParams& p) {
  util::Xoshiro256 rng(p.seed);
  TrafficReport report;
  const svc::ExchangeStats before = exchange.stats();
  const bool batched = p.epoch_interval > 0.0;

  struct Departure {
    double time;
    std::uint64_t tag;
    bool operator>(const Departure& other) const { return time > other.time; }
  };
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  // tag -> live handle; absent once the call departed or died unrerouted.
  std::unordered_map<std::uint64_t, svc::CallId> live;
  std::uint64_t next_tag = 1;

  // Batched plane: completions land in one bucket, in commit order (drain()
  // fires every callback on this thread, as do refusals before submit
  // returns).
  std::vector<svc::Outcome> bucket;
  const auto on_done = [&bucket](const svc::Outcome& o) {
    bucket.push_back(o);
  };
  // Schedules departures for drained outcomes in commit order: deterministic
  // given the router's outcomes.
  const auto settle_bucket = [&](double now) {
    for (const svc::Outcome& o : bucket) {
      if (!o.connected()) continue;
      live.emplace(o.tag, o.id);
      departures.push({now + rng.exponential(1.0 / p.mean_holding), o.tag});
    }
    bucket.clear();
  };
  // Every epoch settles its bucket before it returns, so a victim this run
  // admitted is always in `live`; a victim that is not predates the run.
  const auto settle_impact = [&](const svc::FaultImpact& impact) {
    for (std::size_t i = 0; i < impact.killed.size(); ++i) {
      const auto it = live.find(impact.killed[i].tag);
      if (it == live.end()) continue;
      const svc::Outcome& re = impact.reroutes[i];
      if (re.connected())
        it->second = re.id;  // same tag, same departure time, new path
      else
        live.erase(it);  // the degraded topology dropped the call
    }
  };

  static const std::vector<fault::FaultEvent> kNoEvents;
  const auto& fault_events = p.faults ? p.faults->events() : kNoEvents;
  std::size_t fault_idx = 0;
  while (fault_idx < fault_events.size() &&
         fault_events[fault_idx].time >= p.sim_time)
    ++fault_idx;  // schedule may outrun the horizon

  double now = 0.0;
  double next_arrival = rng.exponential(p.arrival_rate);
  double next_epoch = batched ? p.epoch_interval : kNever;
  double active_integral = 0.0;
  double last_event = 0.0;
  const std::size_t base_active = exchange.active_calls();

  auto advance = [&](double t) {
    // Signed: a fault event can kill calls that PREDATE this simulation,
    // pushing active_calls() below the baseline.
    const auto excess = static_cast<std::ptrdiff_t>(exchange.active_calls()) -
                        static_cast<std::ptrdiff_t>(base_active);
    active_integral += static_cast<double>(excess) * (t - last_event);
    last_event = t;
  };

  for (;;) {
    const double ta = next_arrival < p.sim_time ? next_arrival : kNever;
    const double td = departures.empty() ? kNever : departures.top().time;
    const double tf = fault_idx < fault_events.size() &&
                              fault_events[fault_idx].time < p.sim_time
                          ? fault_events[fault_idx].time
                          : kNever;
    const bool backlog = batched && (ta != kNever || exchange.pending() > 0);
    const double te = backlog ? next_epoch : kNever;
    const double t = std::min(std::min(ta, td), std::min(tf, te));
    if (t == kNever) break;

    if (t == tf) {
      // Fault event. inject()/repair() route each victim's reroute
      // directly and drain nothing, so no carried outcome waits in the
      // bucket.
      now = t;
      advance(now);
      settle_impact(exchange.apply(fault_events[fault_idx]));
      ++fault_idx;
    } else if (t == td && t <= ta) {  // departures win ties against arrivals
      const auto dep = departures.top();
      departures.pop();
      now = dep.time;
      advance(now);
      const auto it = live.find(dep.tag);
      if (it != live.end()) {  // absent: killed by a fault, never rerouted
        exchange.hangup(it->second);
        live.erase(it);
      }
    } else if (t == ta) {
      now = next_arrival;
      advance(now);
      next_arrival = now + rng.exponential(p.arrival_rate);

      // Uniform random idle terminal pair (rejection sampling, bounded).
      // On the batched plane idleness is a best-effort check: queued
      // requests may claim the pair first, and the router's verdict rules.
      std::uint32_t in = 0, out = 0;
      bool found = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        in = static_cast<std::uint32_t>(rng.below(exchange.input_count()));
        out = static_cast<std::uint32_t>(rng.below(exchange.output_count()));
        if (exchange.input_idle(in) && exchange.output_idle(out)) {
          found = true;
          break;
        }
      }
      if (!found) {
        ++report.terminal_busy;
        continue;
      }
      const std::uint64_t tag = next_tag++;
      if (batched) {
        exchange.submit({in, out, 0, tag}, on_done);
      } else {
        const svc::Outcome outcome = exchange.call({in, out, 0, tag});
        if (!outcome.connected()) continue;  // counted via the stats delta
        live.emplace(tag, outcome.id);
        departures.push({now + rng.exponential(1.0 / p.mean_holding), tag});
      }
    } else {
      // Admission epoch: route the backlog. The timer
      // freezes while there is no backlog, so on resume an overdue boundary
      // fires at the CURRENT time and re-anchors — simulated time never
      // moves backwards.
      now = std::max(now, next_epoch);
      next_epoch += p.epoch_interval;
      if (next_epoch <= now) next_epoch = now + p.epoch_interval;
      advance(now);
      exchange.drain_all();
      settle_bucket(now);
    }
  }
  advance(std::max(now, p.sim_time));

  // One set of books: every call counter is the exchange's delta over the
  // run. A batched request whose terminal an earlier request of its epoch
  // claimed first met a busy terminal, not a blocked network: it counts in
  // terminal_busy, not offered. blocked covers the rest of the rejections
  // — no-path, and victims the fault plane could not reroute;
  // a killed-then-rerouted call counts as carried twice, once per settled
  // path, matching the switching work done.
  svc::ExchangeStats service = exchange.stats();
  service -= before;
  report.service = service;
  report.terminal_busy += service.router.rejected_terminal;
  report.offered =
      service.router.connect_calls - service.router.rejected_terminal;
  report.carried = service.router.accepted;
  report.blocked = report.offered - report.carried;
  report.faults_injected = service.faults_injected;
  report.stuck_injected = service.faults_stuck;
  report.faults_repaired = service.faults_repaired;
  report.killed_by_fault = service.calls_killed_by_fault;
  report.reroute_succeeded = service.reroute_succeeded;
  report.reroute_failed = service.reroute_failed;
  report.mean_active = last_event > 0 ? active_integral / last_event : 0.0;
  report.mean_path_length =
      report.carried ? static_cast<double>(service.router.path_vertices) /
                           static_cast<double>(report.carried)
                     : 0.0;
  return report;
}

}  // namespace ftcs::core
