// Event-driven circuit-switched traffic simulation (the telephone-exchange
// setting of Clos [Cl] that motivates the paper's networks).
//
// Calls arrive as a Poisson process; each call picks a uniformly random
// idle input/output pair and holds an exponential time. A call is *blocked*
// if its terminals are busy-free but the exchange finds no idle path (on a
// strictly nonblocking surviving network this never happens; on damaged or
// blocking networks it measures the grade of service).
//
// The simulation drives a svc::Exchange (the service facade over either
// routing engine), so one simulator serves both the single-threaded greedy
// backend and the sharded concurrent backend. The report's call counters
// are DERIVED from the exchange's counter deltas (svc::ExchangeStats) —
// there is one set of books, kept by the engine; the traffic tests assert
// the derivation's invariants.
//
// Two service planes, selected by TrafficParams::epoch_interval:
//   - 0 (default): the immediate plane on session 0, event by event — the
//     original low-latency simulation, bit-identical to its pre-fault-plane
//     behaviour when no schedule is attached;
//   - > 0: the BATCHED plane across ALL engine sessions — arrivals submit()
//     into the admission queue and every epoch_interval of simulated time a
//     drain_all() routes the backlog across the sessions, so the simulator
//     exercises the same multi-session admission path production traffic
//     takes.
// Either plane accepts a fault::FaultSchedule: its fail / stuck-on /
// repair events are applied at their simulated times through
// Exchange::apply(). Open failures kill calls mid-flight (typed kFaulted)
// and reroute the victims; stuck-on failures weld switches into free
// forced hops (runtime contraction — live calls keep their paths); a
// repair of a stuck switch can sever calls that crossed the weld against
// its direction. The report surfaces all fault-plane counters from the
// same stats delta.
#pragma once

#include <cstdint>

#include "fault/schedule.hpp"
#include "svc/exchange.hpp"

namespace ftcs::core {

struct TrafficParams {
  double arrival_rate = 1.0;   // calls per unit time (aggregate)
  double mean_holding = 1.0;   // mean call duration
  double sim_time = 1000.0;    // simulated time horizon
  std::uint64_t seed = 1;
  /// 0: immediate plane on session 0. > 0: batched plane — arrivals queue
  /// via submit() and drain across all sessions every `epoch_interval` of
  /// simulated time.
  double epoch_interval = 0.0;
  /// Optional runtime fault events (fail/repair switches), applied at their
  /// times while calls are live. Must outlive the simulation call.
  const fault::FaultSchedule* faults = nullptr;
};

struct TrafficReport {
  // Derived from `service` (the exchange's counter delta for this run):
  std::size_t offered = 0;  // routings that found both terminals idle
  std::size_t carried = 0;  // successfully routed
  std::size_t blocked = 0;  // offered - carried: no path, contention, or a
                            // fault victim that could not be rerouted
  // Fault-plane outcome of the run (also derived from `service`):
  std::size_t faults_injected = 0;   // open switch failures applied
  std::size_t stuck_injected = 0;    // stuck-on (closed) failures applied
  std::size_t faults_repaired = 0;   // switch repairs applied (either mode)
  std::size_t killed_by_fault = 0;   // live calls torn down by a fault
  std::size_t reroute_succeeded = 0; // victims reconnected on a detour
  std::size_t reroute_failed = 0;    // victims the degraded topology dropped
  // Simulator-side bookkeeping:
  std::size_t terminal_busy = 0;  // arrivals that met a busy terminal: no
                                  // idle pair at arrival, or (batched) one
                                  // claimed before the request routed
  double mean_active = 0.0;       // time-averaged calls in progress
  double mean_path_length = 0.0;  // vertices per carried call
  /// Exchange counter delta over the run — the authoritative books the
  /// fields above are computed from (one RejectReason spelling throughout).
  svc::ExchangeStats service;

  [[nodiscard]] double blocking_probability() const {
    return offered == 0 ? 0.0 : static_cast<double>(blocked) / static_cast<double>(offered);
  }
};

/// Runs the simulation on an exchange (which carries the network + fault
/// mask + engine backend). Plane selection and fault schedule per
/// TrafficParams above.
[[nodiscard]] TrafficReport simulate_traffic(svc::Exchange& exchange,
                                             const TrafficParams& params);

}  // namespace ftcs::core
