// Runtime fault schedule: a deterministic, seeded event stream of switch
// fail/repair events, derived from the same FaultModel the offline Monte
// Carlo path samples.
//
// The offline path draws one cumulative outcome per trial (sample_states);
// the live fault plane needs the TIMELINE instead: each switch fails as a
// Poisson process with the model's total hazard interpreted per unit time,
// stays down for an exponential time-to-repair, then becomes failable
// again (an alternating renewal process per switch). Each failure carries
// the model's §2 failure MODE: open (the switch goes dead — routed around)
// with probability eps_open/total, or closed/stuck-on (the contact welds
// conducting — the live analogue of contraction) with probability
// eps_closed/total. Events are generated with geometric skipping over the
// edge set — a schedule costs O(#affected switches), not O(#switches), so
// the paper's eps = 1e-6 on million-switch networks stays cheap — and are
// merged into one stream sorted by time, deterministic given the seed.
//
// Cost: generation is O(events), and so is the sort: a stable distribution
// sort over one equal-width time bucket per event, with an insertion sort
// inside each bucket; a bucket holding more than a few dozen events falls
// back to std::stable_sort, so the worst case stays O(n log n). The stream
// is ordered by (time, edge); one switch's events that tie exactly in time
// (a zero-length repair) keep their renewal order, failure before repair.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_model.hpp"
#include "graph/types.hpp"

namespace ftcs::fault {

/// One runtime fault-plane event: switch `edge` fails (open), welds shut
/// (stuck-on) or is repaired at `time`. Consumed by
/// svc::Exchange::inject()/repair() (or apply()).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFail = 0,     // open failure: the switch is unusable
    kRepair = 1,   // the switch returns to normal (from either failure)
    kStuckOn = 2,  // closed failure: permanently conducting (contraction)
  };
  double time = 0.0;
  graph::EdgeId edge = 0;
  Kind kind = Kind::kFail;
};

/// True for the two failure kinds (a switch is "down" — in a failed state —
/// until the matching kRepair).
[[nodiscard]] constexpr bool is_failure(FaultEvent::Kind k) noexcept {
  return k != FaultEvent::Kind::kRepair;
}

class FaultSchedule {
 public:
  struct Params {
    double failure_rate = 0.0;  // per-switch failures per unit time
    double mean_repair = 0.0;   // mean time-to-repair; <= 0: never repaired
    double horizon = 0.0;       // events generated in [0, horizon)
    /// Probability a failure is closed (stuck-on) rather than open. 0 keeps
    /// the stream bit-identical to the pre-stuck-on generator.
    double stuck_fraction = 0.0;
    std::uint64_t seed = 1;
  };

  FaultSchedule() = default;
  /// Generates the stream for `edge_count` switches. Deterministic given
  /// `params.seed`; independent of evaluation order. Throws
  /// std::invalid_argument for a failure_rate that is negative, NaN or
  /// infinite; a horizon that is negative or NaN, or infinite while
  /// switches are repaired (the stream would never end); a NaN or infinite
  /// mean_repair; and a stuck_fraction outside [0, 1].
  FaultSchedule(std::size_t edge_count, const Params& params);

  /// Convenience: interprets `model.total()` as the per-unit-time hazard —
  /// the live counterpart of sampling one outcome at probability eps — and
  /// the model's eps_open/eps_closed mix as the failure-mode split.
  [[nodiscard]] static FaultSchedule from_model(const FaultModel& model,
                                                std::size_t edge_count,
                                                double horizon,
                                                double mean_repair,
                                                std::uint64_t seed);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  /// Failures of either kind (open + stuck-on).
  [[nodiscard]] std::size_t fail_count() const noexcept { return fails_; }
  /// The stuck-on subset of fail_count().
  [[nodiscard]] std::size_t stuck_count() const noexcept { return stuck_; }
  [[nodiscard]] std::size_t repair_count() const noexcept {
    return events_.size() - fails_;
  }

 private:
  std::vector<FaultEvent> events_;  // sorted by (time, edge)
  std::size_t fails_ = 0;
  std::size_t stuck_ = 0;
};

}  // namespace ftcs::fault
