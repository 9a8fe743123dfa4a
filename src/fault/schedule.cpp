#include "fault/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace ftcs::fault {

namespace {

/// Buckets holding more events than this are sorted by std::stable_sort,
/// so a crowded bucket costs O(m log m) rather than an insertion sort's
/// O(m^2).
constexpr std::size_t kInsertionMax = 32;

bool earlier(const FaultEvent& a, const FaultEvent& b) noexcept {
  return a.time < b.time;
}

/// Stable sort by time alone of events whose times lie in [0, t_max]: one
/// bucket per event over equal-width buckets, a counting pass, a stable
/// scatter, then an insertion sort inside each bucket. The bucket index is
/// monotone in time, so the result equals std::stable_sort by time.
void sort_by_time(std::vector<FaultEvent>& events, double t_max) {
  const std::size_t n = events.size();
  const double scale = static_cast<double>(n) / t_max;
  if (n < 2 || !std::isfinite(scale)) {  // t_max == 0: every time ties
    std::stable_sort(events.begin(), events.end(), earlier);
    return;
  }
  const auto bucket = [&](double t) {
    return std::min(static_cast<std::size_t>(t * scale), n - 1);
  };
  // end[b] counts bucket b's events, then (prefix sums) marks where it
  // starts; the scatter advances it to where bucket b ends.
  std::vector<std::size_t> end(n, 0);
  for (const FaultEvent& ev : events) ++end[bucket(ev.time)];
  std::size_t at = 0;
  for (std::size_t& e : end) at += std::exchange(e, at);
  std::vector<FaultEvent> sorted(n);
  for (const FaultEvent& ev : events) sorted[end[bucket(ev.time)]++] = ev;
  FaultEvent* first = sorted.data();
  for (const std::size_t e : end) {
    FaultEvent* const last = sorted.data() + e;
    if (static_cast<std::size_t>(last - first) > kInsertionMax) {
      std::stable_sort(first, last, earlier);
    } else {
      for (FaultEvent* i = first + 1; i < last; ++i) {
        const FaultEvent ev = *i;
        FaultEvent* j = i;
        for (; j > first && ev.time < (j - 1)->time; --j) *j = *(j - 1);
        *j = ev;
      }
    }
    first = last;
  }
  events.swap(sorted);
}

}  // namespace

FaultSchedule::FaultSchedule(std::size_t edge_count, const Params& params) {
  if (!(params.failure_rate >= 0.0) || !std::isfinite(params.failure_rate))
    throw std::invalid_argument(
        "FaultSchedule: failure_rate must be finite and >= 0");
  if (!(params.horizon >= 0.0))
    throw std::invalid_argument("FaultSchedule: horizon must be >= 0");
  if (!std::isfinite(params.mean_repair))
    throw std::invalid_argument("FaultSchedule: mean_repair must be finite");
  if (params.mean_repair > 0.0 && !std::isfinite(params.horizon))
    throw std::invalid_argument(
        "FaultSchedule: an infinite horizon needs permanent faults "
        "(mean_repair <= 0)");
  if (!(params.stuck_fraction >= 0.0 && params.stuck_fraction <= 1.0))
    throw std::invalid_argument(
        "FaultSchedule: stuck_fraction must lie in [0, 1]");
  if (params.failure_rate == 0.0 || params.horizon == 0.0 || edge_count == 0)
    return;

  // Probability a switch's FIRST failure lands inside the horizon; edges
  // with no event are skipped geometrically (sample_failures idiom), so the
  // cost is O(#affected switches).
  const double p_hit = -std::expm1(-params.failure_rate * params.horizon);
  // Expected events: two per fail/repair cycle of mean length
  // 1/rate + mean_repair, or one permanent failure per hit switch. The
  // reserve adds about three standard deviations of slack.
  const bool repairs = params.mean_repair > 0.0;
  const double expected =
      static_cast<double>(edge_count) *
      (repairs ? 2.0 * params.failure_rate * params.horizon /
                     (1.0 + params.failure_rate * params.mean_repair)
               : p_hit);
  events_.reserve(static_cast<std::size_t>(std::min(
      expected + 4.0 * std::sqrt(expected) + 16.0,
      static_cast<double>(repairs ? events_.max_size() : edge_count))));

  util::Xoshiro256 skip_rng(params.seed);
  double t_max = 0.0;
  // The gap is capped so a saturated one (geometric's 2^64 - 1) cannot wrap.
  const auto gap = [&] {
    return std::min<std::uint64_t>(skip_rng.geometric(p_hit), edge_count);
  };
  for (std::uint64_t e = gap(); e < edge_count; e += 1 + gap()) {
    // Per-edge substream: the edge's timeline does not depend on how many
    // other edges were hit before it.
    util::Xoshiro256 rng(util::derive_seed(params.seed, e));
    // First failure conditioned on < horizon: inverse-CDF of the truncated
    // exponential.
    double t = -std::log1p(-rng.uniform() * p_hit) / params.failure_rate;
    const auto edge = static_cast<graph::EdgeId>(e);
    while (t < params.horizon) {
      // Failure mode per §2: open with prob 1 - stuck_fraction, closed
      // (stuck-on) otherwise. The draw is skipped entirely at fraction 0,
      // keeping pre-stuck-on streams bit-identical.
      const bool stuck = params.stuck_fraction > 0.0 &&
                         rng.uniform() < params.stuck_fraction;
      events_.push_back({t, edge,
                         stuck ? FaultEvent::Kind::kStuckOn
                               : FaultEvent::Kind::kFail});
      ++fails_;
      stuck_ += stuck ? 1 : 0;
      t_max = std::max(t_max, t);
      if (!repairs) break;  // permanent fault
      t += rng.exponential(1.0 / params.mean_repair);
      if (t >= params.horizon) break;
      events_.push_back({t, edge, FaultEvent::Kind::kRepair});
      t_max = std::max(t_max, t);
      t += rng.exponential(params.failure_rate);  // next failure, unconditioned
    }
  }
  // Events were generated edge-major, in renewal order per edge, so a
  // stable sort by time alone orders them by (time, edge) and keeps one
  // edge's exact time ties (a zero-duration repair or zero inter-failure
  // gap) in renewal order, which no kind-based tie-break can get right in
  // both directions: the per-edge failure/repair alternation survives ties.
  sort_by_time(events_, t_max);
}

FaultSchedule FaultSchedule::from_model(const FaultModel& model,
                                        std::size_t edge_count, double horizon,
                                        double mean_repair,
                                        std::uint64_t seed) {
  model.validate();
  Params p;
  p.failure_rate = model.total();
  p.mean_repair = mean_repair;
  p.horizon = horizon;
  p.stuck_fraction = p.failure_rate > 0 ? model.eps_closed / p.failure_rate : 0;
  p.seed = seed;
  return FaultSchedule(edge_count, p);
}

}  // namespace ftcs::fault
