#include "fault/fault_model.hpp"

#include <algorithm>

namespace ftcs::fault {

void sample_failures_into(const FaultModel& model, std::size_t edge_count,
                          std::uint64_t seed, std::vector<Failure>& out) {
  model.validate();
  out.clear();
  const double p = model.total();
  if (p <= 0.0 || edge_count == 0) return;
  util::Xoshiro256 rng(seed);
  // Geometric skipping: the index of the next failed edge advances by a
  // Geometric(p) gap; conditioned on failure, it is closed with probability
  // eps_closed / p.
  const double closed_given_fail = model.eps_closed / p;
  std::uint64_t index = rng.geometric(p);
  while (index < edge_count) {
    const SwitchState s = rng.bernoulli(closed_given_fail)
                              ? SwitchState::kClosedFail
                              : SwitchState::kOpenFail;
    out.push_back({static_cast<std::uint32_t>(index), s});
    // Capped so a saturated gap (geometric's 2^64 - 1) cannot wrap.
    index += 1 + std::min<std::uint64_t>(rng.geometric(p), edge_count);
  }
}

std::vector<Failure> sample_failures(const FaultModel& model,
                                     std::size_t edge_count,
                                     std::uint64_t seed) {
  std::vector<Failure> out;
  sample_failures_into(model, edge_count, seed, out);
  return out;
}

void sample_states_into(const FaultModel& model, std::size_t edge_count,
                        std::uint64_t seed, std::vector<SwitchState>& out) {
  out.assign(edge_count, SwitchState::kNormal);
  std::vector<Failure> failures;
  sample_failures_into(model, edge_count, seed, failures);
  for (const Failure& f : failures) out[f.edge] = f.state;
}

std::vector<SwitchState> sample_states(const FaultModel& model,
                                       std::size_t edge_count,
                                       std::uint64_t seed) {
  std::vector<SwitchState> out;
  sample_states_into(model, edge_count, seed, out);
  return out;
}

}  // namespace ftcs::fault
