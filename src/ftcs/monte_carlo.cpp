#include "ftcs/monte_carlo.hpp"

#include <numeric>

#include "fault/fault_instance.hpp"
#include "ftcs/majority_access.hpp"
#include "ftcs/router.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace ftcs::core {

util::Proportion estimate_probability(
    std::size_t trials, const std::function<bool(std::size_t)>& trial) {
  util::Proportion p;
  p.trials = trials;
  p.successes = util::parallel_count(trials, trial);
  return p;
}

namespace {

// Routes up to `count` random calls greedily over non-faulty vertices, then
// checks center-stage majority access with those paths busy (Lemma 6's
// "given any set of vertex-disjoint paths", sampled).
bool busy_probe(const FtNetwork& ft, const std::vector<std::uint8_t>& faulty,
                std::size_t count, std::uint64_t seed) {
  Router router(ft.net);
  for (graph::VertexId v = 0; v < faulty.size(); ++v)
    if (faulty[v]) router.kill_vertex(v);
  util::Xoshiro256 rng(seed);
  for (std::size_t c = 0; c < count; ++c) {
    const auto in = static_cast<std::uint32_t>(rng.below(ft.net.inputs.size()));
    const auto out = static_cast<std::uint32_t>(rng.below(ft.net.outputs.size()));
    if (!router.input_idle(in) || !router.output_idle(out)) continue;
    (void)router.connect(in, out);  // a failed connect leaves state unchanged
  }
  const auto busy = router.busy_mask();
  return ft_majority_access(ft, faulty, busy).majority();
}

}  // namespace

Theorem2TrialResult theorem2_trial(const FtNetwork& ft,
                                   const fault::FaultModel& model,
                                   std::uint64_t seed,
                                   const Theorem2TrialOptions& opts) {
  Theorem2TrialResult result;
  fault::FaultInstance instance(ft.net, model, seed);
  // Paper semantics: only non-terminal vertices are ever "faulty"; an
  // input's failed switches are excluded through their discarded internal
  // endpoints (N-hat has no terminal-terminal edges).
  const auto faulty = instance.faulty_non_terminal_mask();

  result.no_short = !instance.terminals_shorted();
  if (!result.no_short) return result;

  const auto access = ft_majority_access(ft, faulty);
  result.majority_fwd = access.forward.majority;
  if (!result.majority_fwd) return result;
  result.majority_bwd = access.backward.majority;
  if (!result.majority_bwd) return result;

  result.busy_probes_ok = true;
  for (std::size_t probe = 0; probe < opts.busy_probes; ++probe) {
    if (!busy_probe(ft, faulty, opts.busy_paths_per_probe,
                    util::derive_seed(seed, 0xB051 + probe))) {
      result.busy_probes_ok = false;
      break;
    }
  }
  return result;
}

util::Proportion theorem2_success_probability(const FtNetwork& ft,
                                              const fault::FaultModel& model,
                                              std::size_t trials,
                                              std::uint64_t seed,
                                              const Theorem2TrialOptions& opts) {
  return estimate_probability(trials, [&](std::size_t t) {
    return theorem2_trial(ft, model, util::derive_seed(seed, t), opts).success();
  });
}

bool baseline_survival_trial(const graph::Network& net,
                             const fault::FaultModel& model,
                             std::size_t probe_pairs, std::uint64_t seed) {
  fault::FaultInstance instance(net, model, seed);
  if (instance.terminals_shorted()) return false;
  const auto faulty = instance.faulty_non_terminal_mask();

  // Random partial permutation probe routed greedily around faults.
  util::Xoshiro256 rng(util::derive_seed(seed, 0xBA5E));
  const std::size_t n = std::min(net.inputs.size(), net.outputs.size());
  const std::size_t pairs = std::min(probe_pairs, n);
  std::vector<std::uint32_t> ins(net.inputs.size()), outs(net.outputs.size());
  std::iota(ins.begin(), ins.end(), 0u);
  std::iota(outs.begin(), outs.end(), 0u);
  util::shuffle(ins, rng);
  util::shuffle(outs, rng);

  Router router(net);
  for (graph::VertexId v = 0; v < faulty.size(); ++v)
    if (faulty[v]) router.kill_vertex(v);
  for (const fault::Failure& f : instance.failures()) router.fail_edge(f.edge);
  for (std::size_t i = 0; i < pairs; ++i) {
    if (router.connect(ins[i], outs[i]) == Router::kNoCall) return false;
  }
  return true;
}

}  // namespace ftcs::core
