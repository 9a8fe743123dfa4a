// Quickstart: build the fault-tolerant network 𝒩̂, break it, repair it,
// and route calls through the survivor.
//
//   $ ./quickstart [nu] [eps]
//
// Walks through the library's core loop:
//   1. construct 𝒩̂ for n = 4^ν terminals (sim profile);
//   2. sample a random fault instance at switch failure rate ε;
//   3. check the §6 criterion (no shorts + center-stage majority access);
//   4. repair by discarding faulty internal vertices;
//   5. greedily route a full random permutation through the survivor.
#include <cstdlib>
#include <iostream>
#include <numeric>

#include "fault/fault_instance.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/majority_access.hpp"
#include "ftcs/monte_carlo.hpp"
#include "ftcs/verify.hpp"
#include "util/prng.hpp"

int main(int argc, char** argv) {
  using namespace ftcs;
  const std::uint32_t nu = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 2;
  const double eps = argc > 2 ? std::atof(argv[2]) : 1e-3;

  std::cout << "== ftcs quickstart ==\n";
  const auto params = core::FtParams::sim(nu, 8, 6, 1, 42);
  const auto ft = core::build_ft_network(params);
  std::cout << "built " << ft.net.name << ": n = " << ft.n()
            << " terminals, " << ft.net.g.vertex_count() << " links, "
            << ft.net.size() << " switches, depth " << params.predicted_depth()
            << "\n";

  fault::FaultInstance instance(ft.net, fault::FaultModel::symmetric(eps), 7);
  std::cout << "injected faults at eps = " << eps << ": "
            << instance.open_count() << " open, " << instance.closed_count()
            << " closed (" << instance.faulty_vertex_count()
            << " links touched)\n";

  const auto trial = core::theorem2_trial(ft, fault::FaultModel::symmetric(eps), 7);
  std::cout << "Theorem-2 criterion: no_short=" << trial.no_short
            << " majority_fwd=" << trial.majority_fwd
            << " majority_bwd=" << trial.majority_bwd
            << " => contains nonblocking network: "
            << (trial.success() ? "YES" : "NO") << "\n";
  if (!trial.success()) {
    std::cout << "instance unlucky at this eps; try a smaller one\n";
    return 1;
  }

  // Route a full random permutation over the damaged network, avoiding the
  // discarded (faulty) vertices — one greedy path search per call, per the
  // paper's §4 remark (any idle path will do).
  const auto faulty = instance.faulty_non_terminal_mask();
  util::Xoshiro256 rng(3);
  std::vector<std::uint32_t> perm(ft.n());
  std::iota(perm.begin(), perm.end(), 0u);
  util::shuffle(perm, rng);
  const auto paths = core::route_permutation_greedy(
      ft.net, perm, 50, 1, std::vector<std::uint8_t>(faulty.begin(), faulty.end()));
  if (!paths) {
    std::cout << "routing failed (should not happen when the criterion holds)\n";
    return 1;
  }
  std::cout << "routed all " << ft.n() << " calls; validation: "
            << (core::validate_routing(ft.net, perm, *paths).empty() ? "ok" : "BROKEN")
            << "\n";
  std::size_t total = 0;
  for (const auto& p : *paths) total += p.size() - 1;
  std::cout << "mean path length " << static_cast<double>(total) / ft.n()
            << " switches (depth bound " << params.predicted_depth() << ")\n";
  return 0;
}
