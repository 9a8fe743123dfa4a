// E14 — the §3 invariance arguments, executed.
//
// Substituting an (ε₂, ε₁)-1-network for every switch of an (ε₁, δ)-network
// yields an (ε₂, δ)-network with size a·L and depth b·D. We (a) verify the
// a·L / b·D accounting exactly, (b) validate the gadget's effective fault
// model by fault-injection on the materialized gadget, and (c) demonstrate
// the end-to-end effect: a Beneš that dies at eps = 0.01 survives the same
// eps after substitution with a designed amplifier.
#include <atomic>
#include <numeric>
#include <iostream>

#include "bench_common.hpp"
#include "fault/fault_instance.hpp"
#include "ftcs/monte_carlo.hpp"
#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "networks/benes.hpp"
#include "reliability/reliability_dp.hpp"
#include "reliability/substitution.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

int main() {
  using namespace ftcs;

  bench::banner("E14a (gadget validation)",
                "Designed amplifier vs fault injection on its materialized graph:\n"
                "SP-algebra exact probabilities vs Monte Carlo measurements.");
  {
    util::Table t({"eps", "target eps'", "size a", "depth b", "P(short) exact",
                   "P(short) MC", "P(openfail) exact", "P(openfail) MC"});
    const std::size_t mc = bench::scaled(300000);
    for (double eps : {0.05, 0.02}) {
      for (double target : {1e-3, 1e-5}) {
        const auto d = reliability::design_amplifier(eps, target);
        const auto net = d.sp.to_network();
        const auto model = fault::FaultModel::symmetric(eps);
        // Short: terminals contract through closed switches.
        const double short_mc =
            reliability::short_probability_monte_carlo(net, model, mc, 3);
        // Open failure: no conducting path (normal or closed edges conduct).
        std::atomic<std::size_t> openfail{0};
        const std::size_t of_trials = bench::scaled(200000);
        util::parallel_for(0, of_trials, [&](std::size_t trial) {
          util::Xoshiro256 rng(util::derive_seed(9, trial));
          // Sample per-edge conduction: conducts unless open-failed.
          std::vector<std::uint8_t> blocked_edges(net.g.edge_count(), 0);
          for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e)
            if (rng.bernoulli(model.eps_open)) blocked_edges[e] = 1;
          std::vector<std::uint8_t> target_mask(net.g.vertex_count(), 0);
          target_mask[net.outputs[0]] = 1;
          const graph::VertexId src[1] = {net.inputs[0]};
          if (!graph::shortest_path(net.g, src, target_mask, {}, blocked_edges))
            openfail.fetch_add(1, std::memory_order_relaxed);
        });
        t.add(eps, target, d.size(), d.depth(), d.p_short, short_mc,
              d.p_fail_open,
              static_cast<double>(openfail.load()) / static_cast<double>(of_trials));
      }
    }
    t.print(std::cout);
  }

  bench::banner("E14b (substitution accounting + end-to-end)",
                "Substituted Benes: size = a*L, depth = b*D exactly; survival at\n"
                "eps before vs after substitution (effective eps' << eps).");
  {
    const networks::Benes host(3);  // n = 8, L = 96, D = 6
    const double eps = 0.01;
    const auto gadget = reliability::design_amplifier(eps, 1e-6);
    const auto report = reliability::substitute_with_amplifier(host.network(), gadget);

    util::Table t({"quantity", "host", "gadget", "substituted", "a*L / b*D"});
    t.add("size", report.host_size, report.gadget_size,
          report.substituted.g.edge_count(), report.gadget_size * report.host_size);
    t.add("depth", graph::network_depth(host.network()), report.gadget_depth,
          graph::network_depth(report.substituted),
          report.gadget_depth * graph::network_depth(host.network()));
    t.print(std::cout);

    // Faithful simulation of the substituted network: every host switch is
    // a gadget (super-switch); sample all of each gadget's raw switches and
    // compile the outcome to a host-level state (the §3 equivalence).
    const std::size_t trials = bench::scaled(300);
    const auto model = fault::FaultModel::symmetric(eps);
    std::atomic<std::size_t> host_ok{0}, sub_ok{0};
    const std::size_t host_edges = host.network().g.edge_count();
    util::parallel_for(0, trials, [&](std::size_t trial) {
      if (core::baseline_survival_trial(host.network(), model, 4,
                                        util::derive_seed(77, trial)))
        host_ok.fetch_add(1, std::memory_order_relaxed);
      util::Xoshiro256 rng(util::derive_seed(78, trial));
      std::vector<fault::Failure> failures;
      for (graph::EdgeId e = 0; e < host_edges; ++e) {
        const auto sample = gadget.sp.sample_super_switch(model, rng);
        const auto state = sample.as_state();
        if (state != fault::SwitchState::kNormal)
          failures.push_back({e, state});
      }
      fault::FaultInstance inst(host.network(), std::move(failures));
      bool ok = !inst.terminals_shorted();
      if (ok) {
        util::Xoshiro256 prng(util::derive_seed(79, trial));
        std::vector<std::uint32_t> ins(8), outs(8);
        std::iota(ins.begin(), ins.end(), 0u);
        std::iota(outs.begin(), outs.end(), 0u);
        util::shuffle(ins, prng);
        util::shuffle(outs, prng);
        core::GreedyRouter router(host.network());
        const auto faulty = inst.faulty_non_terminal_mask();
        for (graph::VertexId v = 0; v < faulty.size(); ++v)
          if (faulty[v]) router.kill_vertex(v);
        for (const fault::Failure& f : inst.failures()) router.fail_edge(f.edge);
        for (int i = 0; i < 4 && ok; ++i)
          ok = router.connect(ins[i], outs[i]) != core::GreedyRouter::kNoCall;
      }
      if (ok) sub_ok.fetch_add(1, std::memory_order_relaxed);
    });
    std::cout << "\nsurvival at eps=" << eps << ": host Benes = "
              << static_cast<double>(host_ok.load()) / trials
              << ", substituted (super-switch simulation) = "
              << static_cast<double>(sub_ok.load()) / trials
              << "\n(effective per-super-switch model: eps_open="
              << report.effective.eps_open
              << ", eps_closed=" << report.effective.eps_closed << ")\n";
    std::cout << "\nShape check: substitution converts a failure-prone network into a\n"
                 "reliable one at a fixed multiplicative size/depth cost — the §3\n"
                 "argument that the exact eps value never matters asymptotically.\n";
  }
  return 0;
}
