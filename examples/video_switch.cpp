// Video switching with metallic-contact relays — the paper's §1 note that
// open/closed failures are "the two dominant failure modes ... especially
// for video switching".
//
//   $ ./video_switch
//
// Scenario: a broadcast facility routes any of 16 cameras to any of 16
// monitors through a svc::Exchange. Relays fail open (oxidized contact) 3x
// more often than closed (welded contact) — an asymmetric model, exercising
// the library's separate ε₁/ε₂ support. We sweep the facility's age and
// compare a plain crossbar against 𝒩̂, including the operationally distinct
// failure modes: "dead route" (open path impossible) vs "crosstalk" (two
// feeds shorted — catastrophic on air). Dead routes are tallied per typed
// RejectReason, using the service layer's shared spelling.
#include <cmath>
#include <iostream>
#include <map>

#include "fault/fault_instance.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/monte_carlo.hpp"
#include "networks/crossbar.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcs;

struct Tally {
  std::size_t dead = 0, crosstalk = 0;
  std::map<svc::RejectReason, std::size_t> by_reason;
};

// One aged facility instance: route a random camera to a random monitor
// through an Exchange with the instance's failures injected.
void probe(const graph::Network& net, const fault::FaultModel& model,
           std::uint64_t fault_seed, std::uint64_t route_seed, Tally& tally) {
  fault::FaultInstance inst(net, model, fault_seed);
  if (inst.terminals_shorted()) ++tally.crosstalk;
  svc::Exchange exchange(net);
  for (const fault::Failure& f : inst.failures())
    exchange.inject({0.0, f.edge, fault::FaultEvent::Kind::kFail});
  util::Xoshiro256 rng(route_seed);
  const auto cam = static_cast<std::uint32_t>(rng.below(16));
  const auto mon = static_cast<std::uint32_t>(rng.below(16));
  const svc::Outcome out = exchange.call({cam, mon});
  if (!out.connected()) {
    ++tally.dead;
    ++tally.by_reason[out.reject];
  }
}

std::string reason_breakdown(const Tally& t) {
  std::string s;
  for (const auto& [reason, count] : t.by_reason) {
    if (!s.empty()) s += ", ";
    s += std::string(svc::to_string(reason)) + ": " + std::to_string(count);
  }
  return s.empty() ? "none" : s;
}

}  // namespace

int main() {
  const auto crossbar = networks::build_crossbar(16);
  const auto ft = core::build_ft_network(core::FtParams::sim(2, 8, 6, 1, 21));

  std::cout << "== video switch reliability (asymmetric relay failures) ==\n"
            << "16x16 router; open:closed failure ratio 3:1\n"
            << "crossbar: " << crossbar.g.edge_count()
            << " relays, ftcs-nhat: " << ft.net.g.edge_count() << " relays\n\n";

  util::Table t({"eps_open", "eps_closed", "xbar dead-route", "xbar crosstalk",
                 "nhat dead-route", "nhat crosstalk"});
  const std::size_t trials = 300;
  Tally xbar_total, ft_total;
  for (double base : {1e-4, 1e-3, 4e-3, 1e-2}) {
    const fault::FaultModel model{3 * base, base};
    Tally xbar, nhat;
    for (std::uint64_t s = 0; s < trials; ++s) {
      probe(crossbar, model, util::derive_seed(1, s), util::derive_seed(2, s),
            xbar);
      probe(ft.net, model, util::derive_seed(3, s), util::derive_seed(4, s),
            nhat);
    }
    const double n = static_cast<double>(trials);
    t.add(3 * base, base, xbar.dead / n, xbar.crosstalk / n, nhat.dead / n,
          nhat.crosstalk / n);
    for (const auto& [reason, count] : xbar.by_reason)
      xbar_total.by_reason[reason] += count;
    for (const auto& [reason, count] : nhat.by_reason)
      ft_total.by_reason[reason] += count;
  }
  t.print(std::cout);
  std::cout << "\nDead-route causes (typed RejectReason, all sweeps):\n"
            << "  crossbar:  " << reason_breakdown(xbar_total) << "\n"
            << "  ftcs-nhat: " << reason_breakdown(ft_total) << "\n";
  std::cout << "\nReading: on the crossbar every relay is a single point of failure\n"
               "for its camera/monitor pair (dead-route tracks 3*eps directly),\n"
               "and a welded relay crosstalks two feeds. N-hat routes around open\n"
               "failures and needs a long welded chain to crosstalk — both curves\n"
               "stay at ~0 through the sweep, at ~60x the relay budget of the\n"
               "crossbar at this size (the Theta(n log^2 n) premium shrinks\n"
               "relative to n^2 as n grows).\n";
  return 0;
}
