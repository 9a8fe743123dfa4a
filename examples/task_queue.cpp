// Parallel task-queue scheduling over a superconcentrator — the Cole [Co]
// motivation the paper cites for superconcentrators in parallel computing.
//
//   $ ./task_queue [rounds]
//
// Scenario: P processors pull work items from a shared queue through an
// interconnect. Each round, a random subset of r processors goes idle and
// must be matched to r pending tasks — exactly the superconcentrator
// property: ANY r inputs can reach ANY r outputs along vertex-disjoint
// paths. We run the workload over (a) a linear-size superconcentrator and
// (b) a butterfly of the same terminal count (NOT a superconcentrator),
// counting rounds where the full matching exists, with and without faults.
//
// Each round is also SERVED, not just verified: the scheduler's chosen
// processor->task pairing is submitted as a batch to an svc::Exchange and
// drained in admission epochs ("svc carried" column). Matching existence is a maxflow fact about SOME
// pairing; the exchange must realize ONE SPECIFIC pairing greedily, so its
// carried fraction lower-bounds the matching column.
#include <cstdlib>
#include <iostream>
#include <numeric>

#include "fault/fault_instance.hpp"
#include "graph/maxflow.hpp"
#include "networks/butterfly.hpp"
#include "networks/superconcentrator.hpp"
#include "svc/exchange.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcs;

struct RoundResult {
  bool matching_ok = false;  // maxflow: some disjoint matching exists
  std::size_t carried = 0;   // calls the exchange actually served
};

// One scheduling round: r idle processors (inputs), r pending task slots
// (outputs). The maxflow check asks whether ANY disjoint matching exists;
// the exchange then serves the scheduler's specific pairing as one batch.
// With `faults`, both see the instance's damage: the maxflow avoids its
// faulty vertices, and the exchange has every failed switch injected.
RoundResult run_round(const graph::Network& net, std::size_t r,
                      util::Xoshiro256& rng,
                      const fault::FaultInstance* faults) {
  const std::size_t n_in = net.inputs.size(), n_out = net.outputs.size();
  std::vector<std::uint32_t> in_idx(n_in), out_idx(n_out);
  std::iota(in_idx.begin(), in_idx.end(), 0u);
  std::iota(out_idx.begin(), out_idx.end(), 0u);
  util::shuffle(in_idx, rng);
  util::shuffle(out_idx, rng);
  in_idx.resize(r);
  out_idx.resize(r);

  RoundResult result;
  std::vector<graph::VertexId> ins, outs;
  ins.reserve(r);
  outs.reserve(r);
  for (std::size_t i = 0; i < r; ++i) {
    ins.push_back(net.inputs[in_idx[i]]);
    outs.push_back(net.outputs[out_idx[i]]);
  }
  const std::size_t flow =
      faults ? graph::max_vertex_disjoint_paths(
                   net.g, ins, outs, faults->faulty_non_terminal_mask())
             : graph::max_vertex_disjoint_paths(net.g, ins, outs);
  result.matching_ok = flow == r;

  // Serve the pairing: batch-submit, drain in admission epochs of 8.
  svc::ExchangeConfig cfg;
  cfg.window = 8;
  svc::Exchange exchange(net, std::move(cfg));
  if (faults)
    for (const fault::Failure& f : faults->failures())
      exchange.inject({0.0, f.edge, fault::FaultEvent::Kind::kFail});
  std::vector<svc::Ticket> tickets;
  tickets.reserve(r);
  for (std::size_t i = 0; i < r; ++i)
    tickets.push_back(exchange.submit({in_idx[i], out_idx[i]}));
  exchange.drain_all();
  for (const svc::Ticket t : tickets) {
    const auto outcome = exchange.poll(t);
    if (outcome && outcome->connected()) ++result.carried;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 200;
  const std::uint32_t p = 32;  // processors

  networks::SuperconcentratorParams sp;
  sp.n = p;
  sp.degree = 6;
  sp.base_size = 8;
  sp.seed = 11;
  const auto sc = networks::build_superconcentrator(sp);
  const auto bf = networks::build_butterfly(5);  // 32 terminals

  std::cout << "== task-queue scheduling over an interconnect ==\n"
            << p << " processors; superconcentrator: " << sc.g.edge_count()
            << " switches (linear!), butterfly: " << bf.g.edge_count()
            << " switches\n\n";

  util::Table t({"network", "faults", "batch size r", "matching ok", "rounds",
                 "svc carried"});
  util::Xoshiro256 rng(3);
  for (const auto* entry : {&sc, &bf}) {
    for (double eps : {0.0, 0.002}) {
      fault::FaultInstance inst(*entry, fault::FaultModel::symmetric(eps), 9);
      for (std::size_t r : {4u, 16u, 32u}) {
        int ok = 0;
        std::size_t carried = 0;
        for (int round = 0; round < rounds; ++round) {
          const auto res =
              run_round(*entry, r, rng, eps > 0 ? &inst : nullptr);
          if (res.matching_ok) ++ok;
          carried += res.carried;
        }
        const double carried_frac =
            static_cast<double>(carried) /
            static_cast<double>(static_cast<std::size_t>(rounds) * r);
        t.add(entry->name, eps, r, ok, rounds, carried_frac);
      }
    }
  }
  t.print(std::cout);
  std::cout
      << "\nReading: the superconcentrator admits EVERY batch (its defining\n"
         "property, at 1/5th the butterfly's asymptotic cost growth) and\n"
         "tolerates sparse faults on most rounds; the butterfly misses\n"
         "batches even fault-free — it simply is not a superconcentrator.\n"
         "'svc carried' is the fraction of calls the exchange served\n"
         "greedily for the specific pairing: existence of a matching\n"
         "(maxflow, any pairing) upper-bounds what greedy circuit service\n"
         "of one pairing can carry.\n";
  return 0;
}
