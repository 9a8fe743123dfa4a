// ftcs_inspect: build any network in the library from the command line,
// print its vital statistics, optionally inject faults and export to DOT
// or the ftcs text format.
//
//   ftcs_inspect <network> [options]
//     networks: crossbar:N benes:K clos:N butterfly:K multibutterfly:K
//               cantor:K superconcentrator:N recursive-nb:LEVELS
//               nhat-sim:NU nhat-paper:NU
//   options:
//     --eps E        inject symmetric faults at rate E (seeded)
//     --seed S       RNG seed (default 1)
//     --dot FILE     write Graphviz DOT
//     --save FILE    write ftcs text format
//     --churn N      run N churn operations and report blocking
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fault/fault_instance.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "networks/benes.hpp"
#include "networks/butterfly.hpp"
#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "networks/multibutterfly.hpp"
#include "networks/pippenger_recursive.hpp"
#include "networks/superconcentrator.hpp"
#include "reliability/rare_event.hpp"

namespace {

using namespace ftcs;

graph::Network build_by_name(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::uint32_t arg =
      colon == std::string::npos
          ? 8
          : static_cast<std::uint32_t>(std::stoul(spec.substr(colon + 1)));
  if (kind == "crossbar") return networks::build_crossbar(arg);
  if (kind == "benes") return networks::Benes(arg).network();
  if (kind == "clos") return networks::build_clos(networks::clos_nonblocking_for(arg));
  if (kind == "butterfly") return networks::build_butterfly(arg);
  if (kind == "multibutterfly")
    return networks::build_multibutterfly({arg, 2, seed});
  if (kind == "cantor") return networks::build_cantor({arg, 0});
  if (kind == "superconcentrator") {
    networks::SuperconcentratorParams p;
    p.n = arg;
    p.seed = seed;
    return networks::build_superconcentrator(p);
  }
  if (kind == "recursive-nb") {
    networks::RecursiveNonblockingParams p;
    p.levels = arg;
    p.width_mult = 8;
    p.degree = 6;
    p.seed = seed;
    return networks::build_recursive_nonblocking(p);
  }
  if (kind == "nhat-sim")
    return core::build_ft_network(core::FtParams::sim(arg, 8, 6, 1, seed)).net;
  if (kind == "nhat-paper")
    return core::build_ft_network(core::FtParams::paper(arg, seed)).net;
  throw std::invalid_argument("unknown network kind: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cout << "usage: ftcs_inspect <network[:param]> [--eps E] [--seed S] "
                 "[--dot FILE] [--save FILE] [--churn N]\n"
                 "networks: crossbar benes clos butterfly multibutterfly cantor\n"
                 "          superconcentrator recursive-nb nhat-sim nhat-paper\n";
    return 2;
  }
  std::uint64_t seed = 1;
  double eps = 0.0;
  std::string dot_file, save_file;
  std::size_t churn_ops = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--eps") eps = std::stod(next());
    else if (flag == "--seed") seed = std::stoull(next());
    else if (flag == "--dot") dot_file = next();
    else if (flag == "--save") save_file = next();
    else if (flag == "--churn") churn_ops = std::stoul(next());
    else {
      std::cerr << "unknown option " << flag << "\n";
      return 2;
    }
  }

  graph::Network net;
  try {
    net = build_by_name(argv[1], seed);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "name:      " << net.name << "\n"
            << "terminals: " << net.inputs.size() << " in / "
            << net.outputs.size() << " out\n"
            << "links:     " << net.g.vertex_count() << "\n"
            << "switches:  " << net.g.edge_count() << "\n"
            << "depth:     " << graph::network_depth(net) << "\n"
            << "valid:     " << (net.validate().empty() ? "yes" : net.validate())
            << "\n";
  const auto dom = reliability::dominant_short_term(net);
  std::cout << "min terminal chain: " << dom.min_length << " switches ("
            << dom.chain_count << " chains)\n";

  std::vector<std::uint8_t> blocked;
  if (eps > 0) {
    fault::FaultInstance inst(net, fault::FaultModel::symmetric(eps), seed);
    std::cout << "faults @ eps=" << eps << ": " << inst.open_count()
              << " open, " << inst.closed_count() << " closed; shorted="
              << (inst.terminals_shorted() ? "YES" : "no") << "\n";
    blocked = inst.faulty_non_terminal_mask();
  }

  if (churn_ops > 0) {
    const auto result = core::nonblocking_churn(net, churn_ops, seed, blocked);
    std::cout << "churn: " << result.connects << " connects, "
              << result.failures << " blocked, max concurrent "
              << result.max_concurrent << "\n";
  }
  if (!dot_file.empty()) {
    std::ofstream os(dot_file);
    graph::write_dot(os, net);
    std::cout << "wrote " << dot_file << "\n";
  }
  if (!save_file.empty()) {
    std::ofstream os(save_file);
    graph::write_network(os, net);
    std::cout << "wrote " << save_file << "\n";
  }
  return 0;
}
