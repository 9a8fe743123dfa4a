// Property-based suites: invariants swept over construction parameters,
// seeds, and network families with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "fault/fault_instance.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/router.hpp"
#include "ftcs/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/transform.hpp"
#include "networks/benes.hpp"
#include "networks/butterfly.hpp"
#include "networks/cantor.hpp"
#include "networks/clos.hpp"
#include "networks/crossbar.hpp"
#include "networks/multibutterfly.hpp"
#include "networks/superconcentrator.hpp"
#include "util/prng.hpp"

namespace ftcs {
namespace {

// ---------------------------------------------------------------------
// P1: structural invariants common to every construction in the library.

struct NamedBuilder {
  std::string name;
  graph::Network (*build)();
};

const NamedBuilder kBuilders[] = {
    {"crossbar8", [] { return networks::build_crossbar(8); }},
    {"benes8", [] { return networks::Benes(3).network(); }},
    {"butterfly8", [] { return networks::build_butterfly(3); }},
    {"multibutterfly8", [] { return networks::build_multibutterfly({3, 2, 1}); }},
    {"clos12", [] { return networks::build_clos({3, 5, 4}); }},
    {"cantor8", [] { return networks::build_cantor({3, 0}); }},
    {"superconcentrator16",
     [] {
       networks::SuperconcentratorParams p;
       p.n = 16;
       return networks::build_superconcentrator(p);
     }},
    {"nhat_sim",
     [] {
       return core::build_ft_network(core::FtParams::sim(2, 4, 6, 1, 3)).net;
     }},
};

class AllNetworks : public ::testing::TestWithParam<NamedBuilder> {};

TEST_P(AllNetworks, StructuralInvariants) {
  const auto net = GetParam().build();
  EXPECT_EQ(net.validate(), "") << GetParam().name;
  EXPECT_TRUE(graph::is_dag(net.g)) << GetParam().name;
  EXPECT_FALSE(net.inputs.empty());
  EXPECT_FALSE(net.outputs.empty());
  // Terminals are sources/sinks in every construction here.
  for (graph::VertexId v : net.inputs) EXPECT_EQ(net.g.in_degree(v), 0u);
  for (graph::VertexId v : net.outputs) EXPECT_EQ(net.g.out_degree(v), 0u);
}

TEST_P(AllNetworks, EveryTerminalTouchesAnEdge) {
  const auto net = GetParam().build();
  for (graph::VertexId v : net.inputs) EXPECT_GT(net.g.out_degree(v), 0u);
  for (graph::VertexId v : net.outputs) EXPECT_GT(net.g.in_degree(v), 0u);
}

TEST_P(AllNetworks, RouterLifecycleInvariant) {
  // connect/disconnect churn must restore a pristine busy mask.
  const auto net = GetParam().build();
  core::Router router(net);
  util::Xoshiro256 rng(5);
  std::vector<core::Router::CallId> calls;
  for (int op = 0; op < 200; ++op) {
    if (calls.empty() || rng.bernoulli(0.6)) {
      const auto in = static_cast<std::uint32_t>(rng.below(net.inputs.size()));
      const auto out = static_cast<std::uint32_t>(rng.below(net.outputs.size()));
      if (!router.input_idle(in) || !router.output_idle(out)) continue;
      const auto c = router.connect(in, out);
      if (c != core::Router::kNoCall) calls.push_back(c);
    } else {
      const auto pick = rng.below(calls.size());
      router.disconnect(calls[pick]);
      calls[pick] = calls.back();
      calls.pop_back();
    }
  }
  for (auto c : calls) router.disconnect(c);
  EXPECT_EQ(router.active_calls(), 0u);
  EXPECT_EQ(router.busy_vertices(), 0u);
  for (auto b : router.busy_mask()) EXPECT_EQ(b, 0);
}

TEST_P(AllNetworks, MirrorPreservesCounts) {
  const auto net = GetParam().build();
  const auto m = graph::mirror(net);
  EXPECT_EQ(m.g.edge_count(), net.g.edge_count());
  EXPECT_EQ(m.inputs.size(), net.outputs.size());
  EXPECT_EQ(graph::network_depth(m), graph::network_depth(net));
}

TEST_P(AllNetworks, FaultInstanceCountsConsistent) {
  const auto net = GetParam().build();
  fault::FaultInstance inst(net, fault::FaultModel{0.03, 0.02}, 11);
  EXPECT_EQ(inst.open_count() + inst.closed_count(), inst.failures().size());
  // Every failure's endpoints are marked faulty.
  for (const auto& f : inst.failures()) {
    EXPECT_TRUE(inst.is_faulty(net.g.edge(f.edge).from));
    EXPECT_TRUE(inst.is_faulty(net.g.edge(f.edge).to));
  }
  // Non-terminal mask is dominated by the raw mask.
  const auto masked = inst.faulty_non_terminal_mask();
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v)
    EXPECT_LE(masked[v], inst.faulty_vertices()[v]);
}

INSTANTIATE_TEST_SUITE_P(Networks, AllNetworks, ::testing::ValuesIn(kBuilders),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// P2: FT-network invariants over a parameter grid.

struct FtConfig {
  std::uint32_t nu, width, degree, gamma;
};

class FtGrid : public ::testing::TestWithParam<FtConfig> {};

TEST_P(FtGrid, PredictionsAndStructureHold) {
  const auto [nu, width, degree, gamma] = GetParam();
  const auto params = core::FtParams::sim(nu, width, degree, gamma, 7);
  const auto ft = core::build_ft_network(params);
  EXPECT_EQ(ft.net.g.edge_count(), params.predicted_edges());
  EXPECT_EQ(ft.net.g.vertex_count(), params.predicted_vertices());
  EXPECT_EQ(graph::network_depth(ft.net), 4u * nu);
  EXPECT_EQ(ft.net.validate(), "");
  EXPECT_EQ(ft.center_stage.size(), params.stage_width());
  // Every input reaches the full center stage when fault-free.
  const graph::VertexId src[1] = {ft.net.inputs[0]};
  const auto dist = graph::bfs_directed(ft.net.g, src);
  for (graph::VertexId v : ft.center_stage)
    ASSERT_NE(dist[v], graph::kUnreachable);
}

TEST_P(FtGrid, CleanChurnNeverBlocks) {
  const auto [nu, width, degree, gamma] = GetParam();
  const auto ft =
      core::build_ft_network(core::FtParams::sim(nu, width, degree, gamma, 9));
  const auto churn = core::nonblocking_churn(ft.net, 400, 3);
  EXPECT_EQ(churn.failures, 0u) << "nu=" << nu << " width=" << width;
}

INSTANTIATE_TEST_SUITE_P(Profiles, FtGrid,
                         ::testing::Values(FtConfig{1, 4, 6, 0},
                                           FtConfig{1, 8, 6, 1},
                                           FtConfig{2, 4, 6, 1},
                                           FtConfig{2, 4, 8, 0},
                                           FtConfig{3, 4, 6, 0},
                                           FtConfig{2, 8, 10, 1}),
                         [](const auto& info) {
                           const auto& c = info.param;
                           return "nu" + std::to_string(c.nu) + "w" +
                                  std::to_string(c.width) + "d" +
                                  std::to_string(c.degree) + "g" +
                                  std::to_string(c.gamma);
                         });

// ---------------------------------------------------------------------
// P3: Beneš looping algorithm, exhaustively for n = 8 over all 40320
// permutations (the full rearrangeability certificate at this size).

TEST(BenesExhaustive, AllPermutationsOfEight) {
  const networks::Benes b(3);
  std::vector<std::uint32_t> perm(8);
  std::iota(perm.begin(), perm.end(), 0u);
  std::size_t count = 0;
  std::vector<int> used(b.network().g.vertex_count());
  do {
    const auto paths = b.route(perm);
    std::fill(used.begin(), used.end(), 0);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_EQ(paths[i].front(), b.network().inputs[i]);
      ASSERT_EQ(paths[i].back(), b.network().outputs[perm[i]]);
      for (auto v : paths[i]) {
        ASSERT_EQ(used[v], 0) << "collision in permutation #" << count;
        used[v] = 1;
      }
    }
    ++count;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(count, 40320u);
}

// ---------------------------------------------------------------------
// P4: fault sampling statistics across models (chi-square-ish bounds).

class FaultModels : public ::testing::TestWithParam<fault::FaultModel> {};

TEST_P(FaultModels, EmpiricalRatesWithinFourSigma) {
  const auto model = GetParam();
  const std::size_t edges = 50000;
  std::size_t opens = 0, closes = 0;
  const int reps = 10;
  for (int r = 0; r < reps; ++r) {
    for (const auto& f : fault::sample_failures(model, edges, 100 + r)) {
      if (f.state == fault::SwitchState::kOpenFail) ++opens;
      else ++closes;
    }
  }
  const double n = static_cast<double>(edges) * reps;
  const double sd_open = std::sqrt(n * model.eps_open * (1 - model.eps_open));
  const double sd_closed =
      std::sqrt(n * model.eps_closed * (1 - model.eps_closed));
  EXPECT_NEAR(static_cast<double>(opens), n * model.eps_open, 4 * sd_open + 1);
  EXPECT_NEAR(static_cast<double>(closes), n * model.eps_closed,
              4 * sd_closed + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Models, FaultModels,
    ::testing::Values(fault::FaultModel{0.001, 0.001}, fault::FaultModel{0.01, 0.0},
                      fault::FaultModel{0.0, 0.01}, fault::FaultModel{0.05, 0.01},
                      fault::FaultModel{0.2, 0.1}),
    [](const auto& info) {
      // Built by append rather than operator+ chaining: GCC 12's inliner
      // flags the rvalue operator+ chain with a spurious -Wrestrict.
      std::string name = "o";
      name += std::to_string(static_cast<int>(info.param.eps_open * 1000));
      name += "c";
      name += std::to_string(static_cast<int>(info.param.eps_closed * 1000));
      return name;
    });

// ---------------------------------------------------------------------
// P5: strictly nonblocking families never fail churn; blocking families do.

struct ChurnCase {
  std::string name;
  graph::Network (*build)();
  bool strictly_nonblocking;
};

const ChurnCase kChurnCases[] = {
    {"crossbar", [] { return networks::build_crossbar(8); }, true},
    {"clos_m2k1", [] { return networks::build_clos({2, 3, 4}); }, true},
    {"cantor", [] { return networks::build_cantor({3, 0}); }, true},
    {"nhat", [] { return core::build_ft_network(core::FtParams::sim(2, 4, 6, 1, 5)).net; },
     true},
    {"benes", [] { return networks::Benes(3).network(); }, false},
    {"butterfly", [] { return networks::build_butterfly(3); }, false},
    {"clos_small_m", [] { return networks::build_clos({3, 2, 3}); }, false},
};

class ChurnFamilies : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(ChurnFamilies, GreedyChurnMatchesTheory) {
  const auto& c = GetParam();
  const auto net = c.build();
  // Aggregate over several seeds so blocking families reliably exhibit a
  // failure and nonblocking ones never do.
  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    failures += core::nonblocking_churn(net, 1500, seed).failures;
  if (c.strictly_nonblocking) {
    EXPECT_EQ(failures, 0u) << c.name;
  } else {
    EXPECT_GT(failures, 0u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ChurnFamilies,
                         ::testing::ValuesIn(kChurnCases),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace ftcs
