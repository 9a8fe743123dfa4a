// core::ReachIndex (ftcs/reach_index.hpp) against reverse BFS: for every
// vertex and every output, the index must say "reaches" exactly when a plain
// BFS from the output backwards over in-edges arrives at the vertex, and
// reaches_all() exactly when that holds for every output. Runs
// on the staged networks the routers serve (including a grown one) and on
// a cyclic net, which must take the no-prune fallback and still route.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftcs/ft_network.hpp"
#include "ftcs/reach_index.hpp"
#include "ftcs/router.hpp"
#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "networks/superconcentrator.hpp"

namespace ftcs {
namespace {

void expect_matches_reverse_bfs(const graph::Network& net) {
  const core::ReachIndex reach(net);
  EXPECT_TRUE(reach.exact()) << net.name;
  const graph::CsrGraph& g = net.g;
  std::vector<std::uint8_t> seen(g.vertex_count());
  std::vector<std::uint32_t> outputs_reached(g.vertex_count(), 0);
  std::vector<graph::VertexId> queue;
  std::size_t mismatches = 0;
  for (std::uint32_t o = 0; o < net.outputs.size(); ++o) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, net.outputs[o]);
    seen[net.outputs[o]] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (const graph::VertexId u : g.in_sources(queue[head]))
        if (!seen[u]) {
          seen[u] = 1;
          queue.push_back(u);
        }
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      mismatches += reach.reaches(v, o) != (seen[v] != 0);
      outputs_reached[v] += seen[v];
    }
  }
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    mismatches +=
        reach.reaches_all(v) != (outputs_reached[v] == net.outputs.size());
  EXPECT_EQ(mismatches, 0u) << net.name;
}

TEST(ReachIndex, MatchesReverseBfsOnCantor) {
  for (const std::uint32_t k : {4u, 5u}) {
    const auto net = networks::build_cantor({k, 0});
    expect_matches_reverse_bfs(net);
    // Deduplicated: 2n distinct sets however many vertices share them.
    EXPECT_EQ(core::ReachIndex(net).set_count(), 2 * net.outputs.size());
  }
}

TEST(ReachIndex, MatchesReverseBfsOnGrownCantor) {
  const auto base = networks::build_cantor({5, 0});
  expect_matches_reverse_bfs(networks::grow_cantor(base, {5, 0}));
}

TEST(ReachIndex, MatchesReverseBfsOnSuperconcentratorAndCrossbar) {
  expect_matches_reverse_bfs(
      networks::build_superconcentrator({32, 4, 4, 11}));
  expect_matches_reverse_bfs(networks::build_crossbar(32));
}

TEST(ReachIndex, MatchesReverseBfsOnFtNetwork) {
  for (const std::uint32_t nu : {1u, 2u})
    expect_matches_reverse_bfs(
        core::build_ft_network(core::FtParams::sim(nu, 8, 6, 1, 1000 + nu))
            .net);
}

TEST(ReachIndex, CyclicNetFallsBackToNoPruning) {
  // in -> a -> b -> a (a directed cycle), b -> out; out2 is unreachable.
  graph::NetworkBuilder nb;
  const auto in = nb.g.add_vertex();    // 0
  const auto a = nb.g.add_vertex();     // 1
  const auto b = nb.g.add_vertex();     // 2
  const auto out = nb.g.add_vertex();   // 3
  const auto out2 = nb.g.add_vertex();  // 4
  nb.g.add_edge(in, a);
  nb.g.add_edge(a, b);
  nb.g.add_edge(b, a);
  nb.g.add_edge(b, out);
  nb.inputs = {in};
  nb.outputs = {out, out2};
  nb.name = "cycle";
  const auto net = nb.finalize();

  const core::ReachIndex reach(net);
  EXPECT_FALSE(reach.exact());
  EXPECT_TRUE(reach.plane_slots(0).empty());
  EXPECT_EQ(reach.first_hop(0, 1), 0u);
  for (graph::VertexId v = 0; v < net.g.vertex_count(); ++v) {
    EXPECT_TRUE(reach.reaches_all(v)) << v;
    for (std::uint32_t o = 0; o < net.outputs.size(); ++o)
      EXPECT_TRUE(reach.reaches(v, o)) << v << " " << o;
  }

  // The search stays exact without the filter, on both stores.
  const std::vector<graph::VertexId> path{in, a, b, out};
  core::GreedyRouter g(net);
  EXPECT_EQ(g.connect(0, 1), core::GreedyRouter::kNoCall);
  const auto gc = g.connect(0, 0);
  ASSERT_NE(gc, core::GreedyRouter::kNoCall);
  EXPECT_EQ(g.path_of(gc), path);
  core::ConcurrentRouter c(net, 1);
  EXPECT_EQ(c.session(0).connect(0, 1), core::ConcurrentRouter::kNoCall);
  const auto cc = c.session(0).connect(0, 0);
  ASSERT_NE(cc, core::ConcurrentRouter::kNoCall);
  EXPECT_EQ(c.session(0).path_of(cc), path);
}

}  // namespace
}  // namespace ftcs
