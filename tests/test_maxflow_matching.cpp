#include <gtest/gtest.h>

#include "graph/maxflow.hpp"

namespace ftcs::graph {
namespace {

TEST(Dinic, SimpleChain) {
  Dinic d(3);
  d.add_arc(0, 1, 5);
  d.add_arc(1, 2, 3);
  EXPECT_EQ(d.max_flow(0, 2), 3);
}

TEST(Dinic, ParallelPaths) {
  Dinic d(4);
  d.add_arc(0, 1, 1);
  d.add_arc(1, 3, 1);
  d.add_arc(0, 2, 1);
  d.add_arc(2, 3, 1);
  EXPECT_EQ(d.max_flow(0, 3), 2);
}

TEST(Dinic, FlowAccessors) {
  Dinic d(2);
  const auto arc = d.add_arc(0, 1, 7);
  EXPECT_EQ(d.max_flow(0, 1), 7);
  EXPECT_EQ(d.flow(arc), 7);
  EXPECT_EQ(d.residual(arc), 0);
}

TEST(MengerPaths, DiamondHasOneVertexDisjointPath) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3 share endpoints 0, 3; with endpoint
  // capacities one, only a single fully vertex-disjoint path exists.
  GraphBuilder g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const VertexId s[1] = {0}, t[1] = {3};
  EXPECT_EQ(max_vertex_disjoint_paths(g.finalize(), s, t), 1u);
}

TEST(MengerPaths, TwoSourcesTwoTargets) {
  // 0 -> 2 -> 4 and 1 -> 3 -> 5: two disjoint paths.
  GraphBuilder g(6);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(1, 3);
  g.add_edge(3, 5);
  const VertexId s[2] = {0, 1}, t[2] = {4, 5};
  EXPECT_EQ(max_vertex_disjoint_paths(g.finalize(), s, t), 2u);
}

TEST(MengerPaths, BottleneckVertexLimitsFlow) {
  // Two sources funnel through vertex 2 to two targets: max 1 disjoint path.
  GraphBuilder g(5);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  const VertexId s[2] = {0, 1}, t[2] = {3, 4};
  EXPECT_EQ(max_vertex_disjoint_paths(g.finalize(), s, t), 1u);
}

TEST(MengerPaths, BlockedVertices) {
  GraphBuilder g(6);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(1, 3);
  g.add_edge(3, 5);
  std::vector<std::uint8_t> blocked(6, 0);
  blocked[2] = 1;
  const VertexId s[2] = {0, 1}, t[2] = {4, 5};
  EXPECT_EQ(max_vertex_disjoint_paths(g.finalize(), s, t, blocked), 1u);
}

TEST(MengerPaths, CompleteBipartiteFullFlow) {
  GraphBuilder g(8);
  for (VertexId i = 0; i < 4; ++i)
    for (VertexId o = 4; o < 8; ++o) g.add_edge(i, o);
  const VertexId s[4] = {0, 1, 2, 3}, t[4] = {4, 5, 6, 7};
  EXPECT_EQ(max_vertex_disjoint_paths(g.finalize(), s, t), 4u);
}

TEST(MengerPaths, ExtractedPathsAreValidAndDisjoint) {
  GraphBuilder g(8);
  for (VertexId i = 0; i < 3; ++i)
    for (VertexId m = 3; m < 6; ++m) g.add_edge(i, m);
  for (VertexId m = 3; m < 6; ++m)
    for (VertexId o = 6; o < 8; ++o) g.add_edge(m, o);
  const VertexId s[3] = {0, 1, 2}, t[2] = {6, 7};
  const CsrGraph csr = g.finalize();
  const auto paths = vertex_disjoint_paths(csr, s, t);
  EXPECT_EQ(paths.size(), 2u);
  std::vector<int> used(8, 0);
  for (const auto& p : paths) {
    EXPECT_GE(p.size(), 2u);
    EXPECT_LT(p.front(), 3u);
    EXPECT_GE(p.back(), 6u);
    for (VertexId v : p) {
      EXPECT_EQ(used[v], 0);
      used[v] = 1;
    }
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      bool edge_found = false;
      for (EdgeId e : csr.out_edges(p[i]))
        edge_found |= csr.edge(e).to == p[i + 1];
      EXPECT_TRUE(edge_found);
    }
  }
}

TEST(MengerPaths, SourceEqualsTargetSingleton) {
  GraphBuilder g(2);
  g.add_edge(0, 1);
  const VertexId s[1] = {0}, t[1] = {0};
  const auto paths = vertex_disjoint_paths(g.finalize(), s, t);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 1u);
}

}  // namespace
}  // namespace ftcs::graph
