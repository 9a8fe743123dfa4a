#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "graph/dsu.hpp"

namespace ftcs::graph {
namespace {

CsrGraph path_graph(std::size_t n) {
  GraphBuilder g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g.finalize();
}

TEST(GraphBuilder, BasicConstruction) {
  GraphBuilder g;
  EXPECT_EQ(g.vertex_count(), 0u);
  const auto a = g.add_vertex();
  const auto b = g.add_vertex();
  const auto e = g.add_edge(a, b);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(e).from, a);
  EXPECT_EQ(g.edge(e).to, b);
  const CsrGraph c = g.finalize();
  EXPECT_EQ(c.out_degree(a), 1u);
  EXPECT_EQ(c.in_degree(b), 1u);
  EXPECT_EQ(c.degree(a), 1u);
}

TEST(GraphBuilder, AddVerticesReturnsFirstId) {
  GraphBuilder g(3);
  const auto first = g.add_vertices(4);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(g.vertex_count(), 7u);
}

TEST(GraphBuilder, MultiEdgesAllowed) {
  GraphBuilder g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.finalize().out_degree(0), 2u);
}

TEST(CsrGraph, MirrorsBuilderAfterFinalize) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 2);
  const CsrGraph g = b.finalize();
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.edge(1).to, 2u);
  // Aligned target spans match the edge table.
  const auto eids = g.out_edges(0);
  const auto tgts = g.out_targets(0);
  ASSERT_EQ(eids.size(), tgts.size());
  for (std::size_t i = 0; i < eids.size(); ++i)
    EXPECT_EQ(g.edge(eids[i]).to, tgts[i]);
}

TEST(Network, ValidateCatchesBadTerminals) {
  NetworkBuilder nb;
  nb.g.add_vertices(2);
  nb.g.add_edge(0, 1);
  nb.inputs = {0};
  nb.outputs = {5};  // out of range
  EXPECT_NE(nb.finalize().validate(), "");
  nb.outputs = {1};
  EXPECT_EQ(nb.finalize().validate(), "");
}

TEST(Network, ValidateCatchesStageViolation) {
  NetworkBuilder nb;
  nb.g.add_vertices(2);
  nb.g.add_edge(0, 1);
  nb.stage = {1, 0};  // edge goes backwards in stage
  EXPECT_NE(nb.finalize().validate(), "");
  nb.stage = {0, 1};
  EXPECT_EQ(nb.finalize().validate(), "");
}

TEST(Network, TerminalQueries) {
  NetworkBuilder nb;
  nb.g.add_vertices(3);
  nb.inputs = {0};
  nb.outputs = {2};
  const Network net = nb.finalize();
  EXPECT_TRUE(net.is_input(0));
  EXPECT_FALSE(net.is_input(1));
  EXPECT_TRUE(net.is_output(2));
  EXPECT_TRUE(net.is_terminal(0));
  EXPECT_FALSE(net.is_terminal(1));
}

TEST(Dsu, UniteAndFind) {
  Dsu d(5);
  EXPECT_EQ(d.component_count(), 5u);
  EXPECT_TRUE(d.unite(0, 1));
  EXPECT_FALSE(d.unite(1, 0));
  EXPECT_TRUE(d.same(0, 1));
  EXPECT_FALSE(d.same(0, 2));
  EXPECT_EQ(d.component_count(), 4u);
  EXPECT_EQ(d.class_size(0), 2u);
}

TEST(Dsu, TransitiveUnions) {
  Dsu d(6);
  d.unite(0, 1);
  d.unite(2, 3);
  d.unite(1, 2);
  EXPECT_TRUE(d.same(0, 3));
  EXPECT_EQ(d.class_size(3), 4u);
  EXPECT_EQ(d.component_count(), 3u);
}

TEST(Dsu, SplitReturnsWholeClassesToSingletons) {
  Dsu d(7);
  d.unite(0, 1);
  d.unite(2, 3);
  d.unite(1, 2);
  d.unite(4, 5);
  ASSERT_EQ(d.component_count(), 3u);
  // {0,1,2,3} listed with repeats and out of order; {4,5} and 6 untouched.
  const std::uint32_t members[] = {3, 1, 1, 0, 2, 3};
  d.split(members);
  EXPECT_EQ(d.component_count(), 6u);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_EQ(d.class_size(v), 1u);
  EXPECT_TRUE(d.same(4, 5));
  EXPECT_FALSE(d.same(0, 1));
  // The split elements unite again like fresh ones.
  EXPECT_TRUE(d.unite(3, 0));
  EXPECT_EQ(d.class_size(0), 2u);
  EXPECT_EQ(d.component_count(), 5u);
}

TEST(Bfs, DirectedDistancesOnPath) {
  const auto g = path_graph(5);
  const VertexId src[1] = {0};
  const auto dist = bfs_directed(g, src);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
  // Reverse direction unreachable.
  const VertexId src2[1] = {4};
  const auto dist2 = bfs_directed(g, src2);
  EXPECT_EQ(dist2[0], kUnreachable);
}

TEST(Bfs, UndirectedIgnoresDirection) {
  const auto g = path_graph(5);
  const VertexId src[1] = {4};
  const auto dist = bfs_undirected(g, src);
  for (std::uint32_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], 4 - v);
}

TEST(Bfs, BlockedVerticesStopSearch) {
  const auto g = path_graph(5);
  std::vector<std::uint8_t> blocked(5, 0);
  blocked[2] = 1;
  const VertexId src[1] = {0};
  const auto dist = bfs_directed(g, src, blocked);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, MaxDistLimits) {
  const auto g = path_graph(10);
  const VertexId src[1] = {0};
  const auto dist = bfs_directed(g, src, {}, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Bfs, MultiSource) {
  const auto g = path_graph(10);
  const VertexId src[2] = {0, 9};
  const auto dist = bfs_undirected(g, src);
  EXPECT_EQ(dist[5], 4u);  // closer to 9
  EXPECT_EQ(dist[4], 4u);  // closer to 0
}

TEST(ShortestPath, FindsAndAvoids) {
  // Diamond: 0 -> 1 -> 3, 0 -> 2 -> 3.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 3);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  const CsrGraph g = b.finalize();
  std::vector<std::uint8_t> target(4, 0);
  target[3] = 1;
  const VertexId src[1] = {0};
  auto path = shortest_path(g, src, target);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 3u);

  std::vector<std::uint8_t> blocked(4, 0);
  blocked[1] = 1;
  path = shortest_path(g, src, target, blocked);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ((*path)[1], 2u);

  blocked[2] = 1;
  EXPECT_FALSE(shortest_path(g, src, target, blocked).has_value());
}

TEST(ShortestPath, SourceIsTarget) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const CsrGraph g = b.finalize();
  std::vector<std::uint8_t> target(2, 0);
  target[0] = 1;
  const VertexId src[1] = {0};
  const auto path = shortest_path(g, src, target);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  const auto [comp, count] = connected_components(b.finalize());
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
}

TEST(Topological, OrderAndCycleDetection) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  auto order = topological_order(b.finalize());
  ASSERT_TRUE(order.has_value());
  std::vector<std::uint32_t> position(4);
  for (std::uint32_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[2]);

  b.add_edge(2, 0);  // cycle; refinalize the updated builder
  EXPECT_FALSE(topological_order(b.finalize()).has_value());
  EXPECT_FALSE(is_dag(b.finalize()));
}

TEST(NetworkDepth, LongestInputOutputPath) {
  NetworkBuilder nb;
  nb.g.add_vertices(5);
  nb.g.add_edge(0, 1);
  nb.g.add_edge(1, 2);
  nb.g.add_edge(0, 2);
  nb.g.add_edge(2, 3);
  nb.inputs = {0};
  nb.outputs = {3, 4};
  EXPECT_EQ(network_depth(nb.finalize()), 3u);  // 0-1-2-3
}

TEST(NetworkDepth, NoPathIsZero) {
  NetworkBuilder nb;
  nb.g.add_vertices(2);
  nb.inputs = {0};
  nb.outputs = {1};
  EXPECT_EQ(network_depth(nb.finalize()), 0u);
}

TEST(EdgeBall, PaperDistanceDefinition) {
  // Path 0-1-2-3: dist(0, edge(0,1)) = 1, dist(0, edge(1,2)) = 2, etc.
  const auto g = path_graph(4);
  const auto ball1 = edge_ball(g, 0, 1);
  ASSERT_EQ(ball1.size(), 1u);
  EXPECT_EQ(ball1[0].second, 1u);
  const auto ball2 = edge_ball(g, 0, 2);
  EXPECT_EQ(ball2.size(), 2u);
  const auto ball3 = edge_ball(g, 0, 3);
  EXPECT_EQ(ball3.size(), 3u);
  // Zones: exactly one edge per distance.
  for (const auto& [e, d] : ball3) EXPECT_EQ(d, e + 1);
}

TEST(EdgeBall, ZeroRadiusEmpty) {
  const auto g = path_graph(3);
  EXPECT_TRUE(edge_ball(g, 0, 0).empty());
}

}  // namespace
}  // namespace ftcs::graph
