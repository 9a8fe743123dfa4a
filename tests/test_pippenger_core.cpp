#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "networks/pippenger_recursive.hpp"

namespace ftcs::networks {
namespace {

RecursiveCoreParams small_params() {
  RecursiveCoreParams p;
  p.radix = 4;
  p.width_mult = 4;
  p.degree = 6;
  p.levels = 2;
  p.gamma = 0;
  p.seed = 3;
  return p;
}

TEST(RecursiveCore, StageWidthsAndVertexCount) {
  const auto p = small_params();
  EXPECT_EQ(p.block_size(0), 4u);
  EXPECT_EQ(p.block_size(2), 64u);
  EXPECT_EQ(p.stage_width(), 64u);
  EXPECT_EQ(p.stage_count(), 5u);
  const auto core = build_recursive_core(p);
  EXPECT_EQ(core.net.g.vertex_count(), 5u * 64);
  EXPECT_EQ(core.net.finalize().validate(), "");
}

TEST(RecursiveCore, ExactDegrees) {
  const auto core = build_recursive_core(small_params());
  const auto& p = core.params;
  const graph::CsrGraph g = core.net.g.finalize();
  // Every vertex not in the last stage has out-degree = degree; every vertex
  // not in the first stage has in-degree = degree.
  for (std::uint32_t s = 0; s < p.stage_count(); ++s) {
    for (std::size_t i = 0; i < p.stage_width(); ++i) {
      const auto v = core.vertex(s, i);
      if (s + 1 < p.stage_count()) EXPECT_EQ(g.out_degree(v), p.degree);
      else EXPECT_EQ(g.out_degree(v), 0u);
      if (s > 0) EXPECT_EQ(g.in_degree(v), p.degree);
      else EXPECT_EQ(g.in_degree(v), 0u);
    }
  }
}

TEST(RecursiveCore, EdgeCount) {
  const auto p = small_params();
  const auto core = build_recursive_core(p);
  EXPECT_EQ(core.net.g.edge_count(),
            std::size_t{2} * p.levels * p.degree * p.stage_width());
}

TEST(RecursiveCore, EdgesRespectBlockStructure) {
  const auto p = small_params();
  const auto core = build_recursive_core(p);
  // A stage-0 vertex in block b must only reach stage-1 vertices in parent
  // block b / radix.
  for (graph::EdgeId e = 0; e < core.net.g.edge_count(); ++e) {
    const auto& ed = core.net.g.edge(e);
    const auto sf = core.net.stage[ed.from];
    const auto st = core.net.stage[ed.to];
    EXPECT_EQ(st, sf + 1);
    if (sf == 0) {
      const std::size_t from_block = (ed.from % p.stage_width()) / p.block_size(0);
      const std::size_t to_block =
          (ed.to % p.stage_width()) / p.block_size(1);
      EXPECT_EQ(to_block, from_block / p.radix);
    }
  }
}

TEST(RecursiveCore, FirstAndLastBlocks) {
  const auto core = build_recursive_core(small_params());
  const auto first = core.first_blocks();
  const auto last = core.last_blocks();
  EXPECT_EQ(first.size(), 16u);  // radix^levels
  EXPECT_EQ(last.size(), 16u);
  EXPECT_EQ(first[0].size(), 4u);
  // Blocks tile the stage without overlap.
  std::vector<int> seen(core.net.g.vertex_count(), 0);
  for (const auto& blk : first)
    for (auto v : blk) {
      EXPECT_EQ(core.net.stage[v], 0);
      EXPECT_EQ(seen[v]++, 0);
    }
}

TEST(RecursiveCore, MirrorSymmetryOfReachability) {
  const auto core = build_recursive_core(small_params());
  // Every first-stage vertex reaches the middle stage; every last-stage
  // vertex is reached from the middle stage.
  const auto first = core.first_blocks();
  const graph::VertexId src[1] = {first[0][0]};
  const auto dist = graph::bfs_directed(core.net.g.finalize(), src);
  std::size_t reachable_last = 0;
  for (const auto& blk : core.last_blocks())
    for (auto v : blk)
      if (dist[v] != graph::kUnreachable) ++reachable_last;
  EXPECT_GT(reachable_last, 0u);
}

TEST(RecursiveCore, ParameterValidation) {
  RecursiveCoreParams p = small_params();
  p.radix = 1;
  EXPECT_THROW(build_recursive_core(p), std::invalid_argument);
  p = small_params();
  p.degree = 2;  // < radix
  EXPECT_THROW(build_recursive_core(p), std::invalid_argument);
}

TEST(ExpanderColumn, DegreeSplitRotates) {
  // radix 4, degree 10: per (child, quarter) copies in {2, 3}, summing to 10
  // per child and 10 in-degree per parent vertex.
  graph::NetworkBuilder net;
  const std::size_t bs = 8;
  net.g.add_vertices(4 * bs + 4 * bs);
  std::vector<std::vector<graph::VertexId>> children(4), parents(1);
  for (std::size_t c = 0; c < 4; ++c) {
    children[c].resize(bs);
    for (std::size_t i = 0; i < bs; ++i)
      children[c][i] = static_cast<graph::VertexId>(c * bs + i);
  }
  parents[0].resize(4 * bs);
  for (std::size_t i = 0; i < 4 * bs; ++i)
    parents[0][i] = static_cast<graph::VertexId>(4 * bs + i);
  connect_expander_column(net, children, parents, 4, 10, false, 77);
  const graph::CsrGraph g = net.g.finalize();
  for (std::size_t v = 0; v < 4 * bs; ++v)
    EXPECT_EQ(g.out_degree(static_cast<graph::VertexId>(v)), 10u);
  for (std::size_t v = 4 * bs; v < 8 * bs; ++v)
    EXPECT_EQ(g.in_degree(static_cast<graph::VertexId>(v)), 10u);
}

TEST(ExpanderColumn, RejectsMismatchedBlocks) {
  graph::NetworkBuilder net;
  net.g.add_vertices(10);
  std::vector<std::vector<graph::VertexId>> children(3), parents(1);
  EXPECT_THROW(connect_expander_column(net, children, parents, 4, 8, false, 1),
               std::invalid_argument);
}

TEST(RecursiveNonblocking, StructureAndTerminals) {
  RecursiveNonblockingParams p;
  p.levels = 2;
  p.radix = 4;
  p.width_mult = 4;
  p.degree = 6;
  p.seed = 5;
  const auto net = build_recursive_nonblocking(p);
  EXPECT_EQ(net.inputs.size(), 16u);
  EXPECT_EQ(net.outputs.size(), 16u);
  EXPECT_EQ(net.validate(), "");
  EXPECT_TRUE(graph::is_dag(net.g));
  // Depth: input -> (2*levels-1) core stages -> output = 2*(levels-1)+2.
  EXPECT_EQ(graph::network_depth(net), 2u * (p.levels - 1) + 2u);
  EXPECT_THROW(build_recursive_nonblocking({1, 4, 4, 6, 1}),
               std::invalid_argument);
}

TEST(RecursiveNonblocking, EveryInputReachesEveryOutput) {
  RecursiveNonblockingParams p;
  p.levels = 2;
  p.width_mult = 4;
  p.degree = 6;
  const auto net = build_recursive_nonblocking(p);
  for (graph::VertexId in : net.inputs) {
    const graph::VertexId src[1] = {in};
    const auto dist = graph::bfs_directed(net.g, src);
    for (graph::VertexId out : net.outputs)
      ASSERT_NE(dist[out], graph::kUnreachable);
  }
}

}  // namespace
}  // namespace ftcs::networks
