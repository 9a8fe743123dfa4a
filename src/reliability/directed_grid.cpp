#include "reliability/directed_grid.hpp"

namespace ftcs::reliability {

std::size_t grid_edge_count(const GridSpec& spec) noexcept {
  if (spec.stages < 2) return 0;
  const std::size_t cols = spec.stages - 1;
  const std::size_t straight = static_cast<std::size_t>(spec.rows) * cols;
  const std::size_t diag =
      (spec.wrap ? spec.rows : (spec.rows > 0 ? spec.rows - 1 : 0)) * cols;
  return straight + diag;
}

namespace {

graph::NetworkBuilder grid_builder(const GridSpec& spec) {
  graph::NetworkBuilder net;
  net.name = "grid-" + std::to_string(spec.rows) + "x" + std::to_string(spec.stages);
  net.g.reserve(grid_edge_count(spec));
  net.g.add_vertices(spec.vertex_count());
  net.stage.resize(spec.vertex_count());
  for (std::uint32_t j = 0; j < spec.stages; ++j)
    for (std::uint32_t i = 0; i < spec.rows; ++i)
      net.stage[spec.vertex(i, j)] = static_cast<std::int32_t>(j);
  for (std::uint32_t j = 0; j + 1 < spec.stages; ++j) {
    for (std::uint32_t i = 0; i < spec.rows; ++i) {
      net.g.add_edge(spec.vertex(i, j), spec.vertex(i, j + 1));
      if (i + 1 < spec.rows) {
        net.g.add_edge(spec.vertex(i, j), spec.vertex(i + 1, j + 1));
      } else if (spec.wrap && spec.rows > 1) {
        net.g.add_edge(spec.vertex(i, j), spec.vertex(0, j + 1));
      }
    }
  }
  return net;
}

}  // namespace

graph::Network build_directed_grid(const GridSpec& spec) {
  return grid_builder(spec).finalize();
}

graph::Network build_grid_one_network(const GridSpec& spec) {
  graph::NetworkBuilder net = grid_builder(spec);
  net.name += "-1net";
  const graph::VertexId input = net.g.add_vertex();
  const graph::VertexId output = net.g.add_vertex();
  net.stage.push_back(-1);
  net.stage.push_back(-1);
  for (std::uint32_t i = 0; i < spec.rows; ++i) {
    net.g.add_edge(input, spec.vertex(i, 0));
    net.g.add_edge(spec.vertex(i, spec.stages - 1), output);
  }
  net.inputs = {input};
  net.outputs = {output};
  return net.finalize();
}

}  // namespace ftcs::reliability
