#include "networks/butterfly.hpp"

#include <stdexcept>

namespace ftcs::networks {

graph::Network build_butterfly(std::uint32_t k) {
  if (k == 0 || k > 24) throw std::invalid_argument("butterfly: need 1 <= k <= 24");
  const std::uint32_t n = 1u << k;
  graph::NetworkBuilder net;
  net.name = "butterfly-" + std::to_string(n);
  auto vertex = [n](std::uint32_t s, std::uint32_t i) { return s * n + i; };
  net.g.reserve(static_cast<std::size_t>(k) * 2 * n);
  net.g.add_vertices(static_cast<std::size_t>(k + 1) * n);
  net.stage.resize(net.g.vertex_count());
  for (std::uint32_t s = 0; s <= k; ++s)
    for (std::uint32_t i = 0; i < n; ++i)
      net.stage[vertex(s, i)] = static_cast<std::int32_t>(s);
  for (std::uint32_t s = 0; s < k; ++s)
    for (std::uint32_t i = 0; i < n; ++i) {
      net.g.add_edge(vertex(s, i), vertex(s + 1, i));
      net.g.add_edge(vertex(s, i), vertex(s + 1, i ^ (1u << s)));
    }
  net.inputs.resize(n);
  net.outputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net.inputs[i] = vertex(0, i);
    net.outputs[i] = vertex(k, i);
  }
  return net.finalize();
}

std::vector<graph::VertexId> butterfly_path(std::uint32_t k, std::uint32_t input,
                                            std::uint32_t output) {
  const std::uint32_t n = 1u << k;
  std::vector<graph::VertexId> path;
  path.reserve(k + 1);
  std::uint32_t pos = input;
  path.push_back(pos);
  for (std::uint32_t s = 0; s < k; ++s) {
    const std::uint32_t bit = 1u << s;
    pos = (pos & ~bit) | (output & bit);  // fix bit s to the target's
    path.push_back((s + 1) * n + pos);
  }
  return path;
}

}  // namespace ftcs::networks
