#include "networks/crossbar.hpp"

namespace ftcs::networks {

graph::Network build_crossbar(std::uint32_t n) {
  graph::NetworkBuilder net;
  net.name = "crossbar-" + std::to_string(n);
  net.g.reserve(static_cast<std::size_t>(n) * n);
  net.g.add_vertices(2ul * n);
  net.inputs.resize(n);
  net.outputs.resize(n);
  net.stage.assign(2ul * n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    net.inputs[i] = i;
    net.outputs[i] = n + i;
    net.stage[n + i] = 1;
  }
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < n; ++j) net.g.add_edge(i, n + j);
  return net.finalize();
}

}  // namespace ftcs::networks
