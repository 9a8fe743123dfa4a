#include "networks/clos.hpp"

#include <cmath>

namespace ftcs::networks {

graph::Network build_clos(const ClosParams& p) {
  graph::NetworkBuilder net;
  net.name = "clos-k" + std::to_string(p.k) + "-m" + std::to_string(p.m) + "-r" +
             std::to_string(p.r);
  const std::uint32_t n = p.terminal_count();
  // Layout: [inputs n][L links r*m][R links m*r][outputs n].
  const graph::VertexId input0 = 0;
  const graph::VertexId l0 = n;
  const graph::VertexId r0 = l0 + p.r * p.m;
  const graph::VertexId output0 = r0 + p.m * p.r;
  net.g.reserve(p.size());
  net.g.add_vertices(output0 + n);
  net.stage.assign(net.g.vertex_count(), 0);

  auto lid = [&](std::uint32_t j, std::uint32_t s) { return l0 + j * p.m + s; };
  auto rid = [&](std::uint32_t s, std::uint32_t j) { return r0 + s * p.r + j; };

  for (std::uint32_t v = l0; v < r0; ++v) net.stage[v] = 1;
  for (std::uint32_t v = r0; v < output0; ++v) net.stage[v] = 2;
  for (std::uint32_t v = output0; v < output0 + n; ++v) net.stage[v] = 3;

  // Input crossbars: terminal (j, a) -> L(j, s) for all middle s.
  for (std::uint32_t j = 0; j < p.r; ++j)
    for (std::uint32_t a = 0; a < p.k; ++a)
      for (std::uint32_t s = 0; s < p.m; ++s)
        net.g.add_edge(input0 + j * p.k + a, lid(j, s));
  // Middle crossbars: L(j, s) -> R(s, j') for all j, j'.
  for (std::uint32_t s = 0; s < p.m; ++s)
    for (std::uint32_t j = 0; j < p.r; ++j)
      for (std::uint32_t j2 = 0; j2 < p.r; ++j2)
        net.g.add_edge(lid(j, s), rid(s, j2));
  // Output crossbars: R(s, j') -> terminal (j', a) for all a.
  for (std::uint32_t s = 0; s < p.m; ++s)
    for (std::uint32_t j2 = 0; j2 < p.r; ++j2)
      for (std::uint32_t a = 0; a < p.k; ++a)
        net.g.add_edge(rid(s, j2), output0 + j2 * p.k + a);

  net.inputs.resize(n);
  net.outputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net.inputs[i] = input0 + i;
    net.outputs[i] = output0 + i;
  }
  return net.finalize();
}

ClosParams clos_nonblocking_for(std::uint32_t n) {
  ClosParams p;
  p.k = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(std::sqrt(n / 2.0))));
  p.r = (n + p.k - 1) / p.k;
  p.m = 2 * p.k - 1;
  return p;
}

}  // namespace ftcs::networks
