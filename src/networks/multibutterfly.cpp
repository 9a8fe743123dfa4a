#include "networks/multibutterfly.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "expander/random_regular.hpp"
#include "util/prng.hpp"

namespace ftcs::networks {

graph::Network build_multibutterfly(const MultibutterflyParams& p) {
  if (p.k == 0 || p.k > 24)
    throw std::invalid_argument("multibutterfly: need 1 <= k <= 24");
  const std::uint32_t n = 1u << p.k;
  graph::NetworkBuilder net;
  net.name = "multibutterfly-" + std::to_string(n) + "-d" + std::to_string(p.degree);
  auto vertex = [n](std::uint32_t s, std::uint32_t i) { return s * n + i; };
  net.g.reserve(static_cast<std::size_t>(p.k) * 2 * p.degree * n);
  net.g.add_vertices(static_cast<std::size_t>(p.k + 1) * n);
  net.stage.resize(net.g.vertex_count());
  for (std::uint32_t s = 0; s <= p.k; ++s)
    for (std::uint32_t i = 0; i < n; ++i)
      net.stage[vertex(s, i)] = static_cast<std::int32_t>(s);

  // At stage s there are 2^s blocks of size n / 2^s; each block splits into
  // two halves of size n / 2^(s+1) at stage s+1 (same row range: upper half
  // = rows with bit (k-1-s) == 0 within the block).
  std::uint64_t stream = 0;
  for (std::uint32_t s = 0; s < p.k; ++s) {
    const std::uint32_t block_size = n >> s;
    const std::uint32_t half = block_size / 2;
    const std::uint32_t blocks = 1u << s;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::uint32_t base = b * block_size;
      for (std::uint32_t h = 0; h < 2; ++h) {  // target half: 0 upper, 1 lower
        const auto splitter = expander::random_biregular(
            block_size, half, p.degree, util::derive_seed(p.seed, ++stream));
        for (std::uint32_t i = 0; i < block_size; ++i)
          for (std::uint32_t o : splitter.adj[i])
            net.g.add_edge(vertex(s, base + i), vertex(s + 1, base + h * half + o));
      }
    }
  }

  net.inputs.resize(n);
  net.outputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    net.inputs[i] = vertex(0, i);
    net.outputs[i] = vertex(p.k, i);
  }
  return net.finalize();
}

std::optional<std::vector<graph::VertexId>> multibutterfly_route(
    const graph::Network& net, std::uint32_t k, std::uint32_t in,
    std::uint32_t out, std::span<const std::uint8_t> blocked) {
  const std::uint32_t n = 1u << k;
  auto vertex = [n](std::uint32_t s, std::uint32_t i) { return s * n + i; };
  const graph::VertexId src = vertex(0, in);
  if (!blocked.empty() && blocked[src]) return std::nullopt;

  // BFS restricted to the logically correct splitter halves: at stage s the
  // path must sit inside the row range agreeing with out's top s bits.
  std::vector<graph::VertexId> parent(net.g.vertex_count(), graph::kNoVertex);
  std::vector<std::uint8_t> seen(net.g.vertex_count(), 0);
  std::deque<graph::VertexId> queue{src};
  seen[src] = 1;
  const graph::VertexId dst = vertex(k, out);
  while (!queue.empty()) {
    const graph::VertexId u = queue.front();
    queue.pop_front();
    if (u == dst) {
      std::vector<graph::VertexId> path{u};
      for (graph::VertexId w = parent[u]; w != graph::kNoVertex; w = parent[w])
        path.push_back(w);
      std::reverse(path.begin(), path.end());
      return path;
    }
    const std::uint32_t s = u / n;
    if (s >= k) continue;
    const std::uint32_t row_bits = k - s - 1;           // bits left to fix
    const std::uint32_t want_prefix = out >> row_bits;  // top s+1 bits of out
    for (graph::EdgeId e : net.g.out_edges(u)) {
      const graph::VertexId v = net.g.edge(e).to;
      const std::uint32_t row = v % n;
      if ((row >> row_bits) != want_prefix) continue;  // wrong half
      if (seen[v]) continue;
      if (!blocked.empty() && blocked[v]) continue;
      seen[v] = 1;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  return std::nullopt;
}
}  // namespace ftcs::networks
