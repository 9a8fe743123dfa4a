#include "networks/benes.hpp"

#include <cassert>
#include <stdexcept>

namespace ftcs::networks {

Benes::Benes(std::uint32_t k) : k_(k) {
  if (k == 0 || k > 20) throw std::invalid_argument("Benes: need 1 <= k <= 20");
  const std::uint32_t n = 1u << k;
  const std::uint32_t stages = 2 * k + 1;
  graph::NetworkBuilder b;
  b.name = "benes-" + std::to_string(n);
  b.g.reserve(static_cast<std::size_t>(2 * k) * 2 * n);
  b.g.add_vertices(static_cast<std::size_t>(stages) * n);
  b.stage.resize(b.g.vertex_count());
  for (std::uint32_t s = 0; s < stages; ++s)
    for (std::uint32_t i = 0; i < n; ++i)
      b.stage[vertex(s, i)] = static_cast<std::int32_t>(s);
  for (std::uint32_t s = 0; s < 2 * k; ++s) {
    const std::uint32_t bit = s < k ? (1u << (k - 1 - s)) : (1u << (s - k));
    for (std::uint32_t i = 0; i < n; ++i) {
      b.g.add_edge(vertex(s, i), vertex(s + 1, i));        // straight
      b.g.add_edge(vertex(s, i), vertex(s + 1, i ^ bit));  // cross
    }
  }
  b.inputs.resize(n);
  b.outputs.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    b.inputs[i] = vertex(0, i);
    b.outputs[i] = vertex(2 * k, i);
  }
  net_ = b.finalize();
}

void Benes::route_recursive(std::uint32_t bits, std::uint32_t s0,
                            std::uint32_t prefix,
                            const std::vector<std::uint32_t>& perm,
                            const std::vector<std::uint32_t>& elements,
                            std::vector<std::vector<std::uint32_t>>& pos) const {
  // Entry position of element e at stage s0 is pos[e][s0] (already set by
  // the caller); exit position at stage s1 = 2k - s0 likewise.
  const std::uint32_t s1 = 2 * k_ - s0;
  if (bits == 0) {
    assert(elements.size() == 1);
    return;  // single vertex; entry == exit == stage k position, already set
  }
  const std::uint32_t half = 1u << (bits - 1);
  const std::uint32_t mask = half - 1;

  // Pair elements sharing an input class (entry mod half) or an output class
  // (exit mod half); every partner pair must receive different colors.
  const std::size_t m = elements.size();
  assert(m == (std::size_t{2} << (bits - 1)));
  std::vector<std::uint32_t> in_class_member(half, UINT32_MAX);
  std::vector<std::uint32_t> out_class_member(half, UINT32_MAX);
  std::vector<std::uint32_t> in_partner(m, UINT32_MAX), out_partner(m, UINT32_MAX);
  for (std::uint32_t idx = 0; idx < m; ++idx) {
    const std::uint32_t e = elements[idx];
    const std::uint32_t ic = pos[e][s0] & mask;
    if (in_class_member[ic] == UINT32_MAX) {
      in_class_member[ic] = idx;
    } else {
      in_partner[idx] = in_class_member[ic];
      in_partner[in_class_member[ic]] = idx;
    }
    const std::uint32_t oc = pos[e][s1] & mask;
    if (out_class_member[oc] == UINT32_MAX) {
      out_class_member[oc] = idx;
    } else {
      out_partner[idx] = out_class_member[oc];
      out_partner[out_class_member[oc]] = idx;
    }
  }

  // 2-color the "must differ" graph (cycles of even length) by BFS.
  std::vector<std::uint8_t> color(m, 2);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t start = 0; start < m; ++start) {
    if (color[start] != 2) continue;
    color[start] = 0;
    stack.push_back(start);
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (const std::uint32_t v : {in_partner[u], out_partner[u]}) {
        if (v == UINT32_MAX || color[v] != 2) continue;
        color[v] = color[u] ^ 1u;
        stack.push_back(v);
      }
    }
  }

  // Assign the stage-(s0+1) and stage-(s1-1) positions, split by color, and
  // recurse into the two half-size sub-networks.
  std::vector<std::uint32_t> sub[2];
  for (std::uint32_t idx = 0; idx < m; ++idx) {
    const std::uint32_t e = elements[idx];
    const std::uint32_t c = color[idx];
    const std::uint32_t sub_prefix = prefix | (c << (bits - 1));
    pos[e][s0 + 1] = sub_prefix | (pos[e][s0] & mask);
    pos[e][s1 - 1] = sub_prefix | (pos[e][s1] & mask);
    sub[c].push_back(e);
  }
  for (std::uint32_t c = 0; c < 2; ++c) {
    route_recursive(bits - 1, s0 + 1, prefix | (c << (bits - 1)), perm, sub[c],
                    pos);
  }
}

std::vector<std::vector<graph::VertexId>> Benes::route(
    const std::vector<std::uint32_t>& perm) const {
  const std::uint32_t nn = n();
  if (perm.size() != nn) throw std::invalid_argument("Benes::route: size mismatch");
  {
    std::vector<std::uint8_t> seen(nn, 0);
    for (std::uint32_t o : perm) {
      if (o >= nn || seen[o]) throw std::invalid_argument("Benes::route: not a permutation");
      seen[o] = 1;
    }
  }
  const std::uint32_t stages = 2 * k_ + 1;
  std::vector<std::vector<std::uint32_t>> pos(nn, std::vector<std::uint32_t>(stages));
  std::vector<std::uint32_t> elements(nn);
  for (std::uint32_t i = 0; i < nn; ++i) {
    elements[i] = i;
    pos[i][0] = i;
    pos[i][stages - 1] = perm[i];
  }
  route_recursive(k_, 0, 0, perm, elements, pos);

  std::vector<std::vector<graph::VertexId>> paths(nn);
  for (std::uint32_t i = 0; i < nn; ++i) {
    paths[i].reserve(stages);
    for (std::uint32_t s = 0; s < stages; ++s)
      paths[i].push_back(vertex(s, pos[i][s]));
  }
  return paths;
}

}  // namespace ftcs::networks
