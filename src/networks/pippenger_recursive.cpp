#include "networks/pippenger_recursive.hpp"

#include <numeric>
#include <stdexcept>

#include "util/prng.hpp"

namespace ftcs::networks {

std::size_t RecursiveCoreParams::block_size(std::uint32_t s) const {
  std::size_t size = width_mult;
  for (std::uint32_t i = 0; i < gamma + s; ++i) size *= radix;
  return size;
}

namespace {

std::vector<std::vector<graph::VertexId>> stage_blocks(const RecursiveCore& core,
                                                       std::uint32_t stage,
                                                       std::uint32_t left_level) {
  const auto& p = core.params;
  const std::size_t bs = p.block_size(left_level);
  const std::size_t count = p.stage_width() / bs;
  std::vector<std::vector<graph::VertexId>> blocks(count);
  for (std::size_t b = 0; b < count; ++b) {
    blocks[b].resize(bs);
    for (std::size_t i = 0; i < bs; ++i)
      blocks[b][i] = core.vertex(stage, b * bs + i);
  }
  return blocks;
}

}  // namespace

std::vector<std::vector<graph::VertexId>> RecursiveCore::first_blocks() const {
  return stage_blocks(*this, 0, 0);
}

std::vector<std::vector<graph::VertexId>> RecursiveCore::last_blocks() const {
  return stage_blocks(*this, 2 * params.levels, 0);
}

void connect_expander_column(
    graph::NetworkBuilder& net, const std::vector<std::vector<graph::VertexId>>& children,
    const std::vector<std::vector<graph::VertexId>>& parents, std::uint32_t radix,
    std::uint32_t degree, bool reverse, std::uint64_t seed) {
  if (children.size() != static_cast<std::size_t>(radix) * parents.size())
    throw std::invalid_argument("connect_expander_column: block count mismatch");
  const std::uint32_t base = degree / radix;
  const std::uint32_t extra = degree % radix;
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> perm;
  for (std::size_t pidx = 0; pidx < parents.size(); ++pidx) {
    const auto& parent = parents[pidx];
    for (std::uint32_t c = 0; c < radix; ++c) {
      const auto& child = children[pidx * radix + c];
      const std::size_t bs = child.size();
      if (parent.size() != bs * radix)
        throw std::invalid_argument("connect_expander_column: size mismatch");
      perm.resize(bs);
      for (std::uint32_t q = 0; q < radix; ++q) {
        // Rotating surplus keeps both out- and in-degrees exactly `degree`.
        const std::uint32_t copies = base + (((q + radix - c) % radix) < extra ? 1 : 0);
        for (std::uint32_t rep = 0; rep < copies; ++rep) {
          std::iota(perm.begin(), perm.end(), 0u);
          util::shuffle(perm, rng);
          for (std::size_t i = 0; i < bs; ++i) {
            const graph::VertexId u = child[i];
            const graph::VertexId v = parent[q * bs + perm[i]];
            if (reverse) {
              net.g.add_edge(v, u);
            } else {
              net.g.add_edge(u, v);
            }
          }
        }
      }
    }
  }
}

RecursiveCore build_recursive_core(const RecursiveCoreParams& params) {
  if (params.radix < 2) throw std::invalid_argument("core: radix < 2");
  if (params.degree < params.radix)
    throw std::invalid_argument("core: degree must be >= radix for connectivity");
  RecursiveCore core;
  core.params = params;
  const std::size_t width = params.stage_width();
  const std::size_t stages = params.stage_count();
  core.net.name = "recursive-core";
  core.net.g.reserve(2ul * params.levels * width * params.degree);
  core.net.g.add_vertices(width * stages);
  core.net.stage.resize(width * stages);
  for (std::uint32_t s = 0; s < stages; ++s)
    for (std::size_t i = 0; i < width; ++i)
      core.net.stage[core.vertex(s, i)] = static_cast<std::int32_t>(s);

  for (std::uint32_t s = 0; s < params.levels; ++s) {
    // Left half: children at stage s, parents at stage s + 1.
    connect_expander_column(core.net, stage_blocks(core, s, s),
                            stage_blocks(core, s + 1, s + 1), params.radix,
                            params.degree, /*reverse=*/false,
                            util::derive_seed(params.seed, 2 * s));
    // Right half (mirror): "children" at stage 2·levels - s, parents at
    // stage 2·levels - s - 1, edges running parent -> child.
    connect_expander_column(core.net, stage_blocks(core, 2 * params.levels - s, s),
                            stage_blocks(core, 2 * params.levels - s - 1, s + 1),
                            params.radix, params.degree, /*reverse=*/true,
                            util::derive_seed(params.seed, 2 * s + 1));
  }
  return core;
}

graph::Network build_recursive_nonblocking(const RecursiveNonblockingParams& p) {
  if (p.levels < 2)
    throw std::invalid_argument("recursive_nonblocking: levels >= 2 required");
  RecursiveCoreParams cp;
  cp.radix = p.radix;
  cp.width_mult = p.width_mult;
  cp.degree = p.degree;
  cp.levels = p.levels - 1;
  cp.gamma = 1;
  cp.seed = p.seed;
  RecursiveCore core = build_recursive_core(cp);

  graph::NetworkBuilder net = std::move(core.net);
  net.name = "recursive-nonblocking-n" + std::to_string([&] {
    std::size_t n = 1;
    for (std::uint32_t i = 0; i < p.levels; ++i) n *= p.radix;
    return n;
  }());

  const auto first = core.first_blocks();
  const auto last = core.last_blocks();
  // r terminals per block, complete bipartite to/from the block.
  const std::size_t n = first.size() * p.radix;
  net.inputs.reserve(n);
  net.outputs.reserve(n);
  for (const auto& block : first) {
    for (std::uint32_t t = 0; t < p.radix; ++t) {
      const graph::VertexId in = net.g.add_vertex();
      net.stage.push_back(-1);
      net.inputs.push_back(in);
      for (graph::VertexId v : block) net.g.add_edge(in, v);
    }
  }
  for (const auto& block : last) {
    for (std::uint32_t t = 0; t < p.radix; ++t) {
      const graph::VertexId out = net.g.add_vertex();
      net.stage.push_back(-1);
      net.outputs.push_back(out);
      for (graph::VertexId v : block) net.g.add_edge(v, out);
    }
  }
  return net.finalize();
}

}  // namespace ftcs::networks
