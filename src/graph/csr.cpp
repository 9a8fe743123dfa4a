#include "graph/csr.hpp"

#include "graph/digraph.hpp"

namespace ftcs::graph {

CsrGraph::CsrGraph(const GraphBuilder& b) {
  vertex_count_ = b.vertex_count();
  const auto edges = b.edges();
  const std::size_t e = edges.size();
  edges_.assign(edges.begin(), edges.end());

  // Counting sort of the edge list by endpoint, stable by edge id: count
  // degrees, prefix-sum them into offsets, then place every edge in id
  // order, so each incidence list comes out in insertion order.
  out_offsets_.assign(vertex_count_ + 1, 0);
  in_offsets_.assign(vertex_count_ + 1, 0);
  for (const Edge& ed : edges) {
    ++out_offsets_[ed.from + 1];
    ++in_offsets_[ed.to + 1];
  }
  for (std::size_t v = 0; v < vertex_count_; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  out_edge_ids_.resize(e);
  in_edge_ids_.resize(e);
  out_targets_.resize(e);
  in_sources_.resize(e);
  std::vector<std::uint32_t> out_cur(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<std::uint32_t> in_cur(in_offsets_.begin(), in_offsets_.end() - 1);
  for (EdgeId id = 0; id < e; ++id) {
    const Edge& ed = edges[id];
    const std::uint32_t o = out_cur[ed.from]++;
    out_edge_ids_[o] = id;
    out_targets_[o] = ed.to;
    const std::uint32_t i = in_cur[ed.to]++;
    in_edge_ids_[i] = id;
    in_sources_[i] = ed.from;
  }
}

}  // namespace ftcs::graph
