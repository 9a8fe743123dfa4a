#include "graph/csr.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/delta.hpp"
#include "graph/digraph.hpp"

namespace ftcs::graph {

CsrGraph::CsrGraph(const GraphBuilder& b) {
  vertex_count_ = b.vertex_count();
  const std::size_t e = b.edge_count();

  edges_.reserve(e);
  for (EdgeId id = 0; id < e; ++id) edges_.push_back(b.edge(id));

  out_offsets_.assign(vertex_count_ + 1, 0);
  in_offsets_.assign(vertex_count_ + 1, 0);
  out_edge_ids_.resize(e);
  in_edge_ids_.resize(e);
  out_targets_.resize(e);
  in_sources_.resize(e);

  for (VertexId v = 0; v < vertex_count_; ++v) {
    out_offsets_[v + 1] =
        out_offsets_[v] + static_cast<std::uint32_t>(b.out_degree(v));
    in_offsets_[v + 1] =
        in_offsets_[v] + static_cast<std::uint32_t>(b.in_degree(v));
    max_out_degree_ = std::max(max_out_degree_, b.out_degree(v));
    max_in_degree_ = std::max(max_in_degree_, b.in_degree(v));
  }
  for (VertexId v = 0; v < vertex_count_; ++v) {
    std::uint32_t o = out_offsets_[v];
    for (EdgeId id : b.out_edges(v)) {
      out_edge_ids_[o] = id;
      out_targets_[o] = edges_[id].to;
      ++o;
    }
    std::uint32_t i = in_offsets_[v];
    for (EdgeId id : b.in_edges(v)) {
      in_edge_ids_[i] = id;
      in_sources_[i] = edges_[id].from;
      ++i;
    }
  }
}

CsrGraph::CsrGraph(const CsrGraph& base, const CsrDelta& delta) {
  assert(delta.base_vertex_count() == base.vertex_count());
  assert(delta.base_edge_count() == base.edge_count());
  const std::size_t old_v = base.vertex_count();
  const std::size_t old_e = base.edge_count();
  vertex_count_ = delta.vertex_count();
  const std::size_t e = delta.edge_count();

  edges_ = base.edges_;
  edges_.reserve(e);
  edges_.insert(edges_.end(), delta.added_edges().begin(),
                delta.added_edges().end());

  // Appended per-vertex degrees, counted in one pass over the delta.
  std::vector<std::uint32_t> add_out(vertex_count_, 0), add_in(vertex_count_, 0);
  for (const Edge& ed : delta.added_edges()) {
    ++add_out[ed.from];
    ++add_in[ed.to];
  }

  out_offsets_.assign(vertex_count_ + 1, 0);
  in_offsets_.assign(vertex_count_ + 1, 0);
  for (VertexId v = 0; v < vertex_count_; ++v) {
    const std::size_t base_out = v < old_v ? base.out_degree(v) : 0;
    const std::size_t base_in = v < old_v ? base.in_degree(v) : 0;
    out_offsets_[v + 1] =
        out_offsets_[v] + static_cast<std::uint32_t>(base_out + add_out[v]);
    in_offsets_[v + 1] =
        in_offsets_[v] + static_cast<std::uint32_t>(base_in + add_in[v]);
    max_out_degree_ = std::max(max_out_degree_, base_out + add_out[v]);
    max_in_degree_ = std::max(max_in_degree_, base_in + add_in[v]);
  }

  out_edge_ids_.resize(e);
  in_edge_ids_.resize(e);
  out_targets_.resize(e);
  in_sources_.resize(e);
  // Fill cursors start each vertex's slice with its base prefix copied in
  // original order; the appended edges then land after the prefix in
  // ascending id order (one pass over the delta in insertion order).
  std::vector<std::uint32_t> out_cur(vertex_count_), in_cur(vertex_count_);
  for (VertexId v = 0; v < vertex_count_; ++v) {
    std::uint32_t o = out_offsets_[v];
    std::uint32_t i = in_offsets_[v];
    if (v < old_v) {
      for (EdgeId id : base.out_edges(v)) {
        out_edge_ids_[o] = id;
        out_targets_[o] = base.edges_[id].to;
        ++o;
      }
      for (EdgeId id : base.in_edges(v)) {
        in_edge_ids_[i] = id;
        in_sources_[i] = base.edges_[id].from;
        ++i;
      }
    }
    out_cur[v] = o;
    in_cur[v] = i;
  }
  for (std::size_t d = 0; d < delta.added_edges().size(); ++d) {
    const Edge& ed = delta.added_edges()[d];
    const auto id = static_cast<EdgeId>(old_e + d);
    out_edge_ids_[out_cur[ed.from]] = id;
    out_targets_[out_cur[ed.from]++] = ed.to;
    in_edge_ids_[in_cur[ed.to]] = id;
    in_sources_[in_cur[ed.to]++] = ed.from;
  }
}

}  // namespace ftcs::graph
