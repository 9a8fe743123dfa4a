// Immutable compressed-sparse-row graph — the read side of the two-phase
// graph lifecycle (build with GraphBuilder, finalize into CsrGraph).
//
// Both adjacency directions are stored as flat offset/edge-id arrays, with
// edge endpoints duplicated alongside the edge ids (out_targets / in_sources)
// so traversals touch one contiguous array instead of chasing through the
// edge table. Edge ids are exactly those of the builder and every incidence
// list runs in ascending edge-id (insertion) order, so finalizing fixes the
// iteration order — and therefore every search tie-break — bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace ftcs::graph {

class GraphBuilder;

class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const GraphBuilder& b);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return vertex_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }

  /// Out-edge ids of v, in ascending id (builder insertion) order.
  [[nodiscard]] std::span<const EdgeId> out_edges(VertexId v) const noexcept {
    return {out_edge_ids_.data() + out_offsets_[v],
            out_edge_ids_.data() + out_offsets_[v + 1]};
  }
  /// In-edge ids of v, in ascending id (builder insertion) order.
  [[nodiscard]] std::span<const EdgeId> in_edges(VertexId v) const noexcept {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }
  /// Heads of v's out-edges, aligned index-for-index with out_edges(v).
  [[nodiscard]] std::span<const VertexId> out_targets(VertexId v) const noexcept {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  /// Tails of v's in-edges, aligned index-for-index with in_edges(v).
  [[nodiscard]] std::span<const VertexId> in_sources(VertexId v) const noexcept {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Starts loading v's out-offset row, the first read of out_edges(v) and
  /// out_targets(v); a hint with no effect on any result.
  void prefetch_out(VertexId v) const noexcept {
    __builtin_prefetch(out_offsets_.data() + v);
  }

  /// O(1) degree/span queries straight off the offset arrays.
  [[nodiscard]] std::size_t out_degree(VertexId v) const noexcept {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  [[nodiscard]] std::size_t in_degree(VertexId v) const noexcept {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  /// Total incident edges (in + out) — the paper's "degree" for the
  /// undirected distance arguments of §5.
  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return out_degree(v) + in_degree(v);
  }

 private:
  std::size_t vertex_count_ = 0;
  std::vector<Edge> edges_;                          // dense, builder order
  std::vector<std::uint32_t> out_offsets_;           // size V+1
  std::vector<std::uint32_t> in_offsets_;            // size V+1
  std::vector<EdgeId> out_edge_ids_, in_edge_ids_;   // size E each
  std::vector<VertexId> out_targets_, in_sources_;   // size E, id-aligned
};

}  // namespace ftcs::graph
