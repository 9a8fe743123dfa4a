// Two-phase graph lifecycle: a mutable GraphBuilder for construction and an
// immutable CsrGraph (graph/csr.hpp) for everything that runs afterwards.
//
// All §6 networks are generated programmatically: the builders in networks/
// and reliability/ append vertices and edges through GraphBuilder's O(1)
// insertion API, then finalize() packs the incidence lists into flat
// compressed-sparse-row arrays. Algorithms, routers, verifiers and fault
// machinery only ever see the CSR view; nothing mutates a graph after
// finalization. NetworkBuilder/Network mirror the same split for networks
// (graph + terminal lists + stage labels).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace ftcs::graph {

/// Mutable directed multigraph under construction: an edge list plus a
/// vertex count, with O(1) edge insertion. Vertex/edge ids are dense and
/// stable; finalize() preserves them in the CSR output, with every vertex's
/// incidence lists in ascending edge-id (insertion) order.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(std::size_t vertex_count) { add_vertices(vertex_count); }

  VertexId add_vertex() { return static_cast<VertexId>(vertex_count_++); }

  /// Adds `count` vertices, returns the id of the first.
  VertexId add_vertices(std::size_t count) {
    const auto first = static_cast<VertexId>(vertex_count_);
    vertex_count_ += count;
    return first;
  }

  EdgeId add_edge(VertexId from, VertexId to) {
    assert(from < vertex_count_ && to < vertex_count_);
    edges_.push_back({from, to});
    return static_cast<EdgeId>(edges_.size() - 1);
  }

  [[nodiscard]] std::size_t vertex_count() const noexcept { return vertex_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Packs the current state into an immutable CSR graph. The builder stays
  /// valid (construction may continue, e.g. to finalize snapshots in tests).
  [[nodiscard]] CsrGraph finalize() const { return CsrGraph(*this); }

 private:
  std::size_t vertex_count_ = 0;
  std::vector<Edge> edges_;
};

/// A finalized circuit-switching network: an immutable CSR graph plus
/// distinguished terminal vertices. `stage[v]` is the construction stage of
/// v (or -1 when the construction is not staged); all §6 networks are
/// staged DAGs. Produced by NetworkBuilder::finalize().
struct Network {
  CsrGraph g;
  std::vector<VertexId> inputs;
  std::vector<VertexId> outputs;
  std::vector<std::int32_t> stage;  // may be empty if unstaged
  std::string name;

  [[nodiscard]] std::size_t size() const noexcept { return g.edge_count(); }
  [[nodiscard]] bool is_input(VertexId v) const;
  [[nodiscard]] bool is_output(VertexId v) const;
  [[nodiscard]] bool is_terminal(VertexId v) const { return is_input(v) || is_output(v); }

  /// Validates invariants: terminal ids in range, stages (if present)
  /// monotone along edges. Returns an empty string on success, else a
  /// description of the first violation.
  [[nodiscard]] std::string validate() const;
};

/// Construction-phase counterpart of Network: same fields over a mutable
/// GraphBuilder. Every network constructor assembles one of these and
/// returns finalize(), which packs the graph into CSR form.
struct NetworkBuilder {
  GraphBuilder g;
  std::vector<VertexId> inputs;
  std::vector<VertexId> outputs;
  std::vector<std::int32_t> stage;  // may be empty if unstaged
  std::string name;

  /// Finalizes into an immutable Network; vertex ids are builder-insertion
  /// order. The builder stays valid.
  [[nodiscard]] Network finalize() const;
};

/// Re-opens a finalized Network for append-only growth: a GraphBuilder
/// seeded with the base's vertex count and its edges in id order, plus the
/// new terminals and stage labels. All ids are the BASE network's ids; new
/// vertices and edges continue densely after them. finalize_grown() packs
/// the result and never touches the base. Growth only appends, so the grown
/// network keeps every base id:
///   - vertex ids: base vertex v is grown vertex v;
///   - edge ids: grown edge e < base edge count joins the same two vertices;
///   - terminal indices: grown inputs[i] == base inputs[i] for every base i
///     (outputs likewise), with new terminals appended after them;
///   - incidence order: each base vertex's lists keep their base order as a
///     prefix (GraphBuilder's counting sort is stable by edge id).
class NetworkDelta {
 public:
  /// The base must outlive the delta and stay unchanged (it is immutable).
  explicit NetworkDelta(const Network& base);

  /// Appends one vertex with construction stage `stage` (-1 = unstaged).
  VertexId add_vertex(std::int32_t stage = -1) {
    new_stage_.push_back(stage);
    return g_.add_vertex();
  }
  /// Appends `count` vertices at one stage, returns the id of the first.
  VertexId add_vertices(std::size_t count, std::int32_t stage = -1) {
    new_stage_.insert(new_stage_.end(), count, stage);
    return g_.add_vertices(count);
  }
  /// Appends one switch; endpoints may be base or delta vertices.
  EdgeId add_edge(VertexId from, VertexId to) { return g_.add_edge(from, to); }
  /// Registers a new terminal: appended AFTER the base terminals, so every
  /// pre-growth terminal index keeps its meaning.
  void add_input(VertexId v) { new_inputs_.push_back(v); }
  void add_output(VertexId v) { new_outputs_.push_back(v); }
  /// Replaces the grown stage vector wholesale (size must be the grown
  /// vertex count). Growth may legitimately restage OLD vertices — wrapping
  /// a plane inserts stages before and after it — and stage labels are
  /// diagnostic metadata, not part of the id-stability contract.
  void restage(std::vector<std::int32_t> stages) { restage_ = std::move(stages); }
  void rename(std::string name) { name_ = std::move(name); }

  /// Packs base + delta into the grown Network (see the class comment).
  [[nodiscard]] Network finalize_grown() const;

 private:
  const Network* base_;
  GraphBuilder g_;
  std::vector<VertexId> new_inputs_, new_outputs_;
  std::vector<std::int32_t> new_stage_;
  std::optional<std::vector<std::int32_t>> restage_;
  std::string name_;
};

}  // namespace ftcs::graph
