// A fault instance: one random outcome of the switch failure model applied
// to a network, with the graph-theoretic interpretation of §2:
//   open failure   -> the edge ceases to exist,
//   closed failure -> the edge's endpoints contract to one vertex,
//   normal         -> the edge is unaffected.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault_model.hpp"
#include "graph/digraph.hpp"
#include "graph/dsu.hpp"

namespace ftcs::fault {

class FaultInstance {
 public:
  /// Samples a fresh instance for `net` under `model` with the given seed.
  FaultInstance(const graph::Network& net, const FaultModel& model,
                std::uint64_t seed);

  /// Builds an instance from explicit failures (for tests / adversarial use).
  FaultInstance(const graph::Network& net, std::vector<Failure> failures);

  [[nodiscard]] const graph::Network& network() const noexcept { return *net_; }
  [[nodiscard]] const std::vector<Failure>& failures() const noexcept {
    return failures_;
  }

  [[nodiscard]] SwitchState state(graph::EdgeId e) const noexcept;
  [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }
  [[nodiscard]] std::size_t closed_count() const noexcept {
    return failures_.size() - open_count_;
  }

  /// A vertex is faulty iff some incident edge is in a failed state (§6).
  /// NOTE: §6 applies this notion only to vertices "that are not an input or
  /// an output"; use faulty_non_terminal_mask() for the paper's semantics.
  [[nodiscard]] const std::vector<std::uint8_t>& faulty_vertices() const {
    return faulty_vertex_;
  }

  /// The §6 faulty mask: terminal vertices are never considered faulty
  /// (their failed switches are unusable through the discarded internal
  /// endpoint, or through failed_edge_mask() for terminal-terminal edges).
  [[nodiscard]] std::vector<std::uint8_t> faulty_non_terminal_mask() const;

  /// The §6 faulty notion restricted to OPEN failures: 1 where an
  /// open-failed switch is incident (a stuck-on switch still conducts, so
  /// it never marks its endpoints). This is the discard set of
  /// repair_by_contraction, and the vertices a router kills to route the
  /// same instance live; with `spare_terminals`, terminal vertices are
  /// never marked.
  [[nodiscard]] std::vector<std::uint8_t> open_faulty_mask(
      bool spare_terminals) const;

  /// Per-edge mask: 1 where the switch is in a failed state.
  [[nodiscard]] std::vector<std::uint8_t> failed_edge_mask() const;
  [[nodiscard]] bool is_faulty(graph::VertexId v) const { return faulty_vertex_[v] != 0; }
  [[nodiscard]] std::size_t faulty_vertex_count() const noexcept {
    return faulty_vertex_total_;
  }

  /// Electrical-node classes after closed-failure contraction. Lazy.
  [[nodiscard]] graph::Dsu& contraction();

  /// True iff two distinct terminals (input or output) contract to a single
  /// electrical node — the catastrophic "short" of Lemma 7.
  [[nodiscard]] bool terminals_shorted();

  /// The pair of shorted terminals if any (first found), for diagnostics.
  [[nodiscard]] std::optional<std::pair<graph::VertexId, graph::VertexId>>
  shorted_terminal_pair();

 private:
  void index_failures();

  const graph::Network* net_;
  std::vector<Failure> failures_;  // sorted by edge id
  std::vector<std::uint8_t> faulty_vertex_;
  std::size_t faulty_vertex_total_ = 0;
  std::size_t open_count_ = 0;
  std::optional<graph::Dsu> contraction_;
};

}  // namespace ftcs::fault
