#include "fault/weld_components.hpp"

#include <algorithm>

namespace ftcs::fault {

WeldComponents::WeldComponents(const graph::Network& net) : net_(&net) {
  const std::size_t n = net.g.vertex_count();
  is_welded_.assign(net.g.edge_count(), 0);
  is_terminal_.assign(n, 0);
  for (graph::VertexId v : net.inputs) is_terminal_[v] = 1;
  for (graph::VertexId v : net.outputs) is_terminal_[v] = 1;
  dsu_.reset(n);
  terminal_count_.resize(n);
  terminal_rep_.resize(n);
  terminal_rep2_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) reset_census(v);
}

void WeldComponents::reset_census(graph::VertexId v) {
  terminal_count_[v] = is_terminal_[v];
  terminal_rep_[v] = is_terminal_[v] ? v : graph::kNoVertex;
  terminal_rep2_[v] = graph::kNoVertex;
}

void WeldComponents::contract(graph::EdgeId e) {
  const graph::Edge& ed = net_->g.edge(e);
  graph::VertexId ra = dsu_.find(ed.from);
  graph::VertexId rb = dsu_.find(ed.to);
  if (ra == rb) return;
  const bool was_a = terminal_count_[ra] >= 2;
  const bool was_b = terminal_count_[rb] >= 2;
  const std::uint32_t merged = terminal_count_[ra] + terminal_count_[rb];
  // A diagnostic pair for the merged node: prefer an already-shorted side's
  // pair, else one representative from each side (the bridging case).
  graph::VertexId rep = graph::kNoVertex;
  graph::VertexId rep2 = graph::kNoVertex;
  if (was_a) {
    rep = terminal_rep_[ra];
    rep2 = terminal_rep2_[ra];
  } else if (was_b) {
    rep = terminal_rep_[rb];
    rep2 = terminal_rep2_[rb];
  } else {
    rep = terminal_rep_[ra] != graph::kNoVertex ? terminal_rep_[ra]
                                                : terminal_rep_[rb];
    if (terminal_rep_[ra] != graph::kNoVertex &&
        terminal_rep_[rb] != graph::kNoVertex) {
      rep2 = terminal_rep_[rb];
    }
  }
  dsu_.unite(ra, rb);
  const graph::VertexId r = dsu_.find(ra);
  terminal_count_[r] = merged;
  terminal_rep_[r] = rep;
  terminal_rep2_[r] = rep2;
  const bool now = merged >= 2;
  shorted_components_ += static_cast<std::size_t>(now) -
                         static_cast<std::size_t>(was_a) -
                         static_cast<std::size_t>(was_b);
}

bool WeldComponents::add_weld(graph::EdgeId e) {
  if (is_welded_[e]) return false;
  is_welded_[e] = 1;
  welds_.push_back(e);
  const bool was = shorted();
  contract(e);
  return !was && shorted();
}

bool WeldComponents::remove_weld(graph::EdgeId e) {
  if (!is_welded_[e]) return false;
  is_welded_[e] = 0;
  const bool was = shorted();
  // Every node the old weld set merged is made of its welds' endpoints:
  // return exactly those to pristine, then replay the survivors.
  std::vector<graph::VertexId> touched;
  touched.reserve(2 * welds_.size());
  for (const graph::EdgeId w : welds_) {
    touched.push_back(net_->g.edge(w).from);
    touched.push_back(net_->g.edge(w).to);
  }
  welds_.erase(std::find(welds_.begin(), welds_.end(), e));
  dsu_.split(touched);
  for (const graph::VertexId v : touched) reset_census(v);
  shorted_components_ = 0;
  for (const graph::EdgeId w : welds_) contract(w);
  return was && !shorted();
}

std::optional<std::pair<graph::VertexId, graph::VertexId>>
WeldComponents::shorted_pair() const {
  if (!shorted()) return std::nullopt;
  // A shorted node holds two terminals, so it is no singleton: its root is
  // the root of some weld's endpoint. Roots only — a non-root's census is
  // stale by construction.
  graph::VertexId root = graph::kNoVertex;
  for (const graph::EdgeId w : welds_) {
    const graph::VertexId r = dsu_.find(net_->g.edge(w).from);
    if (terminal_count_[r] >= 2) root = std::min(root, r);
  }
  return std::make_pair(terminal_rep_[root], terminal_rep2_[root]);
}

}  // namespace ftcs::fault
