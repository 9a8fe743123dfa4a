#include "ftcs/router.hpp"

#include <algorithm>

namespace ftcs::core {

GreedyRouter::GreedyRouter(const graph::Network& net,
                           std::vector<std::uint8_t> blocked,
                           std::vector<std::uint8_t> blocked_edges)
    : net_(&net), reach_(net) {
  const std::size_t v_count = net.g.vertex_count();
  blocked_.resize(v_count);
  if (!blocked.empty()) blocked_.assign_bytes(blocked.data(), blocked.size());
  busy_ = blocked_;
  if (!blocked_edges.empty())
    blocked_edges_.assign_bytes(blocked_edges.data(), blocked_edges.size());
  in_busy_.assign(net.inputs.size(), 0);
  out_busy_.assign(net.outputs.size(), 0);

  scratch_.init(v_count);
  path_next_.assign(v_count, graph::kNoVertex);

  // Each active call consumes one input and one output, so slot count is
  // bounded; reserving here keeps connect()/disconnect() allocation-free.
  const std::size_t max_calls =
      std::min(net.inputs.size(), net.outputs.size()) + 1;
  calls_.reserve(max_calls);
  free_slots_.reserve(max_calls);
}

void GreedyRouter::grow(const graph::Network& net,
                        std::span<const graph::VertexId> vmap) {
  const std::size_t old_v = net_->g.vertex_count();
  const std::size_t old_e = net_->g.edge_count();
  const std::size_t v_count = net.g.vertex_count();
  const std::size_t e_count = net.g.edge_count();

  // Vertex-indexed bitsets become their exact image under vmap (new ids
  // start clear: appended vertices are idle and unblocked). Lazily-sized
  // overlay registries that never materialized stay empty.
  const auto remap_vertex_bits = [&](util::Bitset& b) {
    if (b.empty()) return;
    util::Bitset grown(v_count);
    for (std::size_t v = 0; v < old_v; ++v)
      if (b.test(v)) grown.set(vmap[v]);
    b = std::move(grown);
  };
  remap_vertex_bits(blocked_);
  remap_vertex_bits(busy_);
  remap_vertex_bits(dead_);
  remap_vertex_bits(fault_claimed_);
  // Edge-indexed bitsets extend in place: edge ids are stable, appended
  // switches are healthy.
  const auto extend_edge_bits = [&](util::Bitset& b) {
    if (b.empty()) return;
    util::Bitset grown(e_count);
    const std::size_t lim = std::min(old_e, b.size());
    for (std::size_t e = 0; e < lim; ++e)
      if (b.test(e)) grown.set(e);
    b = std::move(grown);
  };
  extend_edge_bits(blocked_edges_);
  extend_edge_bits(dead_edges_);
  extend_edge_bits(contracted_edges_);
  extend_edge_bits(static_edges_);

  // Successor array and call heads: the active paths' exact image.
  std::vector<graph::VertexId> next(v_count, graph::kNoVertex);
  for (std::size_t v = 0; v < old_v; ++v)
    if (path_next_[v] != graph::kNoVertex) next[vmap[v]] = vmap[path_next_[v]];
  path_next_ = std::move(next);
  for (Call& c : calls_)
    if (c.head != graph::kNoVertex) c.head = vmap[c.head];

  // Terminal slots: old indices keep their meaning (prefix-stable terminal
  // lists), appended slots start idle.
  in_busy_.resize(net.inputs.size(), 0);
  out_busy_.resize(net.outputs.size(), 0);

  // Re-index the grown network; re-establish the allocation-free reserves
  // at the grown bounds.
  reach_ = ReachIndex(net);
  scratch_.init(v_count);
  const std::size_t max_calls =
      std::min(net.inputs.size(), net.outputs.size()) + 1;
  calls_.reserve(max_calls);
  free_slots_.reserve(max_calls);

  net_ = &net;
}

void GreedyRouter::ensure_overlay() {
  if (!dead_.empty()) return;
  const std::size_t v_count = net_->g.vertex_count();
  const std::size_t e_count = net_->g.edge_count();
  dead_.resize(v_count);
  fault_claimed_.resize(v_count);
  dead_edges_.resize(e_count);
  contracted_edges_.resize(e_count);
  static_edges_ = blocked_edges_;  // snapshot of the construction-time mask
  if (blocked_edges_.empty()) blocked_edges_.resize(e_count);
}

void GreedyRouter::fail_edge(graph::EdgeId e) {
  ensure_overlay();
  if (dead_edges_.test(e)) return;
  dead_edges_.set(e);
  blocked_edges_.set(e);  // folded into the hot-path mask the search reads
}

void GreedyRouter::repair_edge(graph::EdgeId e) {
  if (dead_edges_.empty() || !dead_edges_.test(e)) return;
  dead_edges_.reset(e);
  if (static_edges_.empty() || !static_edges_.test(e)) blocked_edges_.reset(e);
}

void GreedyRouter::contract_edge(graph::EdgeId e) {
  ensure_overlay();
  if (contracted_edges_.test(e)) return;
  // The blocked mask wins: the search never crosses a blocked switch, welded
  // or not, so contracting a dead or statically blocked switch changes
  // nothing until it is repaired/never.
  contracted_edges_.set(e);
  ++contracted_count_;
}

void GreedyRouter::uncontract_edge(graph::EdgeId e) {
  if (contracted_edges_.empty() || !contracted_edges_.test(e)) return;
  contracted_edges_.reset(e);
  --contracted_count_;
}

void GreedyRouter::kill_vertex(graph::VertexId v) {
  ensure_overlay();
  if (dead_.test(v)) return;
  dead_.set(v);
  // A dead vertex holds its own busy bit, exactly like a statically blocked
  // one — the search then avoids it with zero extra hot-path state. If the
  // bit is already set the vertex was statically blocked (an active call is
  // excluded by precondition), and the claim is not ours to release.
  if (!busy_.test(v)) {
    busy_.set(v);
    fault_claimed_.set(v);
  }
}

void GreedyRouter::revive_vertex(graph::VertexId v) {
  if (dead_.empty() || !dead_.test(v)) return;
  dead_.reset(v);
  if (fault_claimed_.test(v)) {
    fault_claimed_.reset(v);
    busy_.reset(v);
  }
}

bool GreedyRouter::input_idle(std::uint32_t in) const {
  return !in_busy_[in] && !blocked_.test(net_->inputs[in]);
}

bool GreedyRouter::output_idle(std::uint32_t out) const {
  return !out_busy_[out] && !blocked_.test(net_->outputs[out]);
}

graph::VertexId GreedyRouter::search_one(graph::VertexId src,
                                         std::uint32_t out) {
  // Shared reach-guided depth-first search (ftcs/search.hpp); the busy test
  // is a plain bitset read — this router is the sole owner of busy_.
  const bool edge_faults = !blocked_edges_.empty();
  // Gated on OUTSTANDING welds (not the bitset's size — ensure_overlay
  // allocates it for any fault event): with none, the search instantiates
  // the contraction-free hot path.
  const bool contraction = contracted_count_ > 0;
  const auto is_busy = [this](graph::VertexId v) { return busy_.test(v); };
  const auto edge_blocked = [this, edge_faults](graph::EdgeId e) {
    return edge_faults && blocked_edges_.test(e);
  };
  const auto edge_contracted = [this](graph::EdgeId e) {
    return contracted_edges_.test(e);
  };
  return detail::find_idle_path(net_->g, reach_.probe(out), src,
                                net_->outputs[out], scratch_,
                                stats_.vertices_visited, is_busy, edge_blocked,
                                edge_contracted, contraction);
}

GreedyRouter::CallId GreedyRouter::connect(std::uint32_t in, std::uint32_t out) {
  ++stats_.connect_calls;
  if (!input_idle(in) || !output_idle(out)) {
    ++stats_.rejected_terminal;
    return kNoCall;
  }
  const graph::VertexId src = net_->inputs[in];
  const graph::VertexId dst = net_->outputs[out];

  // A terminal vertex occupied as an intermediate hop of another call cannot
  // anchor a new path: the per-vertex successor array stores at most one
  // call per vertex, so admitting it would corrupt both calls' chains.
  if (busy_.test(src) || busy_.test(dst)) {
    ++stats_.rejected_no_path;
    return kNoCall;
  }
  if (search_one(src, out) == graph::kNoVertex) {
    ++stats_.rejected_no_path;
    return kNoCall;
  }

  // Settle: thread the path dst..src (parent_f) through the successor array
  // and mark it busy.
  std::uint32_t length = 0;
  graph::VertexId next = graph::kNoVertex;
  for (graph::VertexId v = dst; v != graph::kNoVertex;
       v = scratch_.parent_f[v]) {
    path_next_[v] = next;
    busy_.set(v);
    next = v;
    ++length;
  }
  busy_count_ += length;
  in_busy_[in] = 1;
  out_busy_[out] = 1;
  ++active_;
  ++stats_.accepted;
  stats_.path_vertices += length;

  CallId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<CallId>(calls_.size());
    calls_.emplace_back();  // within capacity reserved at construction
  }
  calls_[id] = {in, out, src, length};
  return id;
}

void GreedyRouter::disconnect(CallId call) {
  Call& c = calls_[call];
  ++stats_.disconnects;
  // Path vertices are never statically blocked (the search cannot enter
  // them), so freeing is a plain bit reset.
  for (graph::VertexId v = c.head; v != graph::kNoVertex;) {
    const graph::VertexId nxt = path_next_[v];
    busy_.reset(v);
    path_next_[v] = graph::kNoVertex;
    v = nxt;
  }
  busy_count_ -= c.length;
  in_busy_[c.in] = 0;
  out_busy_[c.out] = 0;
  c.head = graph::kNoVertex;
  c.length = 0;
  --active_;
  free_slots_.push_back(call);
}

std::vector<graph::VertexId> GreedyRouter::path_of(CallId call) const {
  const Call& c = calls_[call];
  std::vector<graph::VertexId> path;
  path.reserve(c.length);
  for (graph::VertexId v = c.head; v != graph::kNoVertex; v = path_next_[v])
    path.push_back(v);
  return path;
}

}  // namespace ftcs::core
