#include "ftcs/router.hpp"

#include <algorithm>

namespace ftcs::core {

// ------------------------------------------------------- liveness overlay

bool Router::path_carried(std::span<const graph::VertexId> path) const {
  const auto& g = net_->g;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const graph::VertexId u = path[i], v = path[i + 1];
    bool carried = false;
    const auto eids = g.out_edges(u);
    const auto tgts = g.out_targets(u);
    for (std::size_t k = 0; k < eids.size() && !carried; ++k)
      carried = tgts[k] == v && !dead_edges_.test(eids[k]);
    const auto reids = g.in_edges(u);
    const auto rsrcs = g.in_sources(u);
    for (std::size_t k = 0; k < reids.size() && !carried; ++k)
      carried = rsrcs[k] == v && !dead_edges_.test(reids[k]) &&
                contracted_edges_.test(reids[k]);
    if (!carried) return false;
  }
  return true;
}

// ------------------------------------------------------------ construction

Router::Router(const graph::Network& net) : net_(&net), reach_(net) {
  const std::size_t v_count = net.g.vertex_count();
  const std::size_t e_count = net.g.edge_count();
  busy_.resize(v_count);
  dead_edges_.resize(e_count);
  contracted_edges_.resize(e_count);
  dead_.resize(v_count);
  in_busy_.assign(net.inputs.size(), 0);
  out_busy_.assign(net.outputs.size(), 0);
  // Allocated here, between the terminal slots and the search scratch: the
  // heap layout the header's calls_ comment describes depends on it.
  calls_ = std::make_unique<Calls>();
  scratch_.init(v_count);
  prepare_calls();
}

void Router::prepare_calls() {
  const std::size_t v_count = net_->g.vertex_count();
  // Each active call holds one input and one output: reserving that bound
  // keeps connect()/disconnect() allocation-free. The live paths are
  // vertex-disjoint, so their records fit in V words plus two header words
  // per call.
  const std::size_t max_calls =
      std::min(net_->inputs.size(), net_->outputs.size()) + 1;
  calls_->table.reserve(max_calls);
  calls_->free_slots.reserve(max_calls);
  calls_->records.resize(v_count + 2 * max_calls);
}

std::uint32_t Router::write_record(CallId id) {
  const auto path = scratch_.path();
  const auto length = static_cast<std::uint32_t>(path.size());
  // Free slots are handed out newest first, so the slot's last record is
  // usually still in cache: reuse it when the path fits.
  std::vector<std::uint32_t>& records = calls_->records;
  std::uint32_t at = calls_->table[id].at;
  if (at == Call::kNoRecord || records[at - 1] < length) {
    if (records.size() - calls_->top < 2 + std::size_t{length}) compact();
    records[calls_->top] = id;
    records[calls_->top + 1] = length;
    at = calls_->top + 2;
    calls_->top = at + length;
  }
  for (std::uint32_t i = 0; i < length; ++i) records[at + i] = path[i].v;
  return at;
}

void Router::compact() {
  std::vector<std::uint32_t>& records = calls_->records;
  std::uint32_t to = 0;
  for (std::uint32_t at = 0; at < calls_->top;) {
    const CallId id = records[at];
    const std::uint32_t capacity = records[at + 1];
    Call& c = calls_->table[id];
    if (c.at == at + 2 && c.length == 0) {
      c.at = Call::kNoRecord;  // a free slot's record: dropped
    } else if (c.at == at + 2) {
      // Live: moved down (to <= at, so a forward copy is safe) and trimmed
      // to its path, which keeps the store's bound.
      const std::uint32_t* path = records.data() + c.at;
      std::uint32_t* dst = records.data() + to;
      if (to != at) std::copy(path, path + c.length, dst + 2);
      dst[0] = id;
      dst[1] = c.length;
      c.at = to + 2;
      to += 2 + c.length;
    }
    at += 2 + capacity;
  }
  calls_->top = to;
}

void Router::grow(const graph::Network& net) {
  // Growth only appends, so every id keeps its meaning: each bitset is
  // copied at the same indices into one of the grown size, and appended
  // ids start clear: idle, alive, healthy.
  const auto extend = [](const util::Bitset& bits, std::size_t n) {
    util::Bitset grown(n);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (bits.test(i)) grown.set(i);
    return grown;
  };
  const std::size_t v_count = net.g.vertex_count();
  const std::size_t e_count = net.g.edge_count();
  busy_ = extend(busy_, v_count);
  dead_ = extend(dead_, v_count);
  dead_edges_ = extend(dead_edges_, e_count);
  contracted_edges_ = extend(contracted_edges_, e_count);
  in_busy_.resize(net.inputs.size(), 0);
  out_busy_.resize(net.outputs.size(), 0);
  reach_ = ReachIndex(net);
  net_ = &net;
  // New switches can add ancestors to any weld head: recount from scratch.
  if (!weld_reach_.empty()) {
    clear_weld_counts();
    for (graph::EdgeId e = 0; e < e_count; ++e)
      if (contracted_edges_.test(e)) count_weld(net.g.edge(e).to, 1);
  }
  // The path records stay where they are; prepare_calls() enlarges the
  // store to the grown bound. No new vertex carries a call yet, so the
  // owner map only extends.
  scratch_.init(v_count);
  prepare_calls();
  if (!owner_.empty()) owner_.resize(v_count, kNoCall);
}

// ------------------------------------------------------- connect/disconnect

bool Router::find(std::uint32_t in, std::uint32_t out) {
  // The overlay gates, one load each: with no outstanding fault or weld the
  // search runs the overlay-free, weld-free hot path.
  const bool overlay = failed_ > 0;
  const auto is_busy = [this](graph::VertexId v) { return busy_.test(v); };
  const auto edge_blocked = [this, overlay](graph::EdgeId e) {
    return overlay && dead_edges_.test(e);
  };
  const auto edge_contracted = [this](graph::EdgeId e) {
    return contracted_edges_.test(e);
  };
  const auto reaches_weld = [this](graph::VertexId v) {
    return weld_reach_[v] != 0;
  };
  return detail::find_idle_path(
             net_->g, reach_.probe(out), net_->inputs[in], net_->outputs[out],
             reach_.first_hop(in, out), scratch_,
             calls_->stats.vertices_visited, is_busy, edge_blocked,
             edge_contracted, reaches_weld,
             welded_ > 0) != graph::kNoVertex;
}

auto Router::record(std::uint32_t in, std::uint32_t out) -> CallId {
  const auto length = static_cast<std::uint32_t>(scratch_.path().size());
  calls_->busy_count += length;
  ++calls_->active;
  ++calls_->stats.accepted;
  calls_->stats.path_vertices += length;
  CallId id;
  if (!calls_->free_slots.empty()) {
    id = calls_->free_slots.back();
    calls_->free_slots.pop_back();
  } else {
    id = static_cast<CallId>(calls_->table.size());
    calls_->table.emplace_back();  // within prepare_calls()'s reserve
  }
  calls_->table[id] = {in, out, write_record(id), length};
  if (!owner_.empty()) own_path(id);
  return id;
}

auto Router::connect(std::uint32_t in, std::uint32_t out) -> CallId {
  ++calls_->stats.connect_calls;
  const graph::VertexId src = net_->inputs[in];
  const graph::VertexId dst = net_->outputs[out];
  if (dead_.test(src) || dead_.test(dst) || in_busy_[in] || out_busy_[out]) {
    ++calls_->stats.rejected_terminal;
    return kNoCall;
  }
  // An endpoint busy as another call's hop cannot anchor a path.
  if (busy_.test(src) || busy_.test(dst) || !find(in, out)) {
    ++calls_->stats.rejected_no_path;
    return kNoCall;
  }
  in_busy_[in] = 1;
  out_busy_[out] = 1;
  for (const detail::SearchScratch::Frame& f : scratch_.path())
    busy_.set(f.v);
  return record(in, out);
}

void Router::disconnect(CallId call) {
  Call& c = calls_->table[call];
  ++calls_->stats.disconnects;
  // Path vertices are never dead (the search cannot enter them), so
  // freeing is a plain bit reset. The record stays with the slot for its
  // next call (or until a compaction drops it).
  for (const graph::VertexId v : path(call)) busy_.reset(v);
  calls_->busy_count -= c.length;
  out_busy_[c.out] = 0;
  in_busy_[c.in] = 0;
  c.length = 0;
  --calls_->active;
  calls_->free_slots.push_back(call);
}

auto Router::active_call_ids() const -> std::vector<CallId> {
  std::vector<CallId> ids;
  ids.reserve(calls_->active);
  for (CallId id = 0; id < calls_->table.size(); ++id)
    if (calls_->table[id].length != 0) ids.push_back(id);
  return ids;
}

// --------------------------------------------------------- liveness overlay

void Router::fail_edge(graph::EdgeId e) {
  if (dead_edges_.try_set(e)) ++failed_;
}

void Router::repair_edge(graph::EdgeId e) {
  if (!dead_edges_.test(e)) return;
  dead_edges_.reset(e);
  --failed_;
}

void Router::contract_edge(graph::EdgeId e) {
  // A failed switch wins: the search never crosses it, welded or not.
  if (!contracted_edges_.try_set(e)) return;
  if (weld_reach_.empty()) clear_weld_counts();
  count_weld(net_->g.edge(e).to, 1);
  ++welded_;
}

void Router::uncontract_edge(graph::EdgeId e) {
  if (!contracted_edges_.test(e)) return;
  contracted_edges_.reset(e);
  --welded_;
  count_weld(net_->g.edge(e).to, -1);
}

void Router::clear_weld_counts() {
  weld_reach_.assign(net_->g.vertex_count(), 0);
  walk_seen_.assign(net_->g.vertex_count(), 0);
}

void Router::count_weld(graph::VertexId head, int delta) {
  // A vertex that reaches every output is in every cone, so the search
  // never reads its count; its ancestors reach every output too, so the
  // walk stops there.
  if (reach_.reaches_all(head)) return;
  const graph::CsrGraph& g = net_->g;
  walk_queue_.assign(1, head);
  walk_seen_[head] = 1;
  for (std::size_t i = 0; i < walk_queue_.size(); ++i) {
    const graph::VertexId v = walk_queue_[i];
    weld_reach_[v] += static_cast<std::uint32_t>(delta);
    for (const graph::VertexId u : g.in_sources(v))
      if (!walk_seen_[u] && !reach_.reaches_all(u)) {
        walk_seen_[u] = 1;
        walk_queue_.push_back(u);
      }
  }
  for (const graph::VertexId v : walk_queue_) walk_seen_[v] = 0;
}

void Router::kill_vertex(graph::VertexId v) {
  // No live call holds v (precondition), so its busy bit is free to take.
  if (dead_.test(v)) return;
  dead_.set(v);
  busy_.set(v);
}

void Router::revive_vertex(graph::VertexId v) {
  if (!dead_.test(v)) return;
  dead_.reset(v);
  busy_.reset(v);
}

void Router::own_path(CallId id) {
  for (const graph::VertexId v : path(id)) owner_[v] = id;
}

void Router::build_owner_map() {
  owner_.assign(net_->g.vertex_count(), kNoCall);
  for (const CallId id : active_call_ids()) own_path(id);
}

auto Router::call_at(graph::VertexId v) -> CallId {
  if (owner_.empty()) build_owner_map();
  // A hangup leaves its entries behind, and its slot may since carry a
  // call on another path: the entry counts only while the named call's
  // record still holds v.
  const CallId id = owner_[v];
  if (id == kNoCall || calls_->table[id].length == 0) return kNoCall;
  const auto p = path(id);
  return std::find(p.begin(), p.end(), v) == p.end() ? kNoCall : id;
}

}  // namespace ftcs::core
