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

Router::Router(const graph::Network& net, unsigned sessions)
    : net_(&net), reach_(net) {
  const std::size_t v_count = net.g.vertex_count();
  const std::size_t e_count = net.g.edge_count();
  sessions = std::max(sessions, 1u);
  busy_.resize(v_count);
  dead_edges_.resize(e_count);
  contracted_edges_.resize(e_count);
  dead_.resize(v_count);
  in_busy_.assign(net.inputs.size(), 0);
  out_busy_.assign(net.outputs.size(), 0);
  sessions_.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s)
    sessions_.push_back(Session(*this, s));
  scratch_.init(v_count);
  for (Session& s : sessions_) s.prepare();
}

void Router::Session::prepare() {
  const graph::Network& net = *r_->net_;
  const std::size_t v_count = net.g.vertex_count();
  // Each active call holds one input and one output, and one session may
  // carry every call: reserving that bound keeps connect()/disconnect()
  // allocation-free. The live paths of one session are vertex-disjoint, so
  // their records fit in V words plus two header words per call.
  const std::size_t max_calls =
      std::min(net.inputs.size(), net.outputs.size()) + 1;
  calls_.reserve(max_calls);
  free_slots_.reserve(max_calls);
  records_.resize(v_count + 2 * max_calls);
}

std::uint32_t Router::Session::write_record(CallId id) {
  const auto path = r_->scratch_.path();
  const auto length = static_cast<std::uint32_t>(path.size());
  // Free slots are handed out newest first, so the slot's last record is
  // usually still in cache: reuse it when the path fits.
  std::uint32_t at = calls_[id].at;
  if (at == Call::kNoRecord || records_[at - 1] < length) {
    if (records_.size() - top_ < 2 + std::size_t{length}) compact();
    records_[top_] = id;
    records_[top_ + 1] = length;
    at = top_ + 2;
    top_ = at + length;
  }
  for (std::uint32_t i = 0; i < length; ++i) records_[at + i] = path[i].v;
  return at;
}

void Router::Session::compact() {
  std::uint32_t to = 0;
  for (std::uint32_t at = 0; at < top_;) {
    const CallId id = records_[at];
    const std::uint32_t capacity = records_[at + 1];
    Call& c = calls_[id];
    if (c.at == at + 2 && c.length == 0) {
      c.at = Call::kNoRecord;  // a free slot's record: dropped
    } else if (c.at == at + 2) {
      // Live: moved down (to <= at, so a forward copy is safe) and trimmed
      // to its path, which keeps the store's bound.
      const std::uint32_t* path = records_.data() + c.at;
      std::uint32_t* dst = records_.data() + to;
      if (to != at) std::copy(path, path + c.length, dst + 2);
      dst[0] = id;
      dst[1] = c.length;
      c.at = to + 2;
      to += 2 + c.length;
    }
    at += 2 + capacity;
  }
  top_ = to;
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
  // The path records stay where they are; prepare() enlarges each store
  // to the grown bound. No new vertex carries a call yet, so the owner map
  // only extends.
  scratch_.init(v_count);
  for (Session& s : sessions_) s.prepare();
  if (!owner_.empty()) owner_.resize(v_count, kNoCall);
}

// ------------------------------------------------------- connect/disconnect

bool Router::Session::find(std::uint32_t in, std::uint32_t out) {
  const Router& r = *r_;
  // The overlay gates, one load each: with no outstanding fault or weld the
  // search runs the overlay-free, weld-free hot path.
  const bool overlay = r.failed_ > 0;
  const auto is_busy = [&r](graph::VertexId v) { return r.busy_.test(v); };
  const auto edge_blocked = [&r, overlay](graph::EdgeId e) {
    return overlay && r.dead_edges_.test(e);
  };
  const auto edge_contracted = [&r](graph::EdgeId e) {
    return r.contracted_edges_.test(e);
  };
  const auto reaches_weld = [&r](graph::VertexId v) {
    return r.weld_reach_[v] != 0;
  };
  return detail::find_idle_path(r.net_->g, r.reach_.probe(out),
                                r.net_->inputs[in], r.net_->outputs[out],
                                r.reach_.first_hop(in, out), r_->scratch_,
                                stats_.vertices_visited, is_busy, edge_blocked,
                                edge_contracted, reaches_weld,
                                r.welded_ > 0) != graph::kNoVertex;
}

auto Router::Session::record(std::uint32_t in, std::uint32_t out)
    -> CallId {
  const auto length = static_cast<std::uint32_t>(r_->scratch_.path().size());
  busy_count_ += length;
  ++active_;
  ++stats_.accepted;
  stats_.path_vertices += length;
  CallId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<CallId>(calls_.size());
    calls_.emplace_back();  // within the capacity prepare() reserved
  }
  calls_[id] = {in, out, write_record(id), length};
  if (!r_->owner_.empty()) r_->own_path(*this, id);
  return id;
}

auto Router::Session::connect(std::uint32_t in, std::uint32_t out)
    -> CallId {
  Router& r = *r_;
  ++stats_.connect_calls;
  const graph::VertexId src = r.net_->inputs[in];
  const graph::VertexId dst = r.net_->outputs[out];
  if (r.dead_.test(src) || r.dead_.test(dst) || r.in_busy_[in] ||
      r.out_busy_[out]) {
    ++stats_.rejected_terminal;
    return kNoCall;
  }
  // An endpoint busy as another call's hop cannot anchor a path.
  if (r.busy_.test(src) || r.busy_.test(dst) || !find(in, out)) {
    ++stats_.rejected_no_path;
    return kNoCall;
  }
  r.in_busy_[in] = 1;
  r.out_busy_[out] = 1;
  for (const detail::SearchScratch::Frame& f : r.scratch_.path())
    r.busy_.set(f.v);
  return record(in, out);
}

void Router::Session::disconnect(CallId call) {
  Router& r = *r_;
  Call& c = calls_[call];
  ++stats_.disconnects;
  // Path vertices are never dead (the search cannot enter them), so
  // freeing is a plain bit reset. The record stays with the slot for its
  // next call (or until a compaction drops it).
  for (const graph::VertexId v : path(call)) r.busy_.reset(v);
  busy_count_ -= c.length;
  r.out_busy_[c.out] = 0;
  r.in_busy_[c.in] = 0;
  c.length = 0;
  --active_;
  free_slots_.push_back(call);
}

auto Router::Session::active_call_ids() const -> std::vector<CallId> {
  std::vector<CallId> ids;
  ids.reserve(active_);
  for (CallId id = 0; id < calls_.size(); ++id)
    if (calls_[id].length != 0) ids.push_back(id);
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

void Router::own_path(const Session& s, CallId id) {
  const std::uint32_t owner = id * session_count() + s.index_;
  for (const graph::VertexId v : s.path(id)) owner_[v] = owner;
}

void Router::build_owner_map() {
  owner_.assign(net_->g.vertex_count(), kNoCall);
  for (const Session& s : sessions_)
    for (const CallId id : s.active_call_ids()) own_path(s, id);
}

CallRef Router::call_at(graph::VertexId v) {
  if (owner_.empty()) build_owner_map();
  // A hangup leaves its entries behind, and its slot may since carry a
  // call on another path: the entry counts only while the named call's
  // record still holds v.
  const std::uint32_t owner = owner_[v];
  if (owner == kNoCall) return {};
  const CallRef ref{owner % session_count(), owner / session_count()};
  const Session& s = sessions_[ref.session];
  if (s.calls_[ref.call].length == 0) return {};
  const auto path = s.path(ref.call);
  if (std::find(path.begin(), path.end(), v) == path.end()) return {};
  return ref;
}

// -------------------------------------------------------------- aggregates

RouterStats Router::stats() const {
  RouterStats total;
  for (const Session& s : sessions_) total += s.stats();
  return total;
}

void Router::reset_stats() noexcept {
  for (Session& s : sessions_) s.reset_stats();
}

std::size_t Router::active_calls() const {
  std::size_t total = 0;
  for (const Session& s : sessions_) total += s.active_calls();
  return total;
}

std::size_t Router::busy_vertices() const {
  std::size_t total = 0;
  for (const Session& s : sessions_) total += s.busy_vertices();
  return total;
}

}  // namespace ftcs::core
