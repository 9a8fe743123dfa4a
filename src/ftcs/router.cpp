#include "ftcs/router.hpp"

#include <algorithm>

namespace ftcs::core {

GreedyRouter::GreedyRouter(const graph::Network& net,
                           std::vector<std::uint8_t> blocked,
                           std::vector<std::uint8_t> blocked_edges)
    : net_(&net) {
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

  // Wave scratch: a wave holds at most one request per terminal slot, so
  // max_calls bounds the ACTIVE set (the window itself may be larger; the
  // surplus defers). Reserved here so steady-state waves do not allocate.
  wave_src_.reserve(max_calls);
  wave_dst_.reserve(max_calls);
  wave_meet_.reserve(max_calls);
  wave_total_.reserve(max_calls);
  wave_slot_.reserve(max_calls);
  wave_path_.reserve(v_count);
  in_hold_.assign(net.inputs.size(), 0);
  out_hold_.assign(net.outputs.size(), 0);
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
  in_hold_.assign(net.inputs.size(), 0);
  out_hold_.assign(net.outputs.size(), 0);

  // Re-establish the allocation-free reserves at the grown bounds.
  scratch_.init(v_count);
  const std::size_t max_calls =
      std::min(net.inputs.size(), net.outputs.size()) + 1;
  calls_.reserve(max_calls);
  free_slots_.reserve(max_calls);
  wave_src_.reserve(max_calls);
  wave_dst_.reserve(max_calls);
  wave_meet_.reserve(max_calls);
  wave_total_.reserve(max_calls);
  wave_slot_.reserve(max_calls);
  wave_path_.reserve(v_count);

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
  blocked_edges_.set(e);  // folded into the hot-path mask the BFS reads
}

void GreedyRouter::repair_edge(graph::EdgeId e) {
  if (dead_edges_.empty() || !dead_edges_.test(e)) return;
  dead_edges_.reset(e);
  if (static_edges_.empty() || !static_edges_.test(e)) blocked_edges_.reset(e);
}

void GreedyRouter::contract_edge(graph::EdgeId e) {
  ensure_overlay();
  if (contracted_edges_.test(e)) return;
  // The blocked mask wins: the BFS tests edge_blocked before the contracted
  // predicate, so contracting a dead or statically blocked switch changes
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
  // one — the BFS then avoids it with zero extra hot-path state. If the bit
  // is already set the vertex was statically blocked (an active call is
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
                                         graph::VertexId dst) {
  // Shared level-synchronized bidirectional BFS (ftcs/search.hpp); the busy
  // test is a plain bitset read — this router is the sole owner of busy_.
  const bool edge_faults = !blocked_edges_.empty();
  // Gated on OUTSTANDING welds (not the bitset's size — ensure_overlay
  // allocates it for any fault event): with none, the search instantiates
  // the exact pre-contraction hot path.
  const bool contraction = contracted_count_ > 0;
  const auto is_busy = [this](graph::VertexId v) { return busy_.test(v); };
  const auto edge_blocked = [this, edge_faults](graph::EdgeId e) {
    return edge_faults && blocked_edges_.test(e);
  };
  const auto edge_contracted = [this](graph::EdgeId e) {
    return contracted_edges_.test(e);
  };
  detail::DirStats dir;
  const graph::VertexId meet = detail::bidir_shortest_idle_path(
      net_->g, src, dst, scratch_, stats_.vertices_visited, dir, is_busy,
      edge_blocked, edge_contracted, contraction);
  stats_.bottom_up_levels += dir.bottom_up_levels;
  stats_.visits_forward += dir.visits_forward;
  stats_.visits_backward += dir.visits_backward;
  return meet;
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
  const graph::VertexId best_meet = search_one(src, dst);
  if (best_meet == graph::kNoVertex) {
    ++stats_.rejected_no_path;
    return kNoCall;
  }

  // Settle: thread the path through the successor array and mark it busy.
  // Forward half: src .. best_meet via parent_f.
  std::uint32_t length = 0;
  graph::VertexId next = graph::kNoVertex;
  for (graph::VertexId v = best_meet; v != graph::kNoVertex;
       v = scratch_.parent_f[v]) {
    path_next_[v] = next;
    busy_.set(v);
    next = v;
    ++length;
  }
  // Backward half: best_meet .. dst via parent_b.
  for (graph::VertexId v = best_meet; v != dst;) {
    const graph::VertexId w = scratch_.parent_b[v];
    path_next_[v] = w;
    busy_.set(w);
    v = w;
    ++length;
  }
  path_next_[dst] = graph::kNoVertex;
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

GreedyRouter::CallId GreedyRouter::settle_path(
    std::uint32_t in, std::uint32_t out,
    const std::vector<graph::VertexId>& path) {
  const auto length = static_cast<std::uint32_t>(path.size());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    path_next_[path[i]] = path[i + 1];
    busy_.set(path[i]);
  }
  path_next_[path.back()] = graph::kNoVertex;
  busy_.set(path.back());
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
    calls_.emplace_back();
  }
  calls_[id] = {in, out, path.front(), length};
  return id;
}

void GreedyRouter::connect_wave(WaveItem* items, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ++stats_.connect_calls;
    items[i].call = kNoCall;
    items[i].path_length = 0;
    items[i].reject = WaveReject::kNone;
  }
  wave_admitted_.assign(n, 0);
  std::size_t unresolved = n;

  const auto is_resolved = [](const WaveItem& it) {
    return it.call != kNoCall || it.reject != WaveReject::kNone;
  };
  const auto release_holds = [&](const WaveItem& it) {
    in_busy_[it.in] = 0;
    in_hold_[it.in] = 0;
    out_busy_[it.out] = 0;
    out_hold_[it.out] = 0;
  };
  // Rebuilds src..dst into wave_path_ from the scratch parent chains (valid
  // immediately after the search that produced `meet`).
  const auto materialize = [&](graph::VertexId meet, graph::VertexId dst) {
    wave_path_.clear();
    for (graph::VertexId v = meet; v != graph::kNoVertex;
         v = scratch_.parent_f[v])
      wave_path_.push_back(v);
    std::reverse(wave_path_.begin(), wave_path_.end());
    for (graph::VertexId v = meet; v != dst;) {
      v = scratch_.parent_b[v];
      wave_path_.push_back(v);
    }
  };

  // Round loop. Every round resolves at least one item (a settle, a reject,
  // or the solo fallback below), so it runs at most n times.
  while (unresolved > 0) {
    // Phase 0 — admission. A first-time item atomically acquires tentative
    // holds on both its terminal slots; if a slot is held by an unresolved
    // window-mate the item DEFERS (waits for the mate's verdict, exactly as
    // sequential window-order routing would), otherwise a busy slot is a
    // final kTerminal. Terminal VERTICES occupied as intermediate hops of
    // settled calls are re-checked every round: the successor array stores
    // one call per vertex, so such an item can never settle (kNoPath).
    wave_src_.clear();
    wave_dst_.clear();
    wave_slot_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      WaveItem& it = items[i];
      if (is_resolved(it)) continue;
      if (!wave_admitted_[i]) {
        const bool in_free = input_idle(it.in);
        const bool out_free = output_idle(it.out);
        if (!in_free || !out_free) {
          if ((!in_free && in_hold_[it.in]) ||
              (!out_free && out_hold_[it.out]))
            continue;  // defer behind an unresolved window-mate
          it.reject = WaveReject::kTerminal;
          ++stats_.rejected_terminal;
          --unresolved;
          continue;
        }
      }
      const graph::VertexId src = net_->inputs[it.in];
      const graph::VertexId dst = net_->outputs[it.out];
      if (busy_.test(src) || busy_.test(dst)) {
        if (wave_admitted_[i]) release_holds(it);
        it.reject = WaveReject::kNoPath;
        ++stats_.rejected_no_path;
        --unresolved;
        continue;
      }
      if (!wave_admitted_[i]) {
        in_busy_[it.in] = 1;
        in_hold_[it.in] = 1;
        out_busy_[it.out] = 1;
        out_hold_[it.out] = 1;
        wave_admitted_[i] = 1;
      }
      wave_src_.push_back(src);
      wave_dst_.push_back(dst);
      wave_slot_.push_back(static_cast<std::uint32_t>(i));
    }
    if (wave_slot_.empty()) {
      // Unreachable while the defer discipline holds (a deferred item's
      // holder is admitted and therefore in the wave); resolve defensively
      // rather than spin.
      for (std::size_t i = 0; i < n; ++i) {
        if (is_resolved(items[i])) continue;
        items[i].reject = WaveReject::kContention;
        ++stats_.rejected_contention;
        --unresolved;
      }
      break;
    }

    // Phase 1 — one shared search wave over every admitted request.
    const std::size_t m = wave_slot_.size();
    const bool solo = m == 1;
    ++stats_.wave_epochs;
    graph::VertexId solo_meet = graph::kNoVertex;
    if (solo) {
      solo_meet = search_one(wave_src_[0], wave_dst_[0]);
    } else {
      wave_meet_.resize(m);
      wave_total_.resize(m);
      const bool edge_faults = !blocked_edges_.empty();
      const bool contraction = contracted_count_ > 0;
      detail::DirStats dir;
      detail::wave_search(
          net_->g, wave_src_.data(), wave_dst_.data(), m, scratch_,
          wave_meet_.data(), wave_total_.data(), stats_.vertices_visited, dir,
          [this](graph::VertexId v) { return busy_.test(v); },
          [this, edge_faults](graph::EdgeId e) {
            return edge_faults && blocked_edges_.test(e);
          },
          [this](graph::EdgeId e) { return contracted_edges_.test(e); },
          contraction);
      stats_.bottom_up_levels += dir.bottom_up_levels;
      stats_.visits_forward += dir.visits_forward;
      stats_.visits_backward += dir.visits_backward;
    }

    // Phase 2 — settle in window order. A meetless wave entry is demoted
    // into the next round (labels compete in the shared sweep, so a miss is
    // NOT proof of unreachability); a solo search's verdict IS final. A
    // settled path is re-walked against busy_ first: label trees from one
    // shared sweep may interleave, so an earlier settle this round can own
    // part of the chain — that clash also just demotes.
    bool progressed = false;
    for (std::size_t w = 0; w < m; ++w) {
      const std::size_t i = wave_slot_[w];
      WaveItem& it = items[i];
      const graph::VertexId meet = solo ? solo_meet : wave_meet_[w];
      if (meet == graph::kNoVertex) {
        if (solo) {
          release_holds(it);
          it.reject = WaveReject::kNoPath;
          ++stats_.rejected_no_path;
          --unresolved;
          progressed = true;
        }
        continue;
      }
      materialize(meet, net_->outputs[it.out]);
      bool clash = false;
      for (const graph::VertexId v : wave_path_) {
        if (busy_.test(v)) {
          clash = true;
          break;
        }
      }
      if (clash) {
        ++stats_.search_retries;
        continue;
      }
      it.call = settle_path(it.in, it.out, wave_path_);
      it.path_length = static_cast<std::uint32_t>(wave_path_.size());
      in_hold_[it.in] = 0;  // tentative hold became real occupancy
      out_hold_[it.out] = 0;
      --unresolved;
      progressed = true;
    }

    // Phase 3 — progress guarantee: a wave that settled nothing (every
    // entry demoted) routes its head solo, whose verdict is final either
    // way. This bounds the round count at n without a demotion cap.
    if (!progressed && !solo) {
      const std::size_t i = wave_slot_[0];
      WaveItem& it = items[i];
      const graph::VertexId src = net_->inputs[it.in];
      const graph::VertexId dst = net_->outputs[it.out];
      const graph::VertexId meet = search_one(src, dst);
      if (meet == graph::kNoVertex) {
        release_holds(it);
        it.reject = WaveReject::kNoPath;
        ++stats_.rejected_no_path;
      } else {
        materialize(meet, dst);
        it.call = settle_path(it.in, it.out, wave_path_);
        it.path_length = static_cast<std::uint32_t>(wave_path_.size());
        in_hold_[it.in] = 0;
        out_hold_[it.out] = 0;
      }
      --unresolved;
    }
  }
}

void GreedyRouter::disconnect(CallId call) {
  Call& c = calls_[call];
  ++stats_.disconnects;
  // Path vertices are never statically blocked (BFS cannot enter them), so
  // freeing is a plain bit reset.
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
