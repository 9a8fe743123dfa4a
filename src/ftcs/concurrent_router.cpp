#include "ftcs/concurrent_router.hpp"

#include <algorithm>

namespace ftcs::core {

ConcurrentRouter::ConcurrentRouter(const graph::Network& net, unsigned workers,
                                   std::vector<std::uint8_t> blocked,
                                   std::vector<std::uint8_t> blocked_edges)
    : net_(&net), reach_(net) {
  const std::size_t v_count = net.g.vertex_count();
  blocked_.resize(v_count);
  if (!blocked.empty()) blocked_.assign_bytes(blocked.data(), blocked.size());
  busy_.resize(v_count);
  for (std::size_t v = 0; v < v_count; ++v)
    if (blocked_.test(v)) busy_.set(v);  // blocked bits are never released
  if (!blocked_edges.empty())
    blocked_edges_.assign_bytes(blocked_edges.data(), blocked_edges.size());
  // Terminal slots are the claim locks every session CASes on admission;
  // cache-line padding keeps one session's slot traffic from invalidating
  // the lines of 63 neighbouring slots (small bitsets, so the 8x word
  // spread costs bytes, not cache reach).
  in_busy_.resize(net.inputs.size(), util::AtomicBitset::Padding::kCacheLine);
  out_busy_.resize(net.outputs.size(),
                   util::AtomicBitset::Padding::kCacheLine);
  // Overlay state is sized up front: AtomicBitset::resize is not thread-safe
  // and the overlay must be flippable while workers are live.
  dead_edges_.resize(net.g.edge_count());
  contracted_edges_.resize(net.g.edge_count());
  dead_vertices_.resize(v_count);
  fault_claimed_.resize(v_count);
  path_next_.assign(v_count, graph::kNoVertex);
  if (workers == 0) workers = 1;
  for (unsigned w = 0; w < workers; ++w) workers_.emplace_back(Worker(*this));
}

ConcurrentRouter::Worker::Worker(ConcurrentRouter& r) : r_(&r) {
  // Deliberately no allocation here: the constructor runs on whatever
  // thread builds the router (make_engine's caller), and first-touching the
  // session scratch there would home every worker's pages to that thread's
  // NUMA node. ensure_scratch() builds it on the owning thread instead.
}

void ConcurrentRouter::grow(const graph::Network& net,
                            std::span<const graph::VertexId> vmap) {
  const std::size_t old_v = net_->g.vertex_count();
  const std::size_t old_e = net_->g.edge_count();
  const std::size_t v_count = net.g.vertex_count();
  const std::size_t e_count = net.g.edge_count();

  // Plain vertex-indexed bitsets become their exact image under vmap
  // (appended vertices start clear: idle, alive, unclaimed).
  const auto remap_vertex_bits = [&](util::Bitset& b) {
    if (b.empty()) return;
    util::Bitset grown(v_count);
    for (std::size_t v = 0; v < old_v; ++v)
      if (b.test(v)) grown.set(vmap[v]);
    b = std::move(grown);
  };
  remap_vertex_bits(blocked_);
  remap_vertex_bits(dead_vertices_);
  remap_vertex_bits(fault_claimed_);
  if (!blocked_edges_.empty()) {
    util::Bitset grown(e_count);
    const std::size_t lim = std::min(old_e, blocked_edges_.size());
    for (std::size_t e = 0; e < lim; ++e)
      if (blocked_edges_.test(e)) grown.set(e);
    blocked_edges_ = std::move(grown);
  }

  // Atomic bitsets cannot resize in place (resize() allocates fresh zeroed
  // words): snapshot the held bits, rebuild at the grown size, re-set. All
  // loads are exact under the quiescence contract.
  std::vector<graph::VertexId> held;
  for (std::size_t v = 0; v < old_v; ++v)
    if (busy_.test(v)) held.push_back(vmap[v]);
  busy_.resize(v_count);
  for (const graph::VertexId v : held) busy_.set(v);

  const auto rebuild_edge_bits = [&](util::AtomicBitset& b) {
    std::vector<graph::EdgeId> set_ids;
    for (std::size_t e = 0; e < old_e; ++e)
      if (b.test(e)) set_ids.push_back(static_cast<graph::EdgeId>(e));
    b.resize(e_count);
    for (const graph::EdgeId e : set_ids) b.set(e);
  };
  rebuild_edge_bits(dead_edges_);
  rebuild_edge_bits(contracted_edges_);

  // Terminal claim slots: old indices keep their meaning (prefix-stable
  // terminal lists), appended slots start idle. Padding as at construction.
  const auto rebuild_slots = [](util::AtomicBitset& b, std::size_t count) {
    std::vector<std::size_t> taken;
    for (std::size_t i = 0; i < b.size(); ++i)
      if (b.test(i)) taken.push_back(i);
    b.resize(count, util::AtomicBitset::Padding::kCacheLine);
    for (const std::size_t i : taken) b.set(i);
  };
  rebuild_slots(in_busy_, net.inputs.size());
  rebuild_slots(out_busy_, net.outputs.size());

  // Shared successor array: the active paths' exact image.
  std::vector<graph::VertexId> next(v_count, graph::kNoVertex);
  for (std::size_t v = 0; v < old_v; ++v)
    if (path_next_[v] != graph::kNoVertex) next[vmap[v]] = vmap[path_next_[v]];
  path_next_ = std::move(next);
  reach_ = ReachIndex(net);

  // Per-worker session state: remap live call heads in place; invalidate
  // the scratch so each session rebuilds it lazily at the grown size on its
  // OWNING thread (ensure_scratch), preserving NUMA first-touch. Call slot
  // tables are untouched, so raw call ids stay valid across growth.
  for (Worker& w : workers_) {
    for (Worker::Call& c : w.calls_)
      if (c.head != graph::kNoVertex) c.head = vmap[c.head];
    w.scratch_ready_ = false;
  }

  net_ = &net;
}

void ConcurrentRouter::Worker::ensure_scratch() {
  if (scratch_ready_) return;
  scratch_ready_ = true;
  ConcurrentRouter& r = *r_;
  const std::size_t v_count = r.net_->g.vertex_count();
  scratch_.init(v_count);
  path_buf_.reserve(v_count);
  claim_buf_.reserve(v_count);
  // Worst case one worker carries every call; reserving that bound keeps
  // connect()/disconnect() allocation-free (as in GreedyRouter) from the
  // second call on.
  const std::size_t max_calls =
      std::min(r.net_->inputs.size(), r.net_->outputs.size()) + 1;
  calls_.reserve(max_calls);
  free_slots_.reserve(max_calls);
}

ConcurrentRouter::CallId ConcurrentRouter::Worker::connect(std::uint32_t in,
                                                           std::uint32_t out) {
  ConcurrentRouter& r = *r_;
  ensure_scratch();
  ++stats_.connect_calls;

  // 1. Terminal acquire: input slot, then output slot.
  if (r.blocked_.test(r.net_->inputs[in]) ||
      r.blocked_.test(r.net_->outputs[out])) {
    ++stats_.rejected_terminal;
    return kNoCall;
  }
  if (!r.in_busy_.try_set(in)) {
    ++stats_.rejected_terminal;
    return kNoCall;
  }
  if (!r.out_busy_.try_set(out)) {
    r.in_busy_.reset(in);
    ++stats_.rejected_terminal;
    return kNoCall;
  }
  return connect_held(in, out);
}

ConcurrentRouter::CallId ConcurrentRouter::Worker::connect_held(
    std::uint32_t in, std::uint32_t out) {
  ConcurrentRouter& r = *r_;
  const graph::VertexId src = r.net_->inputs[in];
  const graph::VertexId dst = r.net_->outputs[out];

  // A terminal vertex occupied as an intermediate hop of another call cannot
  // anchor a new path (same rule as GreedyRouter: the successor array holds
  // at most one call per vertex). With concurrency this read is a snapshot;
  // a stale positive costs one rejected request, never a corrupted chain.
  if (r.busy_.test(src) || r.busy_.test(dst)) {
    r.out_busy_.reset(out);
    r.in_busy_.reset(in);
    ++stats_.rejected_no_path;
    return kNoCall;
  }

  const bool edge_faults = !r.blocked_edges_.empty();
  // One load per connect: until the first fault event ever, the overlay
  // branch below is a dead register test and the search runs exactly the
  // PR 2 hot path.
  const bool overlay = r.overlay_active_.load(std::memory_order_acquire);
  const bool contraction =
      r.contraction_active_.load(std::memory_order_acquire);
  const auto is_busy = [&r](graph::VertexId v) { return r.busy_.test(v); };
  const auto edge_blocked = [&r, edge_faults, overlay](graph::EdgeId e) {
    return (edge_faults && r.blocked_edges_.test(e)) ||
           (overlay && r.dead_edges_.test(e));  // relaxed: dirty snapshot
  };
  const auto edge_contracted = [&r](graph::EdgeId e) {
    return r.contracted_edges_.test(e);  // relaxed: dirty snapshot
  };

  for (unsigned attempt = 0;; ++attempt) {
    // 2. Search on a dirty busy snapshot (relaxed reads, private scratch).
    if (detail::find_idle_path(r.net_->g, r.reach_.probe(out), src, dst,
                               scratch_, stats_.vertices_visited, is_busy,
                               edge_blocked, edge_contracted,
                               contraction) == graph::kNoVertex) {
      r.out_busy_.reset(out);
      r.in_busy_.reset(in);
      ++stats_.rejected_no_path;
      return kNoCall;
    }

    // Materialize src..dst into path_buf_ from the parent chain.
    path_buf_.clear();
    for (graph::VertexId v = dst; v != graph::kNoVertex;
         v = scratch_.parent_f[v])
      path_buf_.push_back(v);
    std::reverse(path_buf_.begin(), path_buf_.end());

    // 3. Claim in canonical (ascending vertex id) order.
    claim_buf_.assign(path_buf_.begin(), path_buf_.end());
    std::sort(claim_buf_.begin(), claim_buf_.end());
    std::size_t claimed = 0;
    while (claimed < claim_buf_.size() && r.busy_.try_set(claim_buf_[claimed]))
      ++claimed;
    if (claimed == claim_buf_.size()) {
      // 3b. Overlay re-validation: the search read the liveness overlay with
      // relaxed (dirty) loads, so a switch may have failed (or a stuck-on
      // weld been repaired) mid-search. With every path vertex now owned,
      // acquire-re-check each hop; a hit is handled exactly like losing a
      // claim CAS — release and re-search against the now-visible overlay.
      if (!(overlay || contraction) || r.path_switches_alive(path_buf_))
        break;  // path is ours
      ++stats_.overlay_conflicts;
      while (claimed > 0) r.busy_.reset(claim_buf_[--claimed]);
      if (attempt + 1 >= kMaxClaimRetries) {
        r.out_busy_.reset(out);
        r.in_busy_.reset(in);
        ++stats_.rejected_contention;
        return kNoCall;
      }
      ++stats_.search_retries;
      continue;
    }

    // 4. Conflict: back off (release the prefix, newest first) and retry
    // against fresher busy state, up to the bounded budget.
    ++stats_.claim_conflicts;
    while (claimed > 0) r.busy_.reset(claim_buf_[--claimed]);
    if (attempt + 1 >= kMaxClaimRetries) {
      r.out_busy_.reset(out);
      r.in_busy_.reset(in);
      ++stats_.rejected_contention;
      return kNoCall;
    }
    ++stats_.search_retries;
  }

  // 5. Settle: we own every path vertex.
  return settle_owned(in, out);
}

ConcurrentRouter::CallId ConcurrentRouter::Worker::settle_owned(
    std::uint32_t in, std::uint32_t out) {
  // We own every vertex of path_buf_, so the successor-array writes are
  // exclusive; they become visible to the next claimer of each vertex via
  // the release/acquire pairing on its busy bit.
  ConcurrentRouter& r = *r_;
  const auto length = static_cast<std::uint32_t>(path_buf_.size());
  for (std::size_t i = 0; i < path_buf_.size(); ++i)
    r.path_next_[path_buf_[i]] =
        i + 1 < path_buf_.size() ? path_buf_[i + 1] : graph::kNoVertex;
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
    calls_.emplace_back();  // within capacity reserved at construction
  }
  calls_[id] = {in, out, path_buf_.front(), length};
  return id;
}

void ConcurrentRouter::Worker::disconnect(CallId call) {
  ConcurrentRouter& r = *r_;
  Call& c = calls_[call];
  ++stats_.disconnects;
  // Read each successor BEFORE releasing its vertex: reset(v) publishes
  // path_next_[v] to the next claimer, after which v is no longer ours.
  for (graph::VertexId v = c.head; v != graph::kNoVertex;) {
    const graph::VertexId nxt = r.path_next_[v];
    r.path_next_[v] = graph::kNoVertex;
    r.busy_.reset(v);
    v = nxt;
  }
  busy_count_ -= c.length;
  r.out_busy_.reset(c.out);
  r.in_busy_.reset(c.in);
  c.head = graph::kNoVertex;
  c.length = 0;
  --active_;
  free_slots_.push_back(call);
}

std::vector<graph::VertexId> ConcurrentRouter::Worker::path_of(
    CallId call) const {
  const Call& c = calls_[call];
  std::vector<graph::VertexId> path;
  path.reserve(c.length);
  for (graph::VertexId v = c.head; v != graph::kNoVertex;
       v = r_->path_next_[v])
    path.push_back(v);
  return path;
}

std::vector<ConcurrentRouter::CallId>
ConcurrentRouter::Worker::active_call_ids() const {
  std::vector<CallId> ids;
  ids.reserve(active_);
  for (CallId id = 0; id < calls_.size(); ++id)
    if (calls_[id].head != graph::kNoVertex) ids.push_back(id);
  return ids;
}

// ------------------------------------------------------- liveness overlay

void ConcurrentRouter::fail_edge(graph::EdgeId e) {
  // The flag is published before the bit so any search that can already see
  // the bit also runs with the overlay branch enabled.
  overlay_active_.store(true, std::memory_order_release);
  (void)dead_edges_.try_set(e);  // acq_rel RMW; idempotent by definition
}

void ConcurrentRouter::repair_edge(graph::EdgeId e) {
  dead_edges_.reset(e);  // release; static blocked_edges_ is a separate mask
}

void ConcurrentRouter::contract_edge(graph::EdgeId e) {
  // Flag first, bit second: any search that can already see the bit also
  // runs with the contraction branches enabled (same order as fail_edge).
  contraction_active_.store(true, std::memory_order_release);
  (void)contracted_edges_.try_set(e);  // acq_rel RMW; idempotent
}

void ConcurrentRouter::uncontract_edge(graph::EdgeId e) {
  contracted_edges_.reset(e);  // release
}

void ConcurrentRouter::kill_vertex(graph::VertexId v) {
  if (dead_vertices_.test(v)) return;
  dead_vertices_.set(v);
  // Folded semantics: a dead vertex holds its own busy bit, so searches and
  // claims avoid it with no overlay read. Quiescent contract: if try_set
  // fails the bit belongs to the static blocked mask (an active call is
  // excluded by precondition), and is not ours to release on revive.
  if (busy_.try_set(v)) fault_claimed_.set(v);
}

void ConcurrentRouter::revive_vertex(graph::VertexId v) {
  if (!dead_vertices_.test(v)) return;
  dead_vertices_.reset(v);
  if (fault_claimed_.test(v)) {
    fault_claimed_.reset(v);
    busy_.reset(v);
  }
}

bool ConcurrentRouter::path_switches_alive(
    const std::vector<graph::VertexId>& path) const {
  const bool edge_faults = !blocked_edges_.empty();
  const bool contraction = contraction_active_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const graph::VertexId u = path[i], v = path[i + 1];
    const auto eids = net_->g.out_edges(u);
    const auto tgts = net_->g.out_targets(u);
    bool hop_alive = false;
    for (std::size_t k = 0; k < eids.size(); ++k) {
      if (tgts[k] != v) continue;
      if (edge_faults && blocked_edges_.test(eids[k])) continue;
      if (dead_edges_.test(eids[k], std::memory_order_acquire)) continue;
      hop_alive = true;  // some parallel switch still carries this hop
      break;
    }
    if (!hop_alive && contraction) {
      // A contracted switch conducts both ways: the hop may be carried by
      // a welded v -> u switch traversed against its direction.
      const auto reids = net_->g.in_edges(u);
      const auto rsrcs = net_->g.in_sources(u);
      for (std::size_t k = 0; k < reids.size(); ++k) {
        if (rsrcs[k] != v) continue;
        if (edge_faults && blocked_edges_.test(reids[k])) continue;
        if (dead_edges_.test(reids[k], std::memory_order_acquire)) continue;
        if (!contracted_edges_.test(reids[k], std::memory_order_acquire))
          continue;
        hop_alive = true;
        break;
      }
    }
    if (!hop_alive) return false;
  }
  return true;
}

RouterStats ConcurrentRouter::stats() const {
  RouterStats total;
  for (const Worker& w : workers_) total += w.stats();
  return total;
}

std::size_t ConcurrentRouter::active_calls() const {
  std::size_t total = 0;
  for (const Worker& w : workers_) total += w.active_calls();
  return total;
}

std::size_t ConcurrentRouter::busy_vertices() const {
  std::size_t total = 0;
  for (const Worker& w : workers_) total += w.busy_vertices();
  return total;
}

}  // namespace ftcs::core
