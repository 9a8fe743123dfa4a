#include "svc/federation.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <utility>

namespace ftcs::svc {

namespace {
std::uint32_t next_federation_id() {
  static std::atomic<std::uint32_t> seq{1};
  return seq.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Federation::Federation(const graph::Network& member_net, unsigned shards,
                       FederationConfig cfg)
    : net_(&member_net), id_(next_federation_id()) {
  if (shards == 0) shards = 1;
  const auto cap = static_cast<std::uint32_t>(
      std::min(member_net.inputs.size(), member_net.outputs.size()));
  std::uint32_t subs = cfg.subscribers;
  if (subs == 0) subs = shards == 1 ? cap : cap - cap / 4;
  subs_ = std::min(subs, cap);
  const std::uint32_t pool = cap - subs_;  // trunk ports per member, per side

  members_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    ExchangeConfig ec;
    ec.backend = cfg.backend;
    ec.sessions = cfg.sessions;
    if (cfg.member_admission) ec.admission = cfg.member_admission();
    members_.push_back(std::make_unique<Exchange>(member_net, std::move(ec)));
  }
  out_peers_.resize(shards);
  if (shards < 2 || pool == 0) return;

  // Out-peer lists in ROTATED order (member a's list starts at a+1): each
  // member's remainder lines land on its immediate successors, and the
  // rotation spreads those extras so every member also RECEIVES exactly
  // `pool` ingress lines — both port cursors stay in range by construction.
  std::vector<std::vector<std::uint32_t>> peers(shards);
  for (std::uint32_t a = 0; a < shards; ++a) {
    if (cfg.topology == FederationConfig::Topology::kFullMesh || shards <= 3) {
      // A ring of <= 3 members IS the full mesh.
      for (std::uint32_t d = 1; d < shards; ++d)
        peers[a].push_back((a + d) % shards);
    } else {
      peers[a].push_back((a + 1) % shards);
      peers[a].push_back((a + shards - 1) % shards);
    }
  }
  const std::uint32_t groups_per_peer =
      std::clamp<std::uint32_t>(cfg.groups_per_peer, 1, 64);
  std::vector<std::uint32_t> egress_cursor(shards, subs_);
  std::vector<std::uint32_t> ingress_cursor(shards, subs_);
  for (std::uint32_t a = 0; a < shards; ++a) {
    const auto degree = static_cast<std::uint32_t>(peers[a].size());
    for (std::uint32_t j = 0; j < degree; ++j) {
      const std::uint32_t b = peers[a][j];
      const std::uint32_t quota = pool / degree + (j < pool % degree ? 1 : 0);
      if (quota == 0) continue;
      PeerGroups pg;
      pg.to = b;
      for (std::uint32_t c = 0; c < groups_per_peer; ++c) {
        const std::uint32_t chunk =
            quota / groups_per_peer + (c < quota % groups_per_peer ? 1 : 0);
        if (chunk == 0) continue;
        std::vector<TrunkLine> lines;
        lines.reserve(chunk);
        for (std::uint32_t t = 0; t < chunk; ++t)
          lines.push_back({egress_cursor[a]++, ingress_cursor[b]++});
        const auto gid = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back(gid, a, b, std::move(lines));
        line_owner_.emplace_back(chunk, kNoOwner);
        pg.groups.push_back(gid);
      }
      if (!pg.groups.empty()) out_peers_[a].push_back(std::move(pg));
    }
  }
}

std::optional<std::pair<std::uint32_t, std::uint32_t>> Federation::claim_trunk(
    std::uint32_t from, std::uint32_t to) {
  const std::vector<std::uint32_t>* gs = nullptr;
  for (const auto& pg : out_peers_[from]) {
    if (pg.to == to) {
      gs = &pg.groups;
      break;
    }
  }
  if (!gs) return std::nullopt;  // topology has no direct trunks
  // Least-loaded first: probe the peer's groups in ascending score order
  // (occupancy + AIMD penalty). Group fan-out per peer is tiny (<= 64, the
  // groups_per_peer clamp), so a selection scan beats sorting; the `tried`
  // bitmask retires groups whose claim came up empty.
  std::uint64_t tried = 0;
  for (std::size_t round = 0; round < gs->size(); ++round) {
    std::size_t best = gs->size();
    std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t j = 0; j < gs->size(); ++j) {
      if (tried >> j & 1) continue;
      const std::uint64_t sc = groups_[(*gs)[j]].score();
      if (sc < best_score) {
        best_score = sc;
        best = j;
      }
    }
    if (best == gs->size()) break;
    tried |= std::uint64_t{1} << best;
    if (auto line = groups_[(*gs)[best]].claim())
      return std::make_pair((*gs)[best], *line);
  }
  return std::nullopt;
}

FedCallId Federation::commit_inter(const CallRequest& req, std::uint32_t sa,
                                   std::uint32_t sb, std::uint32_t group,
                                   std::uint32_t line, CallId ingress,
                                   CallId egress) {
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  InterSlot& s = slots_[idx];
  s.live = true;
  s.sa = sa;
  s.sb = sb;
  s.group = group;
  s.line = line;
  s.ingress = ingress;
  s.egress = egress;
  s.req = req;
  line_owner_[group][line] = idx;
  ++live_inter_;
  FedCallId id;
  id.kind_ = 2;
  id.federation_ = id_;
  id.shard_ = sa;
  id.slot_ = idx;
  id.gen_ = s.gen;
  return id;
}

void Federation::teardown_inter(std::uint32_t idx, bool by_fault) {
  InterSlot& s = slots_[idx];
  // Reverse setup order: egress half, ingress half, trunk line. A half the
  // member fault plane already reaped acks kFaulted here — harmless.
  members_[s.sb]->hangup(s.egress);
  members_[s.sa]->hangup(s.ingress);
  groups_[s.group].release(s.line);
  line_owner_[s.group][s.line] = kNoOwner;
  s.live = false;
  ++s.gen;
  s.retired_by_fault = by_fault;
  free_slots_.push_back(idx);
  --live_inter_;
}

RejectReason Federation::check_inter_handle(FedCallId id) const {
  if (id.slot_ >= slots_.size()) return RejectReason::kStaleHandle;
  const InterSlot& s = slots_[id.slot_];
  if (s.live && s.gen == id.gen_) return RejectReason::kNone;
  // One-generation fault memory, surviving slot reuse: the free list is
  // LIFO, so the re-admission that follows a trunk fault usually re-commits
  // the very slot it just retired. The victim's retained handle must still
  // ack kFaulted (informative), exactly like Exchange::hangup's.
  if (s.retired_by_fault && id.gen_ + 1 == s.gen)
    return RejectReason::kFaulted;
  return RejectReason::kStaleHandle;
}

FedOutcome Federation::wrap_intra(std::uint32_t shard, const Outcome& o) const {
  FedOutcome f;
  f.reject = o.reject;
  f.shard_in = f.shard_out = shard;
  f.path_length = o.path_length;
  f.deferrals = o.deferrals;
  f.tag = o.tag;
  if (o.id.valid()) {  // live handle, or the dead handle of a fault victim
    f.id.kind_ = 1;
    f.id.federation_ = id_;
    f.id.shard_ = shard;
    f.id.local_ = o.id;
  }
  return f;
}

FedOutcome Federation::call(const CallRequest& req) {
  FedOutcome out;
  out.tag = req.tag;
  const std::size_t total = input_count();
  if (req.input >= total || req.output >= total) {
    // A global terminal outside the shard map has no home member.
    out.reject = RejectReason::kBadSession;
    ++stats_.handle_errors;
    return out;
  }
  const std::uint32_t sa = shard_of(req.input), sb = shard_of(req.output);
  out.shard_in = sa;
  out.shard_out = sb;
  if (sa == sb) {
    // Intra-shard fast path: delegate verbatim; no federation state moves.
    ++stats_.intra_calls;
    return wrap_intra(
        sa, members_[sa]->call(
                {local_of(req.input), local_of(req.output), req.priority,
                 req.tag}));
  }
  // Two-phase inter-shard setup: trunk, ingress half, egress half.
  ++stats_.inter_calls;
  const auto claimed = claim_trunk(sa, sb);
  if (!claimed) {
    ++stats_.trunk_rejects;
    out.reject = RejectReason::kTrunkBusy;
    out.stage = FedStage::kTrunk;
    return out;
  }
  const auto [g, l] = *claimed;
  const TrunkLine& line = groups_[g].line(l);
  const Outcome ingress = members_[sa]->call(
      {local_of(req.input), line.egress_port, req.priority, req.tag});
  if (!ingress.connected()) {
    groups_[g].release(l);
    ++stats_.ingress_aborts;
    out.reject = ingress.reject;
    out.stage = FedStage::kIngress;
    return out;
  }
  ++stats_.half_calls_routed;
  const Outcome egress = members_[sb]->call(
      {line.ingress_port, local_of(req.output), req.priority, req.tag});
  if (!egress.connected()) {
    members_[sa]->hangup(ingress.id);
    groups_[g].release(l);
    ++stats_.egress_aborts;
    out.reject = egress.reject;
    out.stage = FedStage::kEgress;
    return out;
  }
  ++stats_.half_calls_routed;
  out.id = commit_inter(req, sa, sb, g, l, ingress.id, egress.id);
  out.trunk_group = g;
  out.path_length = ingress.path_length + egress.path_length;
  ++stats_.inter_connected;
  return out;
}

RejectReason Federation::hangup(FedCallId id) {
  if (id.kind_ == 0 || id.federation_ == 0) {
    ++stats_.handle_errors;
    return RejectReason::kStaleHandle;
  }
  if (id.federation_ != id_) {
    ++stats_.handle_errors;
    return RejectReason::kForeignHandle;
  }
  if (id.kind_ == 1) {
    // Intra handle: the member detects (and books) any misuse itself.
    return members_[id.shard_]->hangup(id.local_);
  }
  const RejectReason chk = check_inter_handle(id);
  if (chk == RejectReason::kFaulted) return chk;  // informative, not misuse
  if (chk != RejectReason::kNone) {
    ++stats_.handle_errors;
    return chk;
  }
  teardown_inter(id.slot_, /*by_fault=*/false);
  ++stats_.inter_hangups;
  return RejectReason::kNone;
}

Ticket Federation::submit(const CallRequest& req) {
  return submit(req, FedCompletionFn{});
}

Ticket Federation::submit(const CallRequest& req, FedCompletionFn done) {
  std::lock_guard<std::mutex> lk(front_mu_);
  const Ticket t = next_ticket_++;
  queue_.push_back(FedPending{req, t, std::move(done)});
  return t;
}

void Federation::deliver(FedPending&& p, const FedOutcome& o) {
  if (p.done) {
    p.done(o);
    return;
  }
  std::lock_guard<std::mutex> lk(front_mu_);
  completed_.emplace(p.ticket, o);
}

std::size_t Federation::drain() {
  std::vector<FedPending> window;
  {
    std::lock_guard<std::mutex> lk(front_mu_);
    window.reserve(queue_.size());
    while (!queue_.empty()) {
      window.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (window.empty()) return 0;

  // Stage every request: trunk claims happen HERE, on the drain thread (it
  // owns the trunk books), then the half-calls ride each member's own
  // batched admission plane. Records are shared-owned because member
  // completion callbacks run on pool threads during the member drains; the
  // ingress/egress fields carry a kRefused sentinel so a half a member
  // policy never served reads as refused, not as connected (members are
  // expected to run policies that eventually serve — the default does).
  std::vector<std::shared_ptr<EpochRec>> recs;
  recs.reserve(window.size());
  std::vector<std::uint8_t> touched(members_.size(), 0);
  const std::size_t total = input_count();
  for (auto& p : window) {
    auto rec = std::make_shared<EpochRec>();
    EpochRec& r = *rec;
    r.pending = std::move(p);
    const CallRequest& req = r.pending.req;
    if (req.input >= total || req.output >= total) {
      ++stats_.handle_errors;
      FedOutcome o;
      o.tag = req.tag;
      o.reject = RejectReason::kBadSession;
      r.resolved = true;
      deliver(std::move(r.pending), o);
      continue;
    }
    r.sa = shard_of(req.input);
    r.sb = shard_of(req.output);
    r.la = local_of(req.input);
    r.lb = local_of(req.output);
    if (r.sa == r.sb) {
      // Intra fast path: the member callback wraps and delivers directly
      // (on a pool thread, like Exchange's own completion contract).
      ++stats_.intra_calls;
      touched[r.sa] = 1;
      members_[r.sa]->submit(
          {r.la, r.lb, req.priority, req.tag}, [this, rec](const Outcome& o) {
            deliver(std::move(rec->pending), wrap_intra(rec->sa, o));
          });
      recs.push_back(std::move(rec));
      continue;
    }
    ++stats_.inter_calls;
    r.inter = true;
    const auto claimed = claim_trunk(r.sa, r.sb);
    if (!claimed) {
      ++stats_.trunk_rejects;
      FedOutcome o;
      o.tag = req.tag;
      o.reject = RejectReason::kTrunkBusy;
      o.stage = FedStage::kTrunk;
      o.shard_in = r.sa;
      o.shard_out = r.sb;
      r.resolved = true;
      deliver(std::move(r.pending), o);
      continue;
    }
    r.group = claimed->first;
    r.line = claimed->second;
    r.ingress.reject = RejectReason::kRefused;  // sentinels (see above)
    r.egress.reject = RejectReason::kRefused;
    const TrunkLine& line = groups_[r.group].line(r.line);
    touched[r.sa] = 1;
    touched[r.sb] = 1;
    members_[r.sa]->submit({r.la, line.egress_port, req.priority, req.tag},
                           [rec](const Outcome& o) { rec->ingress = o; });
    members_[r.sb]->submit({line.ingress_port, r.lb, req.priority, req.tag},
                           [rec](const Outcome& o) { rec->egress = o; });
    recs.push_back(std::move(rec));
  }

  // One member admission epoch each, in sequence: the members share
  // util::ThreadPool::global(), so nesting their drains would contend for
  // the same workers; each member still parallelizes across its own
  // sessions internally.
  for (std::size_t m = 0; m < members_.size(); ++m)
    if (touched[m]) members_[m]->drain_all();

  // Reconcile inter verdicts (drain thread; the member drains' joins order
  // every callback write before these reads). A one-sided epoch is a
  // two-phase abort: hang up the surviving half, release the trunk.
  for (auto& rec : recs) {
    EpochRec& r = *rec;
    if (!r.inter || r.resolved) continue;
    FedOutcome o;
    o.tag = r.pending.req.tag;
    o.shard_in = r.sa;
    o.shard_out = r.sb;
    if (r.ingress.connected() && r.egress.connected()) {
      stats_.half_calls_routed += 2;
      o.id = commit_inter(r.pending.req, r.sa, r.sb, r.group, r.line,
                          r.ingress.id, r.egress.id);
      o.trunk_group = r.group;
      o.path_length = r.ingress.path_length + r.egress.path_length;
      o.deferrals = std::max(r.ingress.deferrals, r.egress.deferrals);
      ++stats_.inter_connected;
    } else if (r.ingress.connected()) {
      ++stats_.half_calls_routed;
      members_[r.sa]->hangup(r.ingress.id);
      groups_[r.group].release(r.line);
      ++stats_.egress_aborts;
      o.reject = r.egress.reject;
      o.stage = FedStage::kEgress;
    } else {
      if (r.egress.connected()) {
        ++stats_.half_calls_routed;
        members_[r.sb]->hangup(r.egress.id);
      }
      groups_[r.group].release(r.line);
      ++stats_.ingress_aborts;
      o.reject = r.ingress.reject;
      o.stage = FedStage::kIngress;
    }
    deliver(std::move(r.pending), o);
  }
  return window.size();
}

std::size_t Federation::drain_all() {
  // drain() takes the WHOLE queue (the federation front-end has no window
  // policy of its own — members apply theirs to the half-calls), so this
  // terminates as soon as no new submissions arrive.
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = drain();
    if (n == 0) return total;
    total += n;
  }
}

std::optional<FedOutcome> Federation::poll(Ticket ticket) {
  std::lock_guard<std::mutex> lk(front_mu_);
  const auto it = completed_.find(ticket);
  if (it == completed_.end()) return std::nullopt;
  FedOutcome o = it->second;
  completed_.erase(it);
  return o;
}

std::size_t Federation::pending() const {
  std::lock_guard<std::mutex> lk(front_mu_);
  return queue_.size();
}

FedOutcome Federation::readmit(const CallRequest& req, std::uint64_t& succeeded,
                               std::uint64_t& failed) {
  // End-to-end re-admission through the batched plane; anything already
  // queued rides along in the same epochs (the Exchange reroute discipline).
  struct Box {
    FedOutcome o;
  };
  auto box = std::make_shared<Box>();
  box->o.reject = RejectReason::kRefused;  // sentinel, as in reroute_victims
  box->o.tag = req.tag;
  submit(req, [box](const FedOutcome& o) { box->o = o; });
  drain_all();
  if (box->o.connected()) {
    ++succeeded;
    ++stats_.reroute_succeeded;
  } else {
    ++failed;
    ++stats_.reroute_failed;
  }
  return box->o;
}

TrunkFaultImpact Federation::fail_trunk(std::uint32_t group,
                                        std::uint32_t line) {
  TrunkFaultImpact imp;
  imp.group = group;
  imp.line = line;
  if (group >= groups_.size() || line >= groups_[group].capacity()) return imp;
  imp.applied = !groups_[group].line_faulted(line);
  imp.was_busy = groups_[group].fault(line);  // idempotent on a failed line
  if (!imp.was_busy) return imp;
  const std::uint32_t idx = line_owner_[group][line];
  InterSlot& s = slots_[idx];
  // Typed kFaulted death of the riding call, with the owner's retained
  // federation handle (generation still matches at this point).
  FedOutcome dead;
  dead.id.kind_ = 2;
  dead.id.federation_ = id_;
  dead.id.shard_ = s.sa;
  dead.id.slot_ = idx;
  dead.id.gen_ = s.gen;
  dead.reject = RejectReason::kFaulted;
  dead.shard_in = s.sa;
  dead.shard_out = s.sb;
  dead.trunk_group = group;
  dead.tag = s.req.tag;
  const CallRequest orig = s.req;
  teardown_inter(idx, /*by_fault=*/true);
  ++stats_.calls_killed_by_trunk_fault;
  imp.killed.push_back(dead);
  imp.reroutes.push_back(
      readmit(orig, imp.reroute_succeeded, imp.reroute_failed));
  return imp;
}

TrunkFaultImpact Federation::repair_trunk(std::uint32_t group,
                                          std::uint32_t line) {
  TrunkFaultImpact imp;
  imp.group = group;
  imp.line = line;
  if (group >= groups_.size() || line >= groups_[group].capacity()) return imp;
  imp.applied = groups_[group].line_faulted(line);
  groups_[group].repair(line);  // idempotent on a healthy line
  return imp;
}

void Federation::reconcile_member_impact(unsigned shard, FedFaultImpact& out) {
  const FaultImpact& mi = out.member;
  std::vector<std::uint32_t> torn;
  for (std::size_t i = 0; i < mi.killed.size(); ++i) {
    const CallId dead = mi.killed[i].id;
    std::uint32_t found = kNoOwner;
    bool is_ingress = false;
    for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
      const InterSlot& s = slots_[idx];
      if (!s.live) continue;
      if (s.sa == shard && s.ingress == dead) {
        found = idx;
        is_ingress = true;
        break;
      }
      if (s.sb == shard && s.egress == dead) {
        found = idx;
        break;
      }
    }
    if (found == kNoOwner) {
      // Intra-shard victim: the member already killed AND re-admitted it;
      // surface both wrapped so the operator can re-learn handles.
      out.killed.push_back(wrap_intra(shard, mi.killed[i]));
      out.reroutes.push_back(wrap_intra(shard, mi.reroutes[i]));
      if (mi.reroutes[i].connected())
        ++out.reroute_succeeded;
      else
        ++out.reroute_failed;
      continue;
    }
    ++out.halves_hit;
    InterSlot& s = slots_[found];
    const Outcome& rr = mi.reroutes[i];
    if (rr.connected()) {
      // The member rerouted the half in place. The trunk line (and with it
      // the half's far port) stayed reserved, so the reroute landed on the
      // same terminal pair: re-bind the slot and the inter call survives.
      (is_ingress ? s.ingress : s.egress) = rr.id;
      ++out.mates_adopted;
      ++stats_.mates_adopted;
      continue;
    }
    torn.push_back(found);
  }
  // Halves the member could not carry: tear down the mate and the trunk,
  // then re-admit the original end-to-end request.
  for (std::uint32_t idx : torn) {
    InterSlot& s = slots_[idx];
    FedOutcome dead;
    dead.id.kind_ = 2;
    dead.id.federation_ = id_;
    dead.id.shard_ = s.sa;
    dead.id.slot_ = idx;
    dead.id.gen_ = s.gen;
    dead.reject = RejectReason::kFaulted;
    dead.shard_in = s.sa;
    dead.shard_out = s.sb;
    dead.trunk_group = s.group;
    dead.tag = s.req.tag;
    const CallRequest orig = s.req;
    teardown_inter(idx, /*by_fault=*/true);
    ++out.mates_torn_down;
    ++stats_.mates_torn_down;
    out.killed.push_back(dead);
    out.reroutes.push_back(
        readmit(orig, out.reroute_succeeded, out.reroute_failed));
  }
}

FedFaultImpact Federation::inject(unsigned shard, const fault::FaultEvent& ev) {
  FedFaultImpact out;
  out.member = members_[shard]->inject(ev);
  reconcile_member_impact(shard, out);
  return out;
}

FedFaultImpact Federation::repair(unsigned shard, const fault::FaultEvent& ev) {
  // A repair can kill too: un-welding a stuck-on switch tears down calls
  // that crossed it against its direction. Same reconciliation.
  FedFaultImpact out;
  out.member = members_[shard]->repair(ev);
  reconcile_member_impact(shard, out);
  return out;
}

std::vector<std::uint32_t> Federation::groups_between(std::uint32_t from,
                                                      std::uint32_t to) const {
  if (from >= out_peers_.size()) return {};
  for (const auto& pg : out_peers_[from])
    if (pg.to == to) return pg.groups;
  return {};
}

std::vector<TrunkGauge> Federation::trunk_gauges() const {
  std::vector<TrunkGauge> v;
  v.reserve(groups_.size());
  for (const TrunkGroup& g : groups_) {
    v.push_back({g.id(), g.from(), g.to(), g.capacity(), g.usable(),
                 g.occupancy(), g.stats().claims, g.stats().rejects});
  }
  return v;
}

std::size_t Federation::active_calls() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->active_calls();
  return n;
}

std::size_t Federation::busy_vertices() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->busy_vertices();
  return n;
}

FederationStats Federation::stats() const {
  FederationStats s = stats_;
  for (const auto& m : members_) s.members += m->stats();
  for (const TrunkGroup& g : groups_) s.trunks += g.stats();
  return s;
}

void Federation::reset_stats() {
  for (const auto& m : members_) m->reset_stats();
  for (TrunkGroup& g : groups_) g.reset_stats();
  stats_ = {};
}

}  // namespace ftcs::svc
