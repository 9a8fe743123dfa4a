#include "svc/federation.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

namespace ftcs::svc {

namespace {
std::uint32_t next_federation_id() {
  static std::atomic<std::uint32_t> seq{1};
  return seq.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Federation::Federation(const graph::Network& member_net, unsigned shards)
    : net_(&member_net), id_(next_federation_id()) {
  if (shards == 0) shards = 1;
  const auto cap = static_cast<std::uint32_t>(
      std::min(member_net.inputs.size(), member_net.outputs.size()));
  subs_ = shards == 1 ? cap : cap - cap / 4;
  const std::uint32_t pool = cap - subs_;  // trunk ports per member, per side

  members_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s)
    members_.push_back(std::make_unique<Exchange>(member_net));
  half_owner_.resize(shards);

  // One group per ordered pair, member a's in ROTATED peer order (a+1,
  // a+2, ...), which is the numbering group_between() computes. Each
  // member's remainder lines land on its immediate successors, and the
  // rotation spreads those extras so every member also RECEIVES exactly
  // `pool` ingress lines — both port cursors stay in range by construction.
  // With fewer lines than peers the farthest peers get zero-line groups,
  // whose every claim is refused (kTrunkBusy).
  const std::uint32_t peers = shards - 1;
  std::vector<std::uint32_t> egress_cursor(shards, subs_);
  std::vector<std::uint32_t> ingress_cursor(shards, subs_);
  for (std::uint32_t a = 0; a < shards; ++a) {
    for (std::uint32_t j = 0; j < peers; ++j) {
      const std::uint32_t b = (a + 1 + j) % shards;
      const std::uint32_t quota = pool / peers + (j < pool % peers ? 1 : 0);
      std::vector<TrunkLine> lines(quota);
      for (TrunkLine& ln : lines)
        ln = {egress_cursor[a]++, ingress_cursor[b]++};
      groups_.emplace_back(static_cast<std::uint32_t>(groups_.size()), a, b,
                           std::move(lines));
      line_owner_.emplace_back(quota, kNoOwner);
    }
  }
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
  half_owner(sa, ingress) = idx;
  half_owner(sb, egress) = idx;
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
  // A half the member fault plane reaped may already name another call's
  // slot: clear only the entries still pointing here.
  if (std::uint32_t& o = half_owner(s.sa, s.ingress); o == idx) o = kNoOwner;
  if (std::uint32_t& o = half_owner(s.sb, s.egress); o == idx) o = kNoOwner;
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
    out.reject = RejectReason::kBadTerminal;
    ++stats_.handle_errors;
    return out;
  }
  const std::uint32_t sa = shard_of(req.input), sb = shard_of(req.output);
  const std::uint32_t caller = local_of(req.input);
  const std::uint32_t callee = local_of(req.output);
  out.shard_in = sa;
  out.shard_out = sb;
  if (sa == sb) {
    // Intra-shard fast path: delegate verbatim; no federation state moves.
    ++stats_.intra_calls;
    return wrap_intra(
        sa, members_[sa]->call({caller, callee, req.priority, req.tag}));
  }
  // Inter-shard setup: terminals, trunk, ingress half, egress half. The
  // terminal checks apply the member router's own idle rule (this thread
  // owns the member exchanges), so a busy caller
  // or callee gets the verdict its half would get, kTerminalBusy, before
  // any trunk claim or half-call.
  ++stats_.inter_calls;
  // Every refusal books exactly one stage row.
  const auto refuse = [&out](std::uint64_t& row, RejectReason reject,
                             FedStage stage) {
    ++row;
    out.reject = reject;
    out.stage = stage;
    return out;
  };
  if (!members_[sa]->input_idle(caller))
    return refuse(stats_.ingress_aborts, RejectReason::kTerminalBusy,
                  FedStage::kIngress);
  if (!members_[sb]->output_idle(callee))
    return refuse(stats_.egress_aborts, RejectReason::kTerminalBusy,
                  FedStage::kEgress);
  const std::uint32_t g = group_between(sa, sb);
  const auto claimed = groups_[g].claim();
  if (!claimed)
    return refuse(stats_.trunk_rejects, RejectReason::kTrunkBusy,
                  FedStage::kTrunk);
  const std::uint32_t l = *claimed;
  const TrunkLine& line = groups_[g].line(l);
  const Outcome ingress = members_[sa]->call(
      {caller, line.egress_port, req.priority, req.tag});
  if (!ingress.connected()) {
    groups_[g].release(l);
    return refuse(stats_.ingress_aborts, ingress.reject, FedStage::kIngress);
  }
  ++stats_.half_calls_routed;
  const Outcome egress = members_[sb]->call(
      {line.ingress_port, callee, req.priority, req.tag});
  if (!egress.connected()) {
    members_[sa]->hangup(ingress.id);
    groups_[g].release(l);
    return refuse(stats_.egress_aborts, egress.reject, FedStage::kEgress);
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

std::size_t Federation::drain() {
  std::vector<FrontEnd<FedOutcome>::Pending>& batch = batch_;
  front_.open_epoch(batch);
  const std::size_t m = batch.size();
  if (m == 0) return 0;
  // Each request is served by call() in FIFO order, and its callback fires
  // on this thread before the next request routes: a batched request gets
  // the verdict, the trunk line and the abort path of the immediate plane.
  outs_.clear();
  for (const auto& p : batch) {
    outs_.push_back(call(p.req));
    if (p.done) p.done(outs_.back());
  }
  front_.close_epoch(batch, outs_, std::chrono::steady_clock::now());
  batch.clear();  // the callbacks' captures end with their epoch
  return m;
}

std::size_t Federation::drain_all() {
  // drain() takes the WHOLE queue (the federation front end has no window),
  // so this terminates as soon as no new submissions arrive.
  std::size_t total = 0;
  while (const std::size_t n = drain()) total += n;
  return total;
}

template <class Impact>
void Federation::kill_inter(std::uint32_t idx, Impact& impact) {
  const InterSlot& s = slots_[idx];
  FedOutcome dead;  // echoes the owner's handle: its generation still matches
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
  impact.killed.push_back(dead);
  // End-to-end re-admission on the immediate plane; the queue is untouched.
  impact.reroutes.push_back(call(orig));
  if (impact.reroutes.back().connected()) {
    ++impact.reroute_succeeded;
    ++stats_.reroute_succeeded;
  } else {
    ++impact.reroute_failed;
    ++stats_.reroute_failed;
  }
}

TrunkFaultImpact Federation::fail_trunk(std::uint32_t group,
                                        std::uint32_t line) {
  TrunkFaultImpact imp;
  imp.group = group;
  imp.line = line;
  if (!line_exists(imp)) return imp;
  imp.applied = !groups_[group].line_faulted(line);
  imp.was_busy = groups_[group].fault(line);  // idempotent on a failed line
  if (!imp.was_busy) return imp;
  ++stats_.calls_killed_by_trunk_fault;
  kill_inter(line_owner_[group][line], imp);
  return imp;
}

TrunkFaultImpact Federation::repair_trunk(std::uint32_t group,
                                          std::uint32_t line) {
  TrunkFaultImpact imp;
  imp.group = group;
  imp.line = line;
  if (!line_exists(imp)) return imp;
  imp.applied = groups_[group].line_faulted(line);
  groups_[group].repair(line);  // idempotent on a healthy line
  return imp;
}

std::uint32_t& Federation::half_owner(std::uint32_t shard, CallId half) {
  std::vector<std::uint32_t>& owners = half_owner_[shard];
  if (half.slot() >= owners.size()) owners.resize(half.slot() + 1, kNoOwner);
  return owners[half.slot()];
}

void Federation::reconcile_member_impact(unsigned shard, FedFaultImpact& out) {
  const FaultImpact& mi = out.member;
  // Map every victim to its inter slot BEFORE any re-bind: a reroute may
  // reuse a later victim's member slot.
  std::vector<std::uint32_t> owner(mi.killed.size(), kNoOwner);
  for (std::size_t i = 0; i < mi.killed.size(); ++i) {
    std::uint32_t& entry = half_owner(shard, mi.killed[i].id);
    if (entry == kNoOwner) continue;
    owner[i] = std::exchange(entry, kNoOwner);
  }
  std::vector<std::uint32_t> torn;
  for (std::size_t i = 0; i < mi.killed.size(); ++i) {
    const CallId dead = mi.killed[i].id;
    const std::uint32_t found = owner[i];
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
    const bool is_ingress = s.sa == shard && s.ingress == dead;
    const Outcome& rr = mi.reroutes[i];
    if (rr.connected()) {
      // The member rerouted the half in place. The trunk line (and with it
      // the half's far port) stayed reserved, so the reroute landed on the
      // same terminal pair: re-bind the slot and the inter call survives.
      (is_ingress ? s.ingress : s.egress) = rr.id;
      half_owner(shard, rr.id) = found;
      ++out.mates_adopted;
      ++stats_.mates_adopted;
      continue;
    }
    torn.push_back(found);
  }
  // Halves the member could not carry: tear down the mate and the trunk,
  // then re-admit the original end-to-end request.
  for (const std::uint32_t idx : torn) {
    ++out.mates_torn_down;
    ++stats_.mates_torn_down;
    kill_inter(idx, out);
  }
}

bool Federation::shard_exists(unsigned shard, const fault::FaultEvent& ev,
                              FedFaultImpact& out) {
  if (shard < shards()) return true;
  out.member.event = ev;
  out.member.reject = RejectReason::kBadSwitch;
  ++stats_.handle_errors;
  return false;
}

bool Federation::line_exists(TrunkFaultImpact& imp) {
  if (imp.group < groups_.size() && imp.line < groups_[imp.group].capacity())
    return true;
  imp.reject = RejectReason::kBadSwitch;
  ++stats_.handle_errors;
  return false;
}

FedFaultImpact Federation::inject(unsigned shard, const fault::FaultEvent& ev) {
  FedFaultImpact out;
  if (!shard_exists(shard, ev, out)) return out;
  out.member = members_[shard]->inject(ev);
  reconcile_member_impact(shard, out);
  return out;
}

FedFaultImpact Federation::repair(unsigned shard, const fault::FaultEvent& ev) {
  // A repair can kill too: un-welding a stuck-on switch tears down calls
  // that crossed it against its direction. Same reconciliation.
  FedFaultImpact out;
  if (!shard_exists(shard, ev, out)) return out;
  out.member = members_[shard]->repair(ev);
  reconcile_member_impact(shard, out);
  return out;
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

std::size_t Federation::failed_switch_count() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->failed_switch_count();
  return n;
}

std::size_t Federation::stuck_switch_count() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m->stuck_switch_count();
  return n;
}

bool Federation::shorted() const {
  return std::any_of(members_.begin(), members_.end(),
                     [](const auto& m) { return m->shorted(); });
}

FederationStats Federation::stats() const {
  FederationStats s = stats_;
  s.members = front_.books();
  for (const auto& m : members_) s.members += m->stats();
  for (const TrunkGroup& g : groups_) s.trunks += g.stats();
  return s;
}

void Federation::reset_stats() {
  for (const auto& m : members_) m->reset_stats();
  for (TrunkGroup& g : groups_) g.reset_stats();
  front_.reset_books();
  stats_ = {};
}

}  // namespace ftcs::svc
