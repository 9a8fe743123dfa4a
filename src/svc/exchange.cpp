#include "svc/exchange.hpp"

#include <algorithm>
#include <chrono>

namespace ftcs::svc {

namespace {
// Every Exchange gets a process-unique id tagged into its handles, so a
// handle presented to the wrong Exchange is detected (kForeignHandle)
// instead of silently indexing someone else's call table.
std::atomic<std::uint32_t> next_exchange_id{1};
}  // namespace

Exchange::Exchange(const graph::Network& net, ExchangeConfig cfg)
    : net_(&net),
      engine_(make_engine(*net_, EngineOptions{cfg.backend, cfg.sessions})),
      qos_immediate_(cfg.qos_immediate),
      id_(next_exchange_id.fetch_add(1, std::memory_order_relaxed)),
      sessions_(engine_->sessions()),
      front_(cfg.window, cfg.max_queue, cfg.class_deadlines) {}

// ------------------------------------------------------------------ handles

CallId Exchange::issue_handle(unsigned session, Engine::RawCall raw,
                              const CallRequest& req) {
  Session& s = sessions_[session];
  if (raw >= s.slots.size()) s.slots.resize(raw + 1);
  Slot& sl = s.slots[raw];
  sl.live = true;
  sl.req = req;
  CallId id;
  id.exchange_ = id_;
  id.session_ = session;
  id.slot_ = raw;
  id.gen_ = sl.gen;
  return id;
}

RejectReason Exchange::check_handle(CallId id) const {
  if (id.exchange_ == 0) return RejectReason::kStaleHandle;  // null handle
  if (id.exchange_ != id_) return RejectReason::kForeignHandle;
  if (id.session_ >= sessions_.size()) return RejectReason::kBadSession;
  const Session& s = sessions_[id.session_];
  if (id.slot_ >= s.slots.size()) return RejectReason::kStaleHandle;
  const Slot& slot = s.slots[id.slot_];
  if (!slot.live || slot.gen != id.gen_) return RejectReason::kStaleHandle;
  return RejectReason::kNone;
}

// ---------------------------------------------------------- immediate plane

Outcome Exchange::outcome_of(const CallRequest& req, unsigned session,
                             std::uint32_t deferrals,
                             const Engine::Connect& c) {
  Outcome o;
  o.tag = req.tag;
  o.session = session;
  o.deferrals = deferrals;
  o.reject = c.reject;
  o.path_length = c.path_length;
  if (c.reject == RejectReason::kNone)
    o.id = issue_handle(session, c.call, req);
  return o;
}

Outcome Exchange::call(const CallRequest& req, unsigned session) {
  if (session >= engine_->sessions()) {
    // Counted with the handle misuses: without this, a caller fanning out
    // over more sessions than the engine has would see its traffic vanish
    // from every stats()-derived report.
    handle_errors_.fetch_add(1, std::memory_order_relaxed);
    Outcome o;
    o.tag = req.tag;
    o.session = session;
    o.reject = RejectReason::kBadSession;
    return o;
  }
  const auto route = [&] {
    return outcome_of(req, session, 0,
                      engine_->connect(session, req.input, req.output));
  };
  if (!qos_immediate_) return route();
  const auto t0 = std::chrono::steady_clock::now();
  const Outcome o = route();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ops::record_class(sessions_[session].classes, req.priority, o.connected(),
                    secs, front_.class_deadlines());
  return o;
}

RejectReason Exchange::hangup(CallId id) {
  const RejectReason err = check_handle(id);
  if (err != RejectReason::kNone) {
    // A handle whose call the fault plane tore down is NOT a misuse: the
    // owner could not have known. Its first post-kill hangup gets the typed
    // kFaulted ack (one-generation memory: once the slot's next call
    // retires, the handle degrades to the ordinary stale error).
    if (err == RejectReason::kStaleHandle && id.exchange_ == id_ &&
        id.session_ < sessions_.size()) {
      const Session& s = sessions_[id.session_];
      if (id.slot_ < s.slots.size()) {
        const Slot& slot = s.slots[id.slot_];
        if (slot.retired_by_fault && id.gen_ + 1 == slot.gen)
          return RejectReason::kFaulted;
      }
    }
    handle_errors_.fetch_add(1, std::memory_order_relaxed);
    return err;
  }
  Session& s = sessions_[id.session_];
  Slot& slot = s.slots[id.slot_];
  engine_->disconnect(id.session_, id.slot_);
  // Retire the slot: bumping the generation invalidates every outstanding
  // copy of this handle, so double hangups and stale copies are caught by
  // check_handle() forever after.
  slot.live = false;
  slot.retired_by_fault = false;
  ++slot.gen;
  ++s.hangups;
  return RejectReason::kNone;
}

std::vector<graph::VertexId> Exchange::path_of(CallId id) const {
  if (check_handle(id) != RejectReason::kNone) return {};
  const auto path = engine_->path_of(id.session_, id.slot_);
  return {path.begin(), path.end()};
}

// ------------------------------------------------------------ batched plane

std::size_t Exchange::drain() {
  front_.open_epoch(batch_);
  const std::size_t m = batch_.size();
  if (m == 0) return 0;
  const unsigned s_count = engine_->sessions();
  outs_.resize(m);
  // Session s takes the window's contiguous chunk [m*s/S, m*(s+1)/S) by
  // arrival index. The draining thread owns every session, so it commits
  // the window in order, one request at a time, each callback right after
  // its own request: the verdicts and paths of sequential routing.
  for (unsigned s = 0; s < s_count; ++s)
    for (std::size_t i = m * s / s_count; i < m * (s + 1) / s_count; ++i) {
      const FrontEnd<Outcome>::Pending& p = batch_[i];
      outs_[i] = outcome_of(p.req, s, p.deferrals,
                            engine_->settle(s, p.req.input, p.req.output));
      if (p.done) p.done(outs_[i]);
    }
  front_.close_epoch(batch_, outs_, std::chrono::steady_clock::now());
  batch_.clear();  // the callbacks' captures end with their epoch
  return m;
}

std::size_t Exchange::drain_all() {
  std::size_t total = 0;
  while (const std::size_t n = drain()) total += n;
  return total;
}

// -------------------------------------------------------------- fault plane

void Exchange::ensure_fault_state() {
  if (welds_) return;
  vertex_fault_degree_.assign(net_->g.vertex_count(), 0);
  is_terminal_.assign(net_->g.vertex_count(), 0);
  for (const graph::VertexId v : net_->inputs) is_terminal_[v] = 1;
  for (const graph::VertexId v : net_->outputs) is_terminal_[v] = 1;
  welds_.emplace(*net_);
}

bool Exchange::path_alive(std::span<const graph::VertexId> path,
                          std::span<const graph::VertexId> newly_dead) const {
  for (const graph::VertexId v : path)
    if (std::find(newly_dead.begin(), newly_dead.end(), v) != newly_dead.end())
      return false;
  return engine_->path_carried(path);
}

void Exchange::reap_victims(FaultImpact& impact, const graph::Edge& edge,
                            std::span<const graph::VertexId> newly_dead) {
  // A switch event can only break a hop between the switch's endpoints,
  // and only they can die with it. A vertex carries at most one call, so
  // the candidates are the (at most two) calls through the endpoints; each
  // is judged by the one hop rule, in (session, slot) order. The victims'
  // busy state must be released BEFORE any dead vertices are fault-claimed.
  std::array<core::CallRef, 2> cand{engine_->call_at(edge.from),
                                    engine_->call_at(edge.to)};
  const auto key = [](const core::CallRef& c) {
    return std::pair(c.session, c.call);
  };
  if (key(cand[1]) < key(cand[0])) std::swap(cand[0], cand[1]);
  if (key(cand[1]) == key(cand[0])) cand[1] = {};  // one call through both
  for (const core::CallRef& c : cand) {
    const std::uint32_t s = c.session;
    const std::uint32_t slot_idx = c.call;
    if (slot_idx == Engine::kNoRawCall) continue;
    Slot& slot = sessions_[s].slots[slot_idx];
    const auto path = engine_->path_of(s, slot_idx);
    if (path_alive(path, newly_dead)) continue;
    Outcome dead;
    dead.reject = RejectReason::kFaulted;
    dead.session = s;
    dead.path_length = static_cast<std::uint32_t>(path.size());
    dead.tag = slot.req.tag;
    // The (now stale) handle is echoed so owners can reconcile their maps.
    dead.id.exchange_ = id_;
    dead.id.session_ = s;
    dead.id.slot_ = slot_idx;
    dead.id.gen_ = slot.gen;
    impact.killed.push_back(dead);
    engine_->disconnect(s, slot_idx);
    slot.live = false;
    slot.retired_by_fault = true;
    ++slot.gen;
    ++front_.plane_rows().calls_killed_by_fault;
  }
}

void Exchange::reroute_victims(FaultImpact& impact) {
  // Immediate re-admission: each victim's original request routes again on
  // the victim's own session, in kill order, through the owner's settle
  // (the event holds every session). Their terminals are free again
  // (the kill released them); whether a detour exists is the engine's
  // verdict. The admission queue is not touched. Every request is copied
  // before any routes, because a reroute may take a later victim's slot.
  if (impact.killed.empty()) return;
  std::vector<CallRequest> reqs;
  reqs.reserve(impact.killed.size());
  for (const Outcome& dead : impact.killed)
    reqs.push_back(sessions_[dead.session].slots[dead.id.slot_].req);
  impact.reroutes.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const unsigned s = impact.killed[i].session;
    impact.reroutes.push_back(outcome_of(
        reqs[i], s, 0,
        engine_->settle(s, reqs[i].input, reqs[i].output)));
    if (impact.reroutes.back().connected())
      ++impact.reroute_succeeded;
    else
      ++impact.reroute_failed;
  }
  front_.plane_rows().reroute_succeeded += impact.reroute_succeeded;
  front_.plane_rows().reroute_failed += impact.reroute_failed;
}

FaultImpact Exchange::inject(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  ensure_fault_state();
  if (engine_->edge_failed(ev.edge) || engine_->edge_contracted(ev.edge))
    return impact;  // already down (in either failure mode)

  if (ev.kind == fault::FaultEvent::Kind::kStuckOn) {
    // Closed failure: the contact welds CONDUCTING. No call dies — a path
    // over the switch is still carried by the weld — and no vertex dies
    // (§6 death is about unusable switches; this one conducts, both ways).
    // Only the feasibility bookkeeping moves: the switch is down until
    // repaired, and the engines route across it in both directions
    // (runtime contraction).
    ++front_.plane_rows().faults_stuck;
    engine_->contract_edge(ev.edge);
    if (welds_->add_weld(ev.edge)) {
      // This weld bridged two terminals into one electrical node: the
      // Lemma 7 catastrophe, raised at the triggering inject.
      const auto pair = welds_->shorted_pair();
      fault::ShortAlarm al;
      al.a = pair ? pair->first : graph::kNoVertex;
      al.b = pair ? pair->second : graph::kNoVertex;
      al.trigger = ev.edge;
      al.raised = true;
      al.seq = ++alarm_seq_;
      ++front_.plane_rows().shorts_raised;
      last_alarm_ = al;
      impact.alarm = al;
    }
    return impact;
  }

  ++front_.plane_rows().faults_injected;
  engine_->fail_edge(ev.edge);

  // §6 vertex death: a non-terminal vertex is faulty while ANY incident
  // switch is OPEN-failed; it dies with the first one. Terminals stay
  // alive — their surviving switches keep serving (the failed one is
  // edge-dead).
  const auto& edge = net_->g.edge(ev.edge);
  std::array<graph::VertexId, 2> dead{};  // at most the two endpoints
  std::size_t dead_count = 0;
  for (const graph::VertexId v : {edge.from, edge.to}) {
    if (!is_terminal_[v] && ++vertex_fault_degree_[v] == 1)
      dead[dead_count++] = v;
    if (edge.from == edge.to) break;  // self-loop: one endpoint, one count
  }
  const std::span<const graph::VertexId> newly_dead(dead.data(), dead_count);

  reap_victims(impact, edge, newly_dead);
  for (const graph::VertexId v : newly_dead) engine_->kill_vertex(v);
  reroute_victims(impact);
  return impact;
}

FaultImpact Exchange::repair(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  ensure_fault_state();

  if (engine_->edge_contracted(ev.edge)) {
    // Un-welding a stuck-on contact: the switch is a normal switching
    // element again. A call that crossed it ALONG its direction keeps its
    // path (the hop is carried by the now-normal switch); a call that
    // crossed it AGAINST its direction — legal only through the weld — has
    // lost its conductor and is torn down + re-admitted exactly like an
    // open-failure victim. No vertex state moves (stuck-on never killed
    // any).
    ++front_.plane_rows().faults_repaired;
    engine_->uncontract_edge(ev.edge);
    if (welds_->remove_weld(ev.edge)) {
      // The clearing repair: the last terminal bridge dissolved. Echo the
      // pair the raise reported so operators can correlate the two.
      fault::ShortAlarm al;
      al.a = last_alarm_ ? last_alarm_->a : graph::kNoVertex;
      al.b = last_alarm_ ? last_alarm_->b : graph::kNoVertex;
      al.trigger = ev.edge;
      al.raised = false;
      al.seq = ++alarm_seq_;
      ++front_.plane_rows().shorts_cleared;
      last_alarm_ = al;
      impact.alarm = al;
    }
    reap_victims(impact, net_->g.edge(ev.edge), {});
    reroute_victims(impact);
    return impact;
  }

  if (!engine_->edge_failed(ev.edge)) return impact;  // not down
  ++front_.plane_rows().faults_repaired;
  const auto& edge = net_->g.edge(ev.edge);
  for (const graph::VertexId v : {edge.from, edge.to}) {
    if (!is_terminal_[v] && vertex_fault_degree_[v] > 0 &&
        --vertex_fault_degree_[v] == 0)
      engine_->revive_vertex(v);
    if (edge.from == edge.to) break;  // self-loop: one decrement
  }
  engine_->repair_edge(ev.edge);
  return impact;
}

// ------------------------------------------------------------------- growth

GrowthReport Exchange::grow(graph::Network grown) {
  GrowthReport rep;
  const auto t0 = std::chrono::steady_clock::now();
  const graph::Network& old_net = *net_;
  const std::size_t old_v = old_net.g.vertex_count();
  const std::size_t old_e = old_net.g.edge_count();
  const std::size_t new_v = grown.g.vertex_count();
  const std::size_t new_e = grown.g.edge_count();

  const auto fail = [&rep](const char* why) -> GrowthReport {
    rep.applied = false;
    rep.error = why;
    return rep;
  };
  // Validate the whole network BEFORE touching any state: a rejected one
  // leaves the exchange serving the old topology untouched.
  if (new_v < old_v || new_e < old_e)
    return fail("growth plan rejected: grown network is smaller than the base");
  for (graph::EdgeId e = 0; e < old_e; ++e) {
    const auto& oe = old_net.g.edge(e);
    const auto& ne = grown.g.edge(e);
    if (ne.from != oe.from || ne.to != oe.to)
      return fail("growth plan rejected: switch ids are not stable");
  }
  if (grown.inputs.size() < old_net.inputs.size() ||
      grown.outputs.size() < old_net.outputs.size())
    return fail("growth plan rejected: terminal lists shrank");
  if (!std::equal(old_net.inputs.begin(), old_net.inputs.end(),
                  grown.inputs.begin()))
    return fail("growth plan rejected: input terminals not prefix-stable");
  if (!std::equal(old_net.outputs.begin(), old_net.outputs.end(),
                  grown.outputs.begin()))
    return fail("growth plan rejected: output terminals not prefix-stable");

  rep.vertices_added = new_v - old_v;
  rep.switches_added = new_e - old_e;
  rep.inputs_added = grown.inputs.size() - old_net.inputs.size();
  rep.outputs_added = grown.outputs.size() - old_net.outputs.size();
  rep.calls_carried = engine_->active_calls();

  // Commit. The old network must stay alive until the engine has moved off
  // it, so the grown one moves into a fresh slot first and the owning
  // pointer is swapped last.
  auto next = std::make_unique<graph::Network>(std::move(grown));
  engine_->grow(*next);

  if (welds_) {
    // Fault bookkeeping keeps its ids (the engine extended the switch and
    // vertex overlay itself): the vertex fault degrees extend with healthy
    // tail entries, and the terminal flags are recomputed over the grown
    // terminal lists.
    vertex_fault_degree_.resize(new_v, 0);
    is_terminal_.assign(new_v, 0);
    for (const graph::VertexId v : next->inputs) is_terminal_[v] = 1;
    for (const graph::VertexId v : next->outputs) is_terminal_[v] = 1;
    // The weld tracker is rebuilt over the grown graph and the welds
    // replayed: the welded switch set and the old terminals both carry
    // over, so the Lemma 7 short state is preserved — the replay's
    // transition returns are discarded, they were already counted when the
    // welds first landed.
    welds_.emplace(*next);
    for (graph::EdgeId e = 0; e < old_e; ++e)
      if (engine_->edge_contracted(e)) (void)welds_->add_weld(e);
  }

  owned_net_ = std::move(next);
  net_ = owned_net_.get();
  ++front_.plane_rows().growths;
  front_.plane_rows().calls_carried_by_growth += rep.calls_carried;
  rep.applied = true;
  rep.quiesce_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return rep;
}

// ------------------------------------------------------------ introspection

ExchangeStats Exchange::stats() const {
  ExchangeStats st = front_.books();
  st.router = engine_->stats();
  for (const Session& s : sessions_) {
    st.hangups += s.hangups;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c)
      st.classes[c] += s.classes[c];
  }
  st.handle_errors = handle_errors_.load(std::memory_order_relaxed);
  return st;
}

void Exchange::reset_stats() {
  engine_->reset_stats();
  front_.reset_books();
  for (Session& s : sessions_) {
    s.hangups = 0;
    s.classes = {};
  }
  handle_errors_.store(0, std::memory_order_relaxed);
  // The weld tracker and last_alarm_ are live state, not counters: the
  // short condition does not vanish because the books were reset.
}

}  // namespace ftcs::svc
