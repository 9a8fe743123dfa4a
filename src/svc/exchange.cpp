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
      router_(std::make_unique<core::Router>(*net_)),
      qos_immediate_(cfg.qos_immediate),
      id_(next_exchange_id.fetch_add(1, std::memory_order_relaxed)),
      front_(cfg.window, cfg.max_queue, cfg.class_deadlines),
      input_count_(static_cast<std::uint32_t>(net.inputs.size())),
      output_count_(static_cast<std::uint32_t>(net.outputs.size())) {}

// ------------------------------------------------------------------ handles

CallId Exchange::issue_handle(core::Router::CallId raw,
                              const CallRequest& req) {
  if (raw >= slots_.size()) slots_.resize(raw + 1);
  Slot& sl = slots_[raw];
  sl.live = true;
  sl.req = req;
  CallId id;
  id.exchange_ = id_;
  id.slot_ = raw;
  id.gen_ = sl.gen;
  return id;
}

RejectReason Exchange::check_handle(CallId id) const {
  if (id.exchange_ == 0) return RejectReason::kStaleHandle;  // null handle
  if (id.exchange_ != id_) return RejectReason::kForeignHandle;
  if (id.slot_ >= slots_.size()) return RejectReason::kStaleHandle;
  const Slot& slot = slots_[id.slot_];
  if (!slot.live || slot.gen != id.gen_) return RejectReason::kStaleHandle;
  return RejectReason::kNone;
}

// ---------------------------------------------------------- immediate plane

Outcome Exchange::outcome_of(const CallRequest& req,
                             std::uint32_t deferrals) {
  // The router classifies every refusal once, in its RouterStats: a rise in
  // rejected_terminal across the connect is a terminal verdict, and any
  // other refusal found no idle path. No second bookkeeping to drift.
  const std::uint64_t terminal = router_->stats().rejected_terminal;
  const core::Router::CallId call = router_->connect(req.input, req.output);
  Outcome o;
  o.tag = req.tag;
  o.deferrals = deferrals;
  if (call == core::Router::kNoCall) {
    o.reject = router_->stats().rejected_terminal > terminal
                   ? RejectReason::kTerminalBusy
                   : RejectReason::kNoPath;
    return o;
  }
  o.path_length = static_cast<std::uint32_t>(router_->path_length(call));
  o.id = issue_handle(call, req);
  return o;
}

Outcome Exchange::call(const CallRequest& req) {
  if (req.input >= input_count() || req.output >= output_count()) {
    // Counted with the handle misuses: without this, a caller dialling
    // terminals the exchange does not have would see its traffic vanish
    // from every stats()-derived report.
    handle_errors_.fetch_add(1, std::memory_order_relaxed);
    Outcome o;
    o.tag = req.tag;
    o.reject = RejectReason::kBadTerminal;
    return o;
  }
  if (!qos_immediate_) return outcome_of(req, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const Outcome o = outcome_of(req, 0);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ops::record_class(*classes_, req.priority, o.connected(), secs,
                    front_.class_deadlines());
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
        id.slot_ < slots_.size()) {
      const Slot& slot = slots_[id.slot_];
      if (slot.retired_by_fault && id.gen_ + 1 == slot.gen)
        return RejectReason::kFaulted;
    }
    handle_errors_.fetch_add(1, std::memory_order_relaxed);
    return err;
  }
  Slot& slot = slots_[id.slot_];
  router_->disconnect(id.slot_);
  // Retire the slot: bumping the generation invalidates every outstanding
  // copy of this handle, so double hangups and stale copies are caught by
  // check_handle() forever after.
  slot.live = false;
  slot.retired_by_fault = false;
  ++slot.gen;
  ++hangups_;
  return RejectReason::kNone;
}

std::vector<graph::VertexId> Exchange::path_of(CallId id) const {
  if (check_handle(id) != RejectReason::kNone) return {};
  return router_->path_of(id.slot_);
}

// ------------------------------------------------------------ batched plane

Ticket Exchange::bounce_bad_terminal(const CallRequest& req,
                                     CompletionFn done) {
  handle_errors_.fetch_add(1, std::memory_order_relaxed);
  return front_.bounce(req, RejectReason::kBadTerminal, std::move(done));
}

std::size_t Exchange::drain() {
  front_.open_epoch(batch_);
  const std::size_t m = batch_.size();
  if (m == 0) return 0;
  outs_.resize(m);
  // The draining thread commits the window in order, one request at a
  // time, each callback right after its own request: the verdicts and
  // paths of sequential routing.
  for (std::size_t i = 0; i < m; ++i) {
    const FrontEnd<Outcome>::Pending& p = batch_[i];
    outs_[i] = outcome_of(p.req, p.deferrals);
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
  return router_->path_carried(path);
}

void Exchange::reap_victims(FaultImpact& impact, const graph::Edge& edge,
                            std::span<const graph::VertexId> newly_dead) {
  // A switch event can only break a hop between the switch's endpoints,
  // and only they can die with it. A vertex carries at most one call, so
  // the candidates are the (at most two) calls through the endpoints; each
  // is judged by the one hop rule, in slot order. The victims' busy state
  // must be released BEFORE any dead vertices are fault-claimed.
  std::array<core::Router::CallId, 2> cand{router_->call_at(edge.from),
                                           router_->call_at(edge.to)};
  if (cand[1] < cand[0]) std::swap(cand[0], cand[1]);
  if (cand[1] == cand[0]) cand[1] = core::Router::kNoCall;  // one call
  for (const core::Router::CallId slot_idx : cand) {
    if (slot_idx == core::Router::kNoCall) continue;
    Slot& slot = slots_[slot_idx];
    const auto path = router_->path(slot_idx);
    if (path_alive(path, newly_dead)) continue;
    Outcome dead;
    dead.reject = RejectReason::kFaulted;
    dead.path_length = static_cast<std::uint32_t>(path.size());
    dead.tag = slot.req.tag;
    // The (now stale) handle is echoed so owners can reconcile their maps.
    dead.id.exchange_ = id_;
    dead.id.slot_ = slot_idx;
    dead.id.gen_ = slot.gen;
    impact.killed.push_back(dead);
    router_->disconnect(slot_idx);
    slot.live = false;
    slot.retired_by_fault = true;
    ++slot.gen;
    ++front_.plane_rows().calls_killed_by_fault;
  }
}

void Exchange::reroute_victims(FaultImpact& impact) {
  // Immediate re-admission: each victim's original request routes again,
  // in kill order. Their terminals are free again
  // (the kill released them); whether a detour exists is the router's
  // verdict. The admission queue is not touched. Every request is copied
  // before any routes, because a reroute may take a later victim's slot.
  if (impact.killed.empty()) return;
  std::vector<CallRequest> reqs;
  reqs.reserve(impact.killed.size());
  for (const Outcome& dead : impact.killed)
    reqs.push_back(slots_[dead.id.slot_].req);
  impact.reroutes.reserve(reqs.size());
  for (const CallRequest& req : reqs) {
    impact.reroutes.push_back(outcome_of(req, 0));
    if (impact.reroutes.back().connected())
      ++impact.reroute_succeeded;
    else
      ++impact.reroute_failed;
  }
  front_.plane_rows().reroute_succeeded += impact.reroute_succeeded;
  front_.plane_rows().reroute_failed += impact.reroute_failed;
}

bool Exchange::switch_exists(FaultImpact& impact) {
  if (impact.event.edge < net_->g.edge_count()) return true;
  impact.reject = RejectReason::kBadSwitch;
  handle_errors_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

FaultImpact Exchange::inject(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  if (!switch_exists(impact)) return impact;
  ensure_fault_state();
  if (router_->edge_failed(ev.edge) || router_->edge_contracted(ev.edge))
    return impact;  // already down (in either failure mode)

  if (ev.kind == fault::FaultEvent::Kind::kStuckOn) {
    // Closed failure: the contact welds CONDUCTING. No call dies — a path
    // over the switch is still carried by the weld — and no vertex dies
    // (§6 death is about unusable switches; this one conducts, both ways).
    // Only the feasibility bookkeeping moves: the switch is down until
    // repaired, and the router routes across it in both directions
    // (runtime contraction).
    ++front_.plane_rows().faults_stuck;
    router_->contract_edge(ev.edge);
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
  router_->fail_edge(ev.edge);

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
  for (const graph::VertexId v : newly_dead) router_->kill_vertex(v);
  reroute_victims(impact);
  return impact;
}

FaultImpact Exchange::repair(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  if (!switch_exists(impact)) return impact;
  ensure_fault_state();

  if (router_->edge_contracted(ev.edge)) {
    // Un-welding a stuck-on contact: the switch is a normal switching
    // element again. A call that crossed it ALONG its direction keeps its
    // path (the hop is carried by the now-normal switch); a call that
    // crossed it AGAINST its direction — legal only through the weld — has
    // lost its conductor and is torn down + re-admitted exactly like an
    // open-failure victim. No vertex state moves (stuck-on never killed
    // any).
    ++front_.plane_rows().faults_repaired;
    router_->uncontract_edge(ev.edge);
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

  if (!router_->edge_failed(ev.edge)) return impact;  // not down
  ++front_.plane_rows().faults_repaired;
  const auto& edge = net_->g.edge(ev.edge);
  for (const graph::VertexId v : {edge.from, edge.to}) {
    if (!is_terminal_[v] && vertex_fault_degree_[v] > 0 &&
        --vertex_fault_degree_[v] == 0)
      router_->revive_vertex(v);
    if (edge.from == edge.to) break;  // self-loop: one decrement
  }
  router_->repair_edge(ev.edge);
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
  rep.calls_carried = router_->active_calls();

  // Commit. The old network must stay alive until the router has moved off
  // it, so the grown one moves into a fresh slot first and the owning
  // pointer is swapped last.
  auto next = std::make_unique<graph::Network>(std::move(grown));
  router_->grow(*next);

  if (welds_) {
    // Fault bookkeeping keeps its ids (the router extended the switch and
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
      if (router_->edge_contracted(e)) (void)welds_->add_weld(e);
  }

  owned_net_ = std::move(next);
  net_ = owned_net_.get();
  input_count_.store(static_cast<std::uint32_t>(net_->inputs.size()),
                     std::memory_order_relaxed);
  output_count_.store(static_cast<std::uint32_t>(net_->outputs.size()),
                      std::memory_order_relaxed);
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
  st.router = router_->stats();
  st.hangups += hangups_;
  for (std::size_t c = 0; c < ops::kQosClasses; ++c)
    st.classes[c] += (*classes_)[c];
  st.handle_errors = handle_errors_.load(std::memory_order_relaxed);
  return st;
}

void Exchange::reset_stats() {
  router_->reset_stats();
  front_.reset_books();
  hangups_ = 0;
  *classes_ = {};
  handle_errors_.store(0, std::memory_order_relaxed);
  // The weld tracker and last_alarm_ are live state, not counters: the
  // short condition does not vanish because the books were reset.
}

}  // namespace ftcs::svc
