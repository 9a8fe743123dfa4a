#include "svc/exchange.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/thread_pool.hpp"

namespace ftcs::svc {

namespace {
// Every Exchange gets a process-unique id tagged into its handles, so a
// handle presented to the wrong Exchange is detected (kForeignHandle)
// instead of silently indexing someone else's call table.
std::atomic<std::uint32_t> next_exchange_id{1};
}  // namespace

Exchange::Exchange(const graph::Network& net, ExchangeConfig cfg)
    : Exchange(&net, nullptr, std::move(cfg)) {}

Exchange::Exchange(graph::Network&& net, ExchangeConfig cfg)
    : Exchange(nullptr, std::make_unique<graph::Network>(std::move(net)),
               std::move(cfg)) {}

Exchange::Exchange(const graph::Network* net,
                   std::unique_ptr<graph::Network> owned, ExchangeConfig cfg)
    : owned_net_(std::move(owned)),
      net_(owned_net_ ? owned_net_.get() : net),
      engine_(make_engine(*net_, EngineOptions{cfg.backend, cfg.sessions,
                                               std::move(cfg.blocked),
                                               std::move(cfg.blocked_edges)})),
      admission_(cfg.admission ? std::move(cfg.admission)
                               : std::make_unique<UnboundedAdmission>()),
      home_sessions_(cfg.home_sessions),
      qos_immediate_(cfg.qos_immediate),
      class_deadlines_(cfg.class_deadlines),
      id_(next_exchange_id.fetch_add(1, std::memory_order_relaxed)),
      sessions_(engine_->sessions()) {
  // Pin the drain pool up front: every worker has re-pinned by the time
  // apply_affinity returns, so the first drain's lazily built session
  // scratch already first-touches on the pinned cpus. apply_affinity
  // reports the post-degrade policy (kNone on hosts that cannot honor it).
  if (cfg.affinity != util::AffinityPolicy::kNone)
    affinity_ = util::ThreadPool::global().apply_affinity(cfg.affinity);
}

// ------------------------------------------------------------------ handles

CallId Exchange::issue_handle(unsigned session, Engine::RawCall raw,
                              const CallRequest& req) {
  Session& s = sessions_[session];
  std::uint32_t slot;
  if (!s.free.empty()) {
    slot = s.free.back();
    s.free.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(s.slots.size());
    s.slots.emplace_back();
  }
  Slot& sl = s.slots[slot];
  sl.raw = raw;
  sl.live = true;
  sl.req = req;
  CallId id;
  id.exchange_ = id_;
  id.session_ = session;
  id.slot_ = slot;
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

Outcome Exchange::route_one(const CallRequest& req, unsigned session,
                            std::uint32_t deferrals) {
  Outcome o;
  o.tag = req.tag;
  o.session = session;
  o.deferrals = deferrals;
  const Engine::Connect c = engine_->connect(session, req.input, req.output);
  o.reject = c.reject;
  o.path_length = c.path_length;
  if (c.reject == RejectReason::kNone)
    o.id = issue_handle(session, c.call, req);
  return o;
}

void Exchange::record_class(ops::ClassBook& book, std::uint8_t priority,
                            const Outcome& o, double setup_seconds) const {
  ops::ClassStats& c = book[ops::qos_class(priority)];
  if (o.connected()) {
    ++c.served;
    c.setup.record(setup_seconds);
    const double deadline = class_deadlines_[ops::qos_class(priority)];
    if (deadline > 0.0 && setup_seconds > deadline) ++c.sla_violations;
  } else {
    ++c.rejected;
  }
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
  if (!qos_immediate_) return route_one(req, session, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const Outcome o = route_one(req, session, 0);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  record_class(sessions_[session].classes, req.priority, o, secs);
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
  engine_->disconnect(id.session_, slot.raw);
  // Retire the slot: bumping the generation invalidates every outstanding
  // copy of this handle, so double hangups and stale copies are caught by
  // check_handle() forever after.
  slot.live = false;
  slot.raw = Engine::kNoRawCall;
  slot.retired_by_fault = false;
  ++slot.gen;
  s.free.push_back(id.slot_);
  ++s.hangups;
  return RejectReason::kNone;
}

std::vector<graph::VertexId> Exchange::path_of(CallId id) {
  if (check_handle(id) != RejectReason::kNone) return {};
  return engine_->path_of(id.session_, sessions_[id.session_].slots[id.slot_].raw);
}

// ------------------------------------------------------------ batched plane

Ticket Exchange::submit(const CallRequest& req) {
  return submit_impl(req, CompletionFn{});
}

Ticket Exchange::submit(const CallRequest& req, CompletionFn done) {
  return submit_impl(req, std::move(done));
}

Ticket Exchange::submit_impl(const CallRequest& req, CompletionFn done) {
  Ticket ticket;
  bool refused = false;
  {
    std::lock_guard<std::mutex> lk(front_mu_);
    ticket = next_ticket_++;
    ++stats_.submitted;
    const std::size_t cap = admission_->max_queue_depth();
    if (cap > 0 && queue_.size() >= cap) {
      refused = true;
      ++stats_.refused;
      ++stats_.completed;
      ++stats_.classes[ops::qos_class(req.priority)].rejected;
      if (!done) {
        Outcome o;
        o.reject = RejectReason::kRefused;
        o.tag = req.tag;
        completed_.emplace(ticket, o);
      }
    } else {
      queue_.push_back(Pending{req, ticket, std::move(done), 0,
                               std::chrono::steady_clock::now()});
      stats_.queue_high_water =
          std::max<std::uint64_t>(stats_.queue_high_water, queue_.size());
    }
  }
  if (refused && done) {
    // Refusal callback fires on the submitting thread — there is no epoch
    // to defer it to.
    Outcome o;
    o.reject = RejectReason::kRefused;
    o.tag = req.tag;
    done(o);
  }
  return ticket;
}

std::vector<Exchange::Pending> Exchange::take_window(std::size_t window) {
  std::vector<Pending> out;
  out.reserve(std::min(window, queue_.size()));
  if (window >= queue_.size()) {
    for (auto& p : queue_) out.push_back(std::move(p));
    queue_.clear();
    return out;
  }
  // Fast path: one service class queued -> plain FIFO.
  bool uniform = true;
  for (const auto& p : queue_)
    if (p.req.priority != queue_.front().req.priority) {
      uniform = false;
      break;
    }
  if (uniform) {
    for (std::size_t i = 0; i < window; ++i) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return out;
  }
  // Mixed classes: admit the highest priorities, stable (FIFO) among
  // equals; the admitted batch keeps arrival order.
  std::vector<std::size_t> idx(queue_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
    return queue_[a].req.priority > queue_[b].req.priority;
  });
  idx.resize(window);
  std::sort(idx.begin(), idx.end());
  std::vector<char> taken(queue_.size(), 0);
  for (const std::size_t i : idx) {
    out.push_back(std::move(queue_[i]));
    taken[i] = 1;
  }
  std::deque<Pending> rest;
  for (std::size_t i = 0; i < taken.size(); ++i)
    if (!taken[i]) rest.push_back(std::move(queue_[i]));
  queue_ = std::move(rest);
  return out;
}

std::size_t Exchange::drain() {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lk(front_mu_);
    if (queue_.empty()) return 0;
    EpochFeedback fb;
    fb.epoch = stats_.epochs;
    fb.queued = queue_.size();
    fb.sessions = engine_->sessions();
    fb.admitted_last = last_admitted_;
    fb.claim_conflicts_last = last_conflicts_;
    fb.rejected_contention_last = last_contention_;
    fb.last_epoch_seconds = last_epoch_seconds_;
    // Fault-plane health for overlay-aware policies. Same threading domain
    // as inject()/repair() (both live in drain()'s contract), so the plain
    // reads are safe.
    fb.failed_switches = failed_switch_count_;
    fb.stuck_switches = stuck_switch_count_;
    fb.overlay_conflicts_last = last_overlay_;
    const std::size_t window = admission_->epoch_window(fb);
    if (window == 0) return 0;
    batch = take_window(window);
    ++stats_.epochs;
    stats_.admitted += batch.size();
    // Everyone still queued waits (at least) one more epoch: Deferred.
    stats_.deferred += queue_.size();
    for (auto& p : queue_) ++p.deferrals;
  }

  const core::RouterStats before = engine_->stats();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t m = batch.size();
  const unsigned s_count = engine_->sessions();
  std::vector<Outcome> outs(m);
  // Partition the window across sessions: session s routes the batch
  // indices in order[start[s], start[s+1]). Default is the deterministic
  // contiguous split by arrival index ([m*s/S, m*(s+1)/S)); with
  // home_sessions each request instead goes to the session owning its
  // INPUT terminal's range, so one session's claim CASes land in its own
  // slice of the terminal bitsets (its own cache domain once the pool is
  // pinned). The grouping sort is stable, so FIFO order within a session
  // is preserved. Either way each pool task owns exactly one session —
  // the per-session handle shards stay single-threaded and callbacks for
  // a request fire from the task that routed it.
  std::vector<std::uint32_t> order(m);
  std::vector<std::size_t> start(s_count + 1, 0);
  if (home_sessions_ && s_count > 1) {
    const std::size_t n_in = net_->inputs.size();
    const auto home = [&](std::uint32_t input) {
      const std::size_t s = static_cast<std::size_t>(input) * s_count / n_in;
      return static_cast<unsigned>(
          std::min<std::size_t>(s, s_count - 1));  // clamp bad inputs
    };
    for (std::size_t i = 0; i < m; ++i) ++start[home(batch[i].req.input) + 1];
    for (unsigned s = 0; s < s_count; ++s) start[s + 1] += start[s];
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < m; ++i)
      order[cursor[home(batch[i].req.input)]++] =
          static_cast<std::uint32_t>(i);
  } else {
    std::iota(order.begin(), order.end(), 0u);
    for (unsigned s = 0; s <= s_count; ++s) start[s] = m * s / s_count;
  }
  // Each session routes its chunk one request at a time in window order,
  // through the immediate plane's path: the verdicts are those of
  // sequential routing, and each callback fires right after its own request
  // routes.
  const auto route_chunk = [&](unsigned s) {
    for (std::size_t k = start[s]; k < start[s + 1]; ++k) {
      const std::size_t i = order[k];
      outs[i] = route_one(batch[i].req, s, batch[i].deferrals);
      if (batch[i].done) batch[i].done(outs[i]);
    }
  };
  if (s_count == 1) {
    route_chunk(0);
  } else {
    util::ThreadPool::global().run(
        s_count, [&route_chunk](std::size_t s) {
          route_chunk(static_cast<unsigned>(s));
        });
  }
  const core::RouterStats after = engine_->stats();
  const auto t1 = std::chrono::steady_clock::now();
  const double epoch_seconds = std::chrono::duration<double>(t1 - t0).count();

  {
    std::lock_guard<std::mutex> lk(front_mu_);
    for (std::size_t i = 0; i < m; ++i) {
      if (!batch[i].done) completed_.emplace(batch[i].ticket, outs[i]);
      // Setup latency = submit -> epoch settle: every outcome of this epoch
      // shares the settle stamp (one clock read), the queue wait dominates.
      record_class(
          stats_.classes, batch[i].req.priority, outs[i],
          std::chrono::duration<double>(t1 - batch[i].submitted_at).count());
    }
    stats_.completed += m;
    last_admitted_ = m;
    last_conflicts_ = after.claim_conflicts - before.claim_conflicts;
    last_contention_ = after.rejected_contention - before.rejected_contention;
    last_overlay_ = after.overlay_conflicts - before.overlay_conflicts;
    last_epoch_seconds_ = epoch_seconds;
  }
  return m;
}

std::size_t Exchange::drain_all() {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = drain();
    if (n == 0) return total;  // queue empty, or a zero-window policy
    total += n;
  }
}

std::optional<Outcome> Exchange::poll(Ticket ticket) {
  std::lock_guard<std::mutex> lk(front_mu_);
  const auto it = completed_.find(ticket);
  if (it == completed_.end()) return std::nullopt;
  Outcome o = it->second;
  completed_.erase(it);
  return o;
}

std::size_t Exchange::pending() const {
  std::lock_guard<std::mutex> lk(front_mu_);
  return queue_.size();
}

// -------------------------------------------------------------- fault plane

void Exchange::ensure_fault_state() {
  if (!failed_switches_.empty()) return;
  failed_switches_.resize(net_->g.edge_count());
  stuck_switches_.resize(net_->g.edge_count());
  vertex_fault_degree_.assign(net_->g.vertex_count(), 0);
  is_terminal_.assign(net_->g.vertex_count(), 0);
  for (const graph::VertexId v : net_->inputs) is_terminal_[v] = 1;
  for (const graph::VertexId v : net_->outputs) is_terminal_[v] = 1;
  welds_.emplace(*net_);
}

bool Exchange::path_alive(const std::vector<graph::VertexId>& path,
                          const std::vector<graph::VertexId>& newly_dead)
    const {
  for (const graph::VertexId v : path) {
    if (engine_->vertex_dead(v)) return false;
    for (const graph::VertexId d : newly_dead)
      if (v == d) return false;
  }
  const auto& g = net_->g;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto eids = g.out_edges(path[i]);
    const auto tgts = g.out_targets(path[i]);
    bool hop_alive = false;
    for (std::size_t k = 0; k < eids.size(); ++k)
      if (tgts[k] == path[i + 1] && engine_->edge_usable(eids[k])) {
        hop_alive = true;  // some parallel switch still carries this hop
        break;
      }
    if (!hop_alive && stuck_switch_count_ > 0) {
      // A stuck-on switch conducts both ways: the hop may ride a welded
      // switch whose edge points path[i+1] -> path[i].
      const auto reids = g.in_edges(path[i]);
      const auto rsrcs = g.in_sources(path[i]);
      for (std::size_t k = 0; k < reids.size(); ++k)
        if (rsrcs[k] == path[i + 1] && engine_->edge_contracted(reids[k]) &&
            engine_->edge_usable(reids[k])) {
          hop_alive = true;
          break;
        }
    }
    if (!hop_alive) return false;
  }
  return true;
}

void Exchange::reap_victims(FaultImpact& impact,
                            const std::vector<graph::VertexId>& newly_dead) {
  // Tear down every call whose path lost a component. The victims' busy
  // state must be released BEFORE any dead vertices are fault-claimed.
  for (std::uint32_t s = 0; s < sessions_.size(); ++s) {
    Session& sess = sessions_[s];
    for (std::uint32_t slot_idx = 0; slot_idx < sess.slots.size();
         ++slot_idx) {
      Slot& slot = sess.slots[slot_idx];
      if (!slot.live) continue;
      const auto path = engine_->path_of(s, slot.raw);
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
      engine_->disconnect(s, slot.raw);
      slot.live = false;
      slot.raw = Engine::kNoRawCall;
      slot.retired_by_fault = true;
      ++slot.gen;
      sess.free.push_back(slot_idx);
      ++stats_.calls_killed_by_fault;
    }
  }
}

void Exchange::reroute_victims(FaultImpact& impact) {
  // Immediate re-admission of the victims through the batched plane. Their
  // terminals are free again (the kill released them); whether a detour
  // exists is the engine's verdict. Anything already queued rides along.
  // Every victim RESOLVES within this call: if the policy refuses to drain
  // (zero window), the leftover victim submissions are cancelled and
  // reported kRefused — nothing fires after this frame returns. The
  // completion buffer is shared-owned anyway, as defense in depth.
  if (impact.killed.empty()) return;
  auto reroutes = std::make_shared<std::vector<Outcome>>(impact.killed.size());
  std::vector<Ticket> tickets;
  tickets.reserve(impact.killed.size());
  for (std::size_t i = 0; i < impact.killed.size(); ++i) {
    const CallRequest& req =
        sessions_[impact.killed[i].session].slots[impact.killed[i].id.slot_]
            .req;
    (*reroutes)[i].reject = RejectReason::kRefused;
    (*reroutes)[i].tag = req.tag;
    tickets.push_back(
        submit(req, [reroutes, i](const Outcome& o) { (*reroutes)[i] = o; }));
  }
  drain_all();
  {
    // Cancel victims a zero-window policy left queued (their sentinel
    // outcome above stays kRefused).
    std::lock_guard<std::mutex> lk(front_mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (std::find(tickets.begin(), tickets.end(), it->ticket) !=
          tickets.end())
        it = queue_.erase(it);
      else
        ++it;
    }
  }
  impact.reroutes = *reroutes;
  for (const Outcome& o : impact.reroutes) {
    if (o.connected())
      ++impact.reroute_succeeded;
    else
      ++impact.reroute_failed;
  }
  stats_.reroute_succeeded += impact.reroute_succeeded;
  stats_.reroute_failed += impact.reroute_failed;
}

FaultImpact Exchange::inject(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  ensure_fault_state();
  if (failed_switches_.test(ev.edge) || stuck_switches_.test(ev.edge))
    return impact;  // already down (in either failure mode)

  if (ev.kind == fault::FaultEvent::Kind::kStuckOn) {
    // Closed failure: the contact welds CONDUCTING. No call dies — a path
    // over the switch is still carried by the weld — and no vertex dies
    // (§6 death is about unusable switches; this one conducts, both ways).
    // Only the feasibility bookkeeping moves: the switch is down until
    // repaired, and the engines route across it in both directions
    // (runtime contraction).
    stuck_switches_.set(ev.edge);
    ++failed_switch_count_;
    ++stuck_switch_count_;
    ++stats_.faults_stuck;
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
      ++stats_.shorts_raised;
      last_alarm_ = al;
      impact.alarm = al;
    }
    return impact;
  }

  failed_switches_.set(ev.edge);
  ++failed_switch_count_;
  ++stats_.faults_injected;
  engine_->fail_edge(ev.edge);

  // §6 vertex death: a non-terminal vertex is faulty while ANY incident
  // switch is OPEN-failed; it dies with the first one. Terminals stay
  // alive — their surviving switches keep serving (the failed one is
  // edge-dead).
  const auto& edge = net_->g.edge(ev.edge);
  std::vector<graph::VertexId> newly_dead;
  for (const graph::VertexId v : {edge.from, edge.to}) {
    if (!is_terminal_[v] && ++vertex_fault_degree_[v] == 1)
      newly_dead.push_back(v);
    if (edge.from == edge.to) break;  // self-loop: one endpoint, one count
  }

  reap_victims(impact, newly_dead);
  for (const graph::VertexId v : newly_dead) engine_->kill_vertex(v);
  reroute_victims(impact);
  return impact;
}

FaultImpact Exchange::repair(const fault::FaultEvent& ev) {
  FaultImpact impact;
  impact.event = ev;
  ensure_fault_state();

  if (stuck_switches_.test(ev.edge)) {
    // Un-welding a stuck-on contact: the switch is a normal switching
    // element again. A call that crossed it ALONG its direction keeps its
    // path (the hop is carried by the now-normal switch); a call that
    // crossed it AGAINST its direction — legal only through the weld — has
    // lost its conductor and is torn down + re-admitted exactly like an
    // open-failure victim. No vertex state moves (stuck-on never killed
    // any).
    stuck_switches_.reset(ev.edge);
    --failed_switch_count_;
    --stuck_switch_count_;
    ++stats_.faults_repaired;
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
      ++stats_.shorts_cleared;
      last_alarm_ = al;
      impact.alarm = al;
    }
    reap_victims(impact, {});
    reroute_victims(impact);
    return impact;
  }

  if (!failed_switches_.test(ev.edge)) return impact;  // not down
  failed_switches_.reset(ev.edge);
  --failed_switch_count_;
  ++stats_.faults_repaired;
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

GrowthReport Exchange::grow(GrowthPlan plan) {
  GrowthReport rep;
  const auto t0 = std::chrono::steady_clock::now();
  const graph::Network& old_net = *net_;
  const graph::Network& next = plan.grown.net;
  const std::vector<graph::VertexId>& vmap = plan.grown.vmap;
  const std::size_t old_v = old_net.g.vertex_count();
  const std::size_t old_e = old_net.g.edge_count();
  const std::size_t new_v = next.g.vertex_count();
  const std::size_t new_e = next.g.edge_count();

  const auto fail = [&rep](const char* why) -> GrowthReport {
    rep.applied = false;
    rep.error = why;
    return rep;
  };
  // Validate the whole plan BEFORE touching any state: a rejected plan
  // leaves the exchange serving the old topology untouched.
  if (vmap.size() != old_v)
    return fail("growth plan rejected: vmap does not cover the old vertices");
  if (new_v < old_v || new_e < old_e)
    return fail("growth plan rejected: grown network is smaller than the base");
  util::Bitset seen(new_v);
  for (const graph::VertexId nv : vmap) {
    if (nv >= new_v)
      return fail("growth plan rejected: vmap image out of range");
    if (seen.test(nv))
      return fail("growth plan rejected: vmap is not injective");
    seen.set(nv);
  }
  for (graph::EdgeId e = 0; e < old_e; ++e) {
    const auto& oe = old_net.g.edge(e);
    const auto& ne = next.g.edge(e);
    if (ne.from != vmap[oe.from] || ne.to != vmap[oe.to])
      return fail("growth plan rejected: switch ids are not stable");
  }
  if (next.inputs.size() < old_net.inputs.size() ||
      next.outputs.size() < old_net.outputs.size())
    return fail("growth plan rejected: terminal lists shrank");
  for (std::size_t i = 0; i < old_net.inputs.size(); ++i)
    if (next.inputs[i] != vmap[old_net.inputs[i]])
      return fail("growth plan rejected: input terminals not prefix-stable");
  for (std::size_t i = 0; i < old_net.outputs.size(); ++i)
    if (next.outputs[i] != vmap[old_net.outputs[i]])
      return fail("growth plan rejected: output terminals not prefix-stable");

  rep.vertices_added = new_v - old_v;
  rep.switches_added = new_e - old_e;
  rep.inputs_added = next.inputs.size() - old_net.inputs.size();
  rep.outputs_added = next.outputs.size() - old_net.outputs.size();
  rep.calls_remapped = engine_->active_calls();

  // Commit. The old network must stay alive until the engine has remapped
  // off it, so the grown one moves into a fresh slot first and the owning
  // pointer is swapped last.
  auto grown = std::make_unique<graph::Network>(std::move(plan.grown.net));
  engine_->grow(*grown, vmap);

  if (!failed_switches_.empty()) {
    // Fault bookkeeping follows the merge. Switch ids are stable, so the
    // edge bitsets only extend; vertex fault state maps through vmap and
    // the terminal flags are recomputed over the grown terminal lists.
    util::Bitset failed2(new_e), stuck2(new_e);
    for (graph::EdgeId e = 0; e < old_e; ++e) {
      if (failed_switches_.test(e)) failed2.set(e);
      if (stuck_switches_.test(e)) stuck2.set(e);
    }
    failed_switches_ = std::move(failed2);
    stuck_switches_ = std::move(stuck2);
    std::vector<std::uint32_t> deg(new_v, 0);
    for (std::size_t v = 0; v < old_v; ++v)
      deg[vmap[v]] = vertex_fault_degree_[v];
    vertex_fault_degree_ = std::move(deg);
    is_terminal_.assign(new_v, 0);
    for (const graph::VertexId v : grown->inputs) is_terminal_[v] = 1;
    for (const graph::VertexId v : grown->outputs) is_terminal_[v] = 1;
    // The weld tracker is rebuilt over the grown graph and the welds
    // replayed: the welded switch set (stable ids) and the old terminals
    // both carry over, so the Lemma 7 short state is preserved — the
    // replay's transition returns are discarded, they were already counted
    // when the welds first landed.
    welds_.emplace(*grown);
    for (graph::EdgeId e = 0; e < old_e; ++e)
      if (stuck_switches_.test(e)) (void)welds_->add_weld(e);
    // The last alarm is history, but its terminals should name the vertices
    // as they are NOW known.
    if (last_alarm_) {
      if (last_alarm_->a != graph::kNoVertex && last_alarm_->a < old_v)
        last_alarm_->a = vmap[last_alarm_->a];
      if (last_alarm_->b != graph::kNoVertex && last_alarm_->b < old_v)
        last_alarm_->b = vmap[last_alarm_->b];
    }
  }

  owned_net_ = std::move(grown);
  net_ = owned_net_.get();
  ++stats_.growths;
  stats_.calls_remapped_by_growth += rep.calls_remapped;
  rep.applied = true;
  rep.quiesce_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return rep;
}

TopologyOutcome Exchange::apply(const TopologyEvent& ev) {
  TopologyOutcome out;
  if (ev.kind == TopologyEvent::Kind::kGrow) {
    if (ev.grow == nullptr) {
      GrowthReport rep;
      rep.error = "growth plan rejected: kGrow event carried no plan";
      out.growth = std::move(rep);
    } else {
      out.growth = grow(std::move(*ev.grow));
    }
  } else {
    out.fault = apply(ev.fault);
  }
  return out;
}

// ------------------------------------------------------------ introspection

ExchangeStats Exchange::stats() const {
  ExchangeStats st;
  {
    std::lock_guard<std::mutex> lk(front_mu_);
    st = stats_;
  }
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
  std::lock_guard<std::mutex> lk(front_mu_);
  stats_ = {};
  last_admitted_ = 0;
  last_conflicts_ = last_contention_ = last_overlay_ = 0;
  last_epoch_seconds_ = 0.0;
  for (Session& s : sessions_) {
    s.hangups = 0;
    s.classes = {};
  }
  handle_errors_.store(0, std::memory_order_relaxed);
  // The weld tracker and last_alarm_ are live state, not counters: the
  // short condition does not vanish because the books were reset.
}

}  // namespace ftcs::svc
