// ftcs::svc::Exchange — session-oriented call service over the router's
// two backends.
//
// The paper's networks are telephone exchanges (Clos [Cl]): an exchange
// serves calls, it does not expose raw connect(in, out) pokes at a router.
// Exchange is that service facade. It owns the fault plane (and optionally
// the network), serves typed CallRequests through a pluggable Engine
// backend (one core::Router session on the solo store, or N sessions on the
// shared store, selected at construction), and hands back generation-tagged CallId handles whose
// misuse — stale handle, double hangup, handle from another Exchange — is a
// typed error, never corrupted busy state.
//
// Two service planes:
//   - IMMEDIATE: call(req, session) routes now on one engine session and
//     returns the Outcome; hangup(id) releases. This is the low-latency,
//     event-driven plane (the traffic simulation lives here).
//   - BATCHED:   submit(req[, callback]) enqueues; drain() runs one
//     admission epoch — the highest-priority ExchangeConfig::window of
//     queued requests (the whole queue when the window is 0) is split by
//     arrival index into one contiguous chunk per engine session, and the
//     draining thread commits the window in order, one request at a time,
//     through Engine::settle (plain writes: it owns every session).
//     Completions are delivered through the callback (on the draining
//     thread, right after the request commits) or a pollable Ticket.
//     Requests beyond the window stay queued (Deferred, counted per epoch
//     and surfaced in Outcome::deferrals); submissions at
//     ExchangeConfig::max_queue bounce immediately (Refused); that queue is
//     svc::FrontEnd's. See src/svc/README.md ("Batched drain").
//
// Threading rules (full contract in svc/README.md):
//   - submit() and poll() are thread-safe from any thread.
//   - call()/hangup() on session s must be externally serialized per
//     session; distinct sessions may run concurrently. A handle must be
//     hung up by the thread currently driving its session (CallId::session).
//   - drain() runs from one thread at a time and must not overlap immediate
//     calls: it owns every session and writes busy state without CAS, so an
//     overlapping call corrupts it.
//   - stats() aggregates are exact at quiescence, like the engines'.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/schedule.hpp"
#include "fault/weld_components.hpp"
#include "ops/latency.hpp"
#include "svc/call.hpp"
#include "svc/engine.hpp"
#include "svc/front_end.hpp"

namespace ftcs::svc {

/// What one fault-plane operation did: which calls died (typed kFaulted
/// outcomes echoing the original request's tag, with the now-dead handle)
/// and how their immediate re-admission went (reroutes[i] is the new
/// outcome for killed[i], routed on killed[i]'s session).
struct FaultImpact {
  fault::FaultEvent event;
  std::vector<Outcome> killed;    // reject == kFaulted; id is the dead handle
  std::vector<Outcome> reroutes;  // index-aligned with killed
  std::uint64_t reroute_succeeded = 0;
  std::uint64_t reroute_failed = 0;
  /// Set iff THIS event flipped the Lemma 7 short state: raised==true on
  /// the stuck-on inject that first bridged two terminals, raised==false
  /// on the repair that dissolved the last bridge.
  std::optional<fault::ShortAlarm> alarm;
  [[nodiscard]] std::size_t calls_killed() const noexcept {
    return killed.size();
  }
};

/// What one grow() did. `applied == false` means the grown network failed
/// validation (error says why) and NO state was touched — the exchange
/// keeps serving on the old topology. calls_killed is exported so the
/// hitless invariant is observable; grow() never tears a call down, so it
/// is always zero.
struct GrowthReport {
  bool applied = false;
  std::string error;  // set iff !applied
  std::size_t vertices_added = 0;
  std::size_t switches_added = 0;  // edges (the paper's switches)
  std::size_t inputs_added = 0;
  std::size_t outputs_added = 0;
  std::uint64_t calls_carried = 0;   // live calls carried across the growth
  std::uint64_t calls_killed = 0;    // always 0: growth is hitless
  double quiesce_seconds = 0.0;      // wall time the sessions were held
};

struct ExchangeConfig {
  Backend backend = Backend::kGreedy;
  /// Engine sessions (concurrent backend parallelism; clamped to 1 for the
  /// greedy backend).
  unsigned sessions = 1;
  /// Batched plane: drain() admits at most this many queued requests per
  /// epoch; 0 admits the whole queue.
  std::size_t window = 0;
  /// Batched plane: a submit() that finds this many requests queued is
  /// Refused (RejectReason::kRefused); 0 means no cap.
  std::size_t max_queue = 0;
  /// Per-class SLA deadlines in seconds (0 = that class carries no SLA). A
  /// served call whose setup latency exceeds its class deadline counts into
  /// ClassStats::sla_violations. Deadlines index by ops::qos_class().
  std::array<double, ops::kQosClasses> class_deadlines{};
  /// Book setup latency on the IMMEDIATE plane too (adds two clock reads
  /// per call() on that hot path, hence opt-in). The batched plane always
  /// keeps its books — there the timestamps amortize over whole epochs.
  bool qos_immediate = false;
};

class Exchange {
 public:
  /// Serves calls on `net`, which must outlive the Exchange (the usual
  /// router contract — networks are shared, immutable CSR structures).
  explicit Exchange(const graph::Network& net, ExchangeConfig cfg = {});
  /// A temporary network would dangle.
  explicit Exchange(graph::Network&& net, ExchangeConfig cfg = {}) = delete;

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  // ----------------------------------------------------------- immediate
  /// Routes the request now on `session` and returns the Outcome
  /// (Outcome::id is live iff connected()).
  Outcome call(const CallRequest& req, unsigned session = 0);
  /// Releases a call. Returns kNone on success; kStaleHandle /
  /// kForeignHandle / kBadSession on a handle that is not currently live
  /// here — in which case nothing is touched.
  RejectReason hangup(CallId id);
  /// Vertices of a live call's path (input first); empty for a non-live
  /// handle.
  [[nodiscard]] std::vector<graph::VertexId> path_of(CallId id) const;

  // ------------------------------------------------------------- batched
  /// Completion hook for the batched plane; runs during drain() on the
  /// draining thread, right after its request commits, in commit order.
  /// It must not call drain(), inject(), repair(), apply() or grow(): each
  /// owns every session, as the running drain does. A hangup of this
  /// exchange's call from a callback is safe; later requests of the epoch
  /// route against the busy state it leaves.
  using CompletionFn = FrontEnd<Outcome>::CompletionFn;
  /// Enqueues a request; the Outcome becomes available via poll(ticket)
  /// after the epoch that serves it. Thread-safe. If the admission queue is
  /// at its cap the request is Refused: its Outcome (reject == kRefused) is
  /// immediately pollable.
  Ticket submit(const CallRequest& req) { return front_.submit(req, {}); }
  /// Callback flavour: `done` is invoked with the Outcome instead of
  /// storing it for poll().
  Ticket submit(const CallRequest& req, CompletionFn done) {
    return front_.submit(req, std::move(done));
  }
  /// Runs one admission epoch: admits up to ExchangeConfig::window queued
  /// requests, or all of them when the window is 0 (highest priority
  /// first, FIFO among equals), commits the batch across all sessions in
  /// window order on this thread, delivers completions. Returns the number
  /// of requests admitted: 0 iff the queue was empty.
  std::size_t drain();
  /// Runs epochs until one admits nothing, i.e. until the queue is empty
  /// (requests submitted meanwhile are served too). Returns the total
  /// admitted.
  std::size_t drain_all();
  /// Takes the completed Outcome for `ticket` (once); nullopt if the
  /// request is still queued, was delivered via callback, or was already
  /// polled. Thread-safe.
  [[nodiscard]] std::optional<Outcome> poll(Ticket ticket) {
    return front_.poll(ticket);
  }
  /// Requests waiting in the admission queue. Thread-safe.
  [[nodiscard]] std::size_t pending() const { return front_.pending(); }

  // --------------------------------------------------------- fault plane
  // Runtime fault injection on the live topology (§4/§6: the network keeps
  // switching calls in the presence of faulty switches). Threading contract
  // is drain()'s: one thread at a time, never overlapping immediate calls —
  // a fault event temporarily owns every session.
  //
  // inject() dispatches on the failure MODE (ev.kind):
  //   - kFail (open): fails the switch in the liveness overlay, derives §6
  //     vertex death (a NON-TERMINAL vertex dies with its first OPEN-failed
  //     incident switch; terminals stay serviceable through their surviving
  //     switches), tears down every active call whose path lost a component
  //     (typed kFaulted outcomes), then immediately routes each victim's
  //     original request again on the victim's own session, in kill order.
  //     The admission queue is untouched: a queued backlog waits for the
  //     next drain(), and no fault event runs an admission epoch.
  //   - kStuckOn (closed): the switch welds conducting — the engines route
  //     across it in both directions (runtime contraction). NO call dies
  //     (a path over the weld is still carried) and NO vertex dies (§6 death is about unusable switches; this
  //     one conducts). Only the feasibility bookkeeping moves: the switch
  //     counts as down until repaired.
  // repair() reverses either failure. Repairing an OPEN switch revives a
  // vertex when its last open-failed incident switch heals and kills
  // nothing. Repairing a STUCK-ON switch un-welds the contact: calls that
  // crossed it AGAINST its direction (the weld conducts both ways; a normal
  // switch does not) lose their conductor and are torn down + re-admitted
  // exactly like open-failure victims. All operations are idempotent per
  // switch state and count into ExchangeStats.
  FaultImpact inject(const fault::FaultEvent& ev);
  FaultImpact repair(const fault::FaultEvent& ev);
  /// Dispatches on ev.kind — the one-liner consumers of a FaultSchedule use.
  FaultImpact apply(const fault::FaultEvent& ev) {
    return ev.kind == fault::FaultEvent::Kind::kRepair ? repair(ev)
                                                       : inject(ev);
  }
  /// Switches currently down, open-failed or stuck-on (the engine's
  /// overlay, which every inject/repair updates).
  [[nodiscard]] std::size_t failed_switch_count() const {
    return engine_->failed_edge_count() + engine_->contracted_edge_count();
  }
  /// The stuck-on subset of failed_switch_count().
  [[nodiscard]] std::size_t stuck_switch_count() const {
    return engine_->contracted_edge_count();
  }
  /// Live Lemma 7 state: true while the current weld chain contracts two
  /// distinct terminals into one electrical node. Equivalent to
  /// FaultInstance::terminals_shorted() on the accumulated fault set.
  [[nodiscard]] bool shorted() const noexcept {
    return welds_ && welds_->shorted();
  }
  /// The most recent short transition (raise or clear); nullopt before the
  /// first. While shorted(), this is the active raise.
  [[nodiscard]] const std::optional<fault::ShortAlarm>& last_short_alarm()
      const noexcept {
    return last_alarm_;
  }

  // -------------------------------------------------------------- growth
  /// Hitless capacity growth: swaps the exchange onto `grown`, an
  /// append-only extension of network() (graph::NetworkDelta,
  /// networks::grow_cantor), carrying every live call (immediate- and
  /// batched-plane handles and paths stay exactly as they are), the fault
  /// overlay (failed/stuck switches, dead vertices and the weld tracker keep
  /// their ids) and all counters. Queued batch requests simply route on the
  /// grown topology at the next drain().
  ///
  /// Threading contract is drain()'s: one thread at a time, never
  /// overlapping immediate calls — the grow temporarily owns every session
  /// (that window is the quiesce; its wall time is reported).
  ///
  /// The network is validated first: not smaller, every old switch id
  /// joins the same two vertices, terminal lists prefix-stable. A network
  /// that fails validation is rejected with applied == false and an error
  /// message; the exchange is untouched. grow() never kills a call:
  /// GrowthReport::calls_killed is always 0.
  GrowthReport grow(graph::Network grown);

  // ------------------------------------------------------- introspection
  [[nodiscard]] unsigned sessions() const noexcept {
    return engine_->sessions();
  }
  [[nodiscard]] const graph::Network& network() const noexcept { return *net_; }
  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return engine_->input_idle(in);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return engine_->output_idle(out);
  }
  [[nodiscard]] std::size_t input_count() const noexcept {
    return net_->inputs.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept {
    return net_->outputs.size();
  }
  [[nodiscard]] std::size_t active_calls() const {
    return engine_->active_calls();
  }
  [[nodiscard]] std::size_t busy_vertices() const {
    return engine_->busy_vertices();
  }
  /// Engine + front-end counters, merged. Exact at quiescence.
  [[nodiscard]] ExchangeStats stats() const;
  void reset_stats();

 private:
  /// One handle-table shard per engine session: single-threaded by the
  /// session contract, so handle issue/retire is lock-free. A handle's slot
  /// IS its engine call's raw id: the engine hands each raw id to one live
  /// call at a time, and the fault plane maps Engine::call_at's answer to
  /// its slot without a search.
  struct Slot {
    std::uint32_t gen = 1;  // bumped on retire; a handle is live iff its
                            // gen matches AND live is set
    bool live = false;
    // True iff the PREVIOUS generation was retired by the fault plane: the
    // owner's retained handle then gets a kFaulted ack (not a kStaleHandle
    // misuse) on its first post-kill hangup. One-generation memory.
    bool retired_by_fault = false;
    CallRequest req;  // original request, kept for fault-plane re-admission
  };
  struct Session {
    std::vector<Slot> slots;  // indexed by raw call id
    std::uint64_t hangups = 0;
    // Immediate-plane QoS book (filled only with cfg.qos_immediate);
    // single-threaded by the session contract, merged by stats().
    ops::ClassBook classes{};
  };

  CallId issue_handle(unsigned session, Engine::RawCall raw,
                      const CallRequest& req);
  /// Validates a handle: kNone if it is live here, else the typed error.
  RejectReason check_handle(CallId id) const;
  /// The Outcome of `req` routed on `session` as `c` says, with its
  /// handle issued when `c` connected.
  Outcome outcome_of(const CallRequest& req, unsigned session,
                     std::uint32_t deferrals, const Engine::Connect& c);
  /// Sizes the fault-plane bookkeeping on the first event (off hot paths).
  void ensure_fault_state();
  /// True iff `path` avoids `newly_dead` and the engine still carries
  /// every hop. A live path never crosses a vertex that was already dead.
  [[nodiscard]] bool path_alive(std::span<const graph::VertexId> path,
                                std::span<const graph::VertexId> newly_dead)
      const;
  /// Tears down the calls through `edge`'s endpoints whose paths are no
  /// longer alive (typed kFaulted outcomes into `impact.killed`, in
  /// (session, slot) order); busy state is released so the caller may
  /// fault-claim `newly_dead` (a subset of the endpoints) afterwards.
  void reap_victims(FaultImpact& impact, const graph::Edge& edge,
                    std::span<const graph::VertexId> newly_dead);
  /// Routes each of impact.killed's requests again on its own session, in
  /// kill order; fills impact.reroutes (index-aligned) and the reroute
  /// counters. Never touches the admission queue.
  void reroute_victims(FaultImpact& impact);

  std::unique_ptr<graph::Network> owned_net_;  // set only by grow()
  const graph::Network* net_;
  std::unique_ptr<Engine> engine_;
  bool qos_immediate_ = false;
  std::uint32_t id_;  // process-unique, tagged into every CallId
  std::vector<Session> sessions_;
  // drain()'s epoch buffers, kept across epochs: an epoch whose window is
  // no larger than an earlier one's allocates nothing.
  std::vector<FrontEnd<Outcome>::Pending> batch_;
  std::vector<Outcome> outs_;  // outs_[i] answers batch_[i]

  // The batched queue, the class deadlines and the exchange's one
  // ExchangeStats block; drain(), the fault plane and grow() book their
  // rows through plane_rows() under the drain contract.
  FrontEnd<Outcome> front_;
  // Fault-plane policy (same single-owner contract as the sessions; sized
  // lazily by the first event). The switch state itself lives in the
  // engine's overlay. A vertex is §6-faulty while any incident switch is
  // OPEN-failed — vertex_fault_degree_ counts those (stuck-on switches
  // conduct, so they never contribute).
  std::vector<std::uint32_t> vertex_fault_degree_;
  std::vector<std::uint8_t> is_terminal_;
  // Live Lemma 7 tracking (same single-owner contract; welds_ is emplaced
  // with the rest of the fault bookkeeping and marks it as sized).
  // last_alarm_ is state, not a counter: it survives reset_stats().
  std::optional<fault::WeldComponents> welds_;
  std::optional<fault::ShortAlarm> last_alarm_;
  std::uint64_t alarm_seq_ = 0;
  // Null-handle and foreign-handle checks touch only immutable fields
  // (id_, sessions_.size()), so THOSE misuses are detected safely from any
  // thread and the counter is atomic. Stale-handle detection reads the
  // session's slot table and therefore follows the per-session threading
  // rule, like hangup() itself (see svc/README.md).
  std::atomic<std::uint64_t> handle_errors_{0};
};

}  // namespace ftcs::svc
