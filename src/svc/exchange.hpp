// ftcs::svc::Exchange — session-oriented call service over the router's
// two backends.
//
// The paper's networks are telephone exchanges (Clos [Cl]): an exchange
// serves calls, it does not expose raw connect(in, out) pokes at a router.
// Exchange is that service facade. It owns the fault mask (and optionally
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
//     admission epoch — the AdmissionPolicy picks a window, the highest-
//     priority window of queued requests is routed across ALL engine
//     sessions in parallel on util::ThreadPool::global(), and completions
//     are delivered through the callback (on the pool threads) or a
//     pollable Ticket. Requests beyond the window stay queued (Deferred,
//     counted per epoch and surfaced in Outcome::deferrals); submissions
//     beyond the policy's queue cap bounce immediately (Refused).
//     Each session routes its chunk of the window one request at a time,
//     in window order, through the same Engine::connect as call() — see
//     src/svc/README.md ("Batched drain").
//
// Threading rules (full contract in svc/README.md):
//   - submit() and poll() are thread-safe from any thread.
//   - call()/hangup() on session s must be externally serialized per
//     session; distinct sessions may run concurrently. A handle must be
//     hung up by the thread currently driving its session (CallId::session).
//   - drain() runs from one thread at a time and must not overlap immediate
//     calls (it temporarily owns every session).
//   - stats() aggregates are exact at quiescence, like the engines'.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/schedule.hpp"
#include "fault/weld_components.hpp"
#include "ops/latency.hpp"
#include "svc/admission.hpp"
#include "svc/call.hpp"
#include "svc/engine.hpp"
#include "util/bitset.hpp"
#include "util/cpu_topology.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::svc {

/// Mergeable service-level counter block: the engines' RouterStats plus the
/// admission front-end's queue/defer/epoch counters. operator+= aggregates
/// across exchanges (bench summaries); operator-= takes before/after deltas
/// (traffic reports). Every counter is a row of fields().
struct ExchangeStats {
  core::RouterStats router;           // merged engine counters
  std::uint64_t submitted = 0;        // batch-plane requests enqueued
  std::uint64_t admitted = 0;         // requests admitted into some epoch
  std::uint64_t completed = 0;        // batch outcomes delivered
  std::uint64_t deferred = 0;         // request-epochs spent past the window
  std::uint64_t refused = 0;          // submissions bounced at the queue cap
  std::uint64_t epochs = 0;           // drain() epochs run
  std::uint64_t queue_high_water = 0; // max queue depth observed
  std::uint64_t hangups = 0;          // successful hangups (both planes)
  std::uint64_t handle_errors = 0;    // misuse detected: stale/foreign/double
                                      // hangups and bad-session calls
  // Fault-plane counters (inject()/repair()):
  std::uint64_t faults_injected = 0;       // open switch failures applied
  std::uint64_t faults_stuck = 0;          // stuck-on (closed) failures applied
  std::uint64_t faults_repaired = 0;       // switch repairs applied (either)
  std::uint64_t calls_killed_by_fault = 0; // live calls torn down by inject()
  std::uint64_t reroute_succeeded = 0;     // victims re-admitted and carried
  std::uint64_t reroute_failed = 0;        // victims whose re-admission failed
  // Lemma 7 transitions observed by the live weld tracker:
  std::uint64_t shorts_raised = 0;   // healthy -> terminals shorted
  std::uint64_t shorts_cleared = 0;  // shorted -> healthy again
  // Hitless-growth counters (grow()):
  std::uint64_t growths = 0;                   // growth plans applied
  std::uint64_t calls_remapped_by_growth = 0;  // live calls carried across
  std::uint64_t calls_killed_by_growth = 0;    // always 0 by design: growth
                                               // is hitless (exported so the
                                               // invariant is observable)
  // Per-class QoS books: setup-latency histogram + served/rejected/SLA
  // tallies per service class. Batched-plane calls are always booked;
  // immediate-plane calls opt in via ExchangeConfig::qos_immediate.
  ops::ClassBook classes{};

  /// The field table (util/stat_fields.hpp). `router` and `classes` are
  /// blocks of their own and merge through their own operators.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<ExchangeStats>>({
        {&ExchangeStats::submitted, "calls_submitted_total"},
        {&ExchangeStats::admitted, "calls_admitted_total"},
        {&ExchangeStats::completed, "calls_completed_total"},
        {&ExchangeStats::deferred, "calls_deferred_total"},
        {&ExchangeStats::refused, "calls_refused_total",
         to_string(RejectReason::kRefused)},
        {&ExchangeStats::epochs, "epochs_total"},
        {&ExchangeStats::queue_high_water, "queue_high_water", nullptr,
         util::StatKind::kMax},
        {&ExchangeStats::hangups, "hangups_total"},
        {&ExchangeStats::handle_errors, "handle_errors_total"},
        {&ExchangeStats::faults_injected, "faults_injected_total"},
        {&ExchangeStats::faults_stuck, "faults_stuck_total"},
        {&ExchangeStats::faults_repaired, "faults_repaired_total"},
        {&ExchangeStats::calls_killed_by_fault, "calls_killed_by_fault_total"},
        {&ExchangeStats::reroute_succeeded, "reroute_succeeded_total"},
        {&ExchangeStats::reroute_failed, "reroute_failed_total"},
        {&ExchangeStats::shorts_raised, "shorts_raised_total"},
        {&ExchangeStats::shorts_cleared, "shorts_cleared_total"},
        {&ExchangeStats::growths, "growths_total"},
        {&ExchangeStats::calls_remapped_by_growth,
         "growth_calls_remapped_total"},
        {&ExchangeStats::calls_killed_by_growth, "growth_calls_killed_total"},
    });
  }
  ExchangeStats& operator+=(const ExchangeStats& o) noexcept {
    router += o.router;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) classes[c] += o.classes[c];
    return util::merge_fields(*this, o);
  }
  /// Delta of monotone counters (queue_high_water is kept, not subtracted).
  ExchangeStats& operator-=(const ExchangeStats& o) noexcept {
    router -= o.router;
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) classes[c] -= o.classes[c];
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(ExchangeStats) ==
                  ExchangeStats::fields().size() * sizeof(std::uint64_t) +
                      sizeof(core::RouterStats) + sizeof(ops::ClassBook),
              "every ExchangeStats counter is a fields() row");

/// What one fault-plane operation did: which calls died (typed kFaulted
/// outcomes echoing the original request's tag, with the now-dead handle)
/// and how their immediate re-admission through the batched plane went
/// (reroutes[i] is the new outcome for killed[i]).
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

/// A hitless capacity-growth request: the grown network plus the old->new
/// vertex id map, as produced by graph::NetworkDelta::finalize_grown (or
/// networks::grow_cantor). Exchange::grow consumes the plan (moves the
/// network in and owns it from then on).
struct GrowthPlan {
  graph::GrownNetwork grown;
};

/// What one grow() did. `applied == false` means the plan failed validation
/// (error says why) and NO state was touched — the exchange keeps serving on
/// the old topology. calls_killed is exported so the hitless invariant is
/// observable; grow() never tears a call down, so it is always zero.
struct GrowthReport {
  bool applied = false;
  std::string error;  // set iff !applied
  std::size_t vertices_added = 0;
  std::size_t switches_added = 0;  // edges (the paper's switches)
  std::size_t inputs_added = 0;
  std::size_t outputs_added = 0;
  std::uint64_t calls_remapped = 0;  // live calls carried across the merge
  std::uint64_t calls_killed = 0;    // always 0: growth is hitless
  double quiesce_seconds = 0.0;      // wall time the sessions were held
};

/// One typed topology mutation: a fault-plane event (inject/repair/stuck,
/// discriminated by fault.kind as in Exchange::apply(FaultEvent)) or a
/// capacity growth. This is the single seam the ops command queue,
/// FaultSchedule replay and simulate_traffic feed mutations through.
/// Growth plans are carried by pointer because applying one consumes it
/// (the network moves into the Exchange); the plan must outlive the
/// apply(TopologyEvent) call.
struct TopologyEvent {
  enum class Kind : std::uint8_t { kFault, kGrow };
  Kind kind = Kind::kFault;
  fault::FaultEvent fault{};   // meaningful iff kind == kFault
  GrowthPlan* grow = nullptr;  // meaningful iff kind == kGrow; consumed
  [[nodiscard]] static TopologyEvent make_fault(
      const fault::FaultEvent& ev) noexcept {
    TopologyEvent e;
    e.kind = Kind::kFault;
    e.fault = ev;
    return e;
  }
  [[nodiscard]] static TopologyEvent make_grow(GrowthPlan& plan) noexcept {
    TopologyEvent e;
    e.kind = Kind::kGrow;
    e.grow = &plan;
    return e;
  }
};

/// The outcome of one TopologyEvent: exactly one member is meaningful,
/// matching the event's kind.
struct TopologyOutcome {
  FaultImpact fault;                   // kind == kFault
  std::optional<GrowthReport> growth;  // kind == kGrow
};

struct ExchangeConfig {
  Backend backend = Backend::kGreedy;
  /// Engine sessions (concurrent backend parallelism; clamped to 1 for the
  /// greedy backend).
  unsigned sessions = 1;
  /// Static fault masks, owned by the Exchange (as in the routers).
  std::vector<std::uint8_t> blocked;
  std::vector<std::uint8_t> blocked_edges;
  /// Batched-plane policy; null = UnboundedAdmission.
  std::unique_ptr<AdmissionPolicy> admission;
  /// Worker-pinning policy applied to util::ThreadPool::global() at
  /// construction (the pool that drain() routes on). kNone leaves the pool
  /// untouched; kSpread/kCompact pin its workers (see util/cpu_topology.hpp)
  /// and auto-degrade back to kNone when the host cannot honor the plan
  /// (fewer physical cores than pool workers — the CI case). NOTE: the
  /// global pool is process-wide state; the last Exchange to set a non-None
  /// policy wins.
  util::AffinityPolicy affinity = util::AffinityPolicy::kNone;
  /// Batched plane: partition each drain() window by the request's INPUT
  /// terminal (session s owns inputs [n*s/S, n*(s+1)/S)) instead of by
  /// arrival index. A session's terminal-slot CAS traffic then stays inside
  /// its own word range of the claim bitsets — with a pinned pool, inside
  /// its own cache domain. Off preserves the arrival-order partition.
  bool home_sessions = false;
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
  /// Owning variant: the Exchange takes the network with it.
  explicit Exchange(graph::Network&& net, ExchangeConfig cfg = {});

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
  [[nodiscard]] std::vector<graph::VertexId> path_of(CallId id);

  // ------------------------------------------------------------- batched
  /// Completion hook for the batched plane; runs on a pool thread during
  /// drain() (or on the draining thread when sessions() == 1).
  using CompletionFn = std::function<void(const Outcome&)>;
  /// Enqueues a request; the Outcome becomes available via poll(ticket)
  /// after the epoch that serves it. Thread-safe. If the admission queue is
  /// at its cap the request is Refused: its Outcome (reject == kRefused) is
  /// immediately pollable.
  Ticket submit(const CallRequest& req);
  /// Callback flavour: `done` is invoked with the Outcome instead of
  /// storing it for poll().
  Ticket submit(const CallRequest& req, CompletionFn done);
  /// Runs one admission epoch: admits up to the policy window (highest
  /// priority first, FIFO among equals), routes the batch across all
  /// sessions on util::ThreadPool::global(), delivers completions. Returns
  /// the number of requests admitted.
  std::size_t drain();
  /// Drains until the queue is empty. Stops early (returning the total
  /// admitted) if the policy ever yields a zero window on a non-empty
  /// queue, so a misconfigured policy cannot spin forever.
  std::size_t drain_all();
  /// Takes the completed Outcome for `ticket` (once); nullopt if the
  /// request is still queued, was delivered via callback, or was already
  /// polled. Thread-safe.
  [[nodiscard]] std::optional<Outcome> poll(Ticket ticket);
  /// Requests waiting in the admission queue. Thread-safe.
  [[nodiscard]] std::size_t pending() const;

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
  //     (typed kFaulted outcomes), then immediately re-admits the victims'
  //     original requests through the batched plane (anything already
  //     queued rides along in those epochs).
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
  /// Switches currently down (open-failed or stuck-on; static masks
  /// excluded).
  [[nodiscard]] std::size_t failed_switch_count() const noexcept {
    return failed_switch_count_;
  }
  /// The stuck-on subset of failed_switch_count().
  [[nodiscard]] std::size_t stuck_switch_count() const noexcept {
    return stuck_switch_count_;
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
  /// Hitless capacity growth: swaps the exchange onto plan.grown.net,
  /// carrying every live call (immediate- and batched-plane handles stay
  /// valid; paths are remapped through plan.grown.vmap), the fault overlay
  /// (failed/stuck switches keep their stable edge ids; vertex fault state
  /// and the weld tracker follow the vmap) and all counters. Queued batch
  /// requests simply route on the grown topology at the next drain().
  ///
  /// Threading contract is drain()'s: one thread at a time, never
  /// overlapping immediate calls — the grow temporarily owns every session
  /// (that window is the quiesce; its wall time is reported).
  ///
  /// The plan is validated first (vmap a bijection of old ids into the new
  /// space, edge ids stable, terminal lists prefix-stable). A plan that
  /// fails validation is rejected with applied == false and an error
  /// message; the exchange is untouched. grow() never kills a call:
  /// GrowthReport::calls_killed is always 0.
  GrowthReport grow(GrowthPlan plan);

  /// Unified topology-mutation dispatch: routes kFault events through
  /// inject()/repair() (per fault.kind) and kGrow events through grow(),
  /// consuming the plan. Same threading contract as both.
  TopologyOutcome apply(const TopologyEvent& ev);

  // ------------------------------------------------------- introspection
  [[nodiscard]] unsigned sessions() const noexcept {
    return engine_->sessions();
  }
  /// Pinning policy in effect on the global pool after construction (post
  /// auto-degrade); kNone when the config did not request pinning.
  [[nodiscard]] util::AffinityPolicy affinity() const noexcept {
    return affinity_;
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
  /// session contract, so handle issue/retire is lock-free.
  struct Slot {
    Engine::RawCall raw = Engine::kNoRawCall;
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
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free;
    std::uint64_t hangups = 0;
    // Immediate-plane QoS book (filled only with cfg.qos_immediate);
    // single-threaded by the session contract, merged by stats().
    ops::ClassBook classes{};
  };
  struct Pending {
    CallRequest req;
    Ticket ticket = 0;
    CompletionFn done;  // may be empty -> pollable
    std::uint32_t deferrals = 0;
    // Submit timestamp: batched setup latency is submit -> epoch
    // completion, so the SLA sees queue wait plus routing.
    std::chrono::steady_clock::time_point submitted_at{};
  };

  Exchange(const graph::Network* net, std::unique_ptr<graph::Network> owned,
           ExchangeConfig cfg);

  CallId issue_handle(unsigned session, Engine::RawCall raw,
                      const CallRequest& req);
  /// Validates a handle: kNone if it is live here, else the typed error.
  RejectReason check_handle(CallId id) const;
  Outcome route_one(const CallRequest& req, unsigned session,
                    std::uint32_t deferrals);
  Ticket submit_impl(const CallRequest& req, CompletionFn done);
  /// Sizes the fault-plane bookkeeping on the first event (off hot paths).
  void ensure_fault_state();
  /// True iff every component of `path` is still alive (vertices against
  /// the engine overlay + `newly_dead`, hops against usable switches — a
  /// hop is also carried by a stuck-on switch welded in EITHER direction).
  [[nodiscard]] bool path_alive(const std::vector<graph::VertexId>& path,
                                const std::vector<graph::VertexId>& newly_dead)
      const;
  /// Tears down every live call whose path is no longer alive (typed
  /// kFaulted outcomes into `impact.killed`); busy state is released so the
  /// caller may fault-claim `newly_dead` afterwards.
  void reap_victims(FaultImpact& impact,
                    const std::vector<graph::VertexId>& newly_dead);
  /// Re-admits impact.killed through the batched plane; fills
  /// impact.reroutes (index-aligned) and the reroute counters.
  void reroute_victims(FaultImpact& impact);
  /// Pops the admitted window (priority-ordered) off the queue. Caller
  /// holds front_mu_.
  std::vector<Pending> take_window(std::size_t window);
  /// Books one outcome into `book` under the request's service class.
  void record_class(ops::ClassBook& book, std::uint8_t priority,
                    const Outcome& o, double setup_seconds) const;

  std::unique_ptr<graph::Network> owned_net_;  // set only for the owning ctor
  const graph::Network* net_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<AdmissionPolicy> admission_;
  bool home_sessions_ = false;
  bool qos_immediate_ = false;
  std::array<double, ops::kQosClasses> class_deadlines_{};
  util::AffinityPolicy affinity_ = util::AffinityPolicy::kNone;
  std::uint32_t id_;  // process-unique, tagged into every CallId
  std::vector<Session> sessions_;

  // Batched front-end state, guarded by front_mu_ (never held while
  // routing).
  mutable std::mutex front_mu_;
  std::deque<Pending> queue_;
  std::unordered_map<Ticket, Outcome> completed_;
  Ticket next_ticket_ = 1;
  // The exchange's own counters. The front-end rows and the batched-plane
  // class book (stats_.classes) are guarded by front_mu_; the fault-plane
  // and growth rows follow the drain contract. stats_.router, hangups and
  // handle_errors stay 0 here: stats() fills them in from the engine, the
  // sessions and handle_errors_.
  ExchangeStats stats_;
  // Previous epoch's engine feedback for the admission policy.
  std::size_t last_admitted_ = 0;
  std::uint64_t last_conflicts_ = 0, last_contention_ = 0, last_overlay_ = 0;
  double last_epoch_seconds_ = 0.0;
  // Fault-plane bookkeeping (same single-owner contract as the sessions;
  // sized lazily by the first event). A vertex is §6-faulty while any
  // incident switch is OPEN-failed — vertex_fault_degree_ counts those
  // (stuck-on switches conduct, so they never contribute).
  util::Bitset failed_switches_;  // open failures
  util::Bitset stuck_switches_;   // closed (stuck-on) failures
  std::vector<std::uint32_t> vertex_fault_degree_;
  std::vector<std::uint8_t> is_terminal_;
  std::size_t failed_switch_count_ = 0;  // down switches, either mode
  std::size_t stuck_switch_count_ = 0;
  // Live Lemma 7 tracking (same single-owner contract; sized with the rest
  // of the fault bookkeeping). last_alarm_ is state, not a counter: it
  // survives reset_stats().
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
