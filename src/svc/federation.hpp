// ftcs::svc::Federation — N member Exchanges joined by trunk groups, serving
// one sharded terminal space as a single switching system.
//
// The paper's recursive construction legalizes this layer: a network of
// strictly-nonblocking exchanges, joined by dedicated links, is itself a
// switching network. Federation is the service-level expression of that
// recursion — terminals are sharded across member exchanges in contiguous
// ranges (global terminal g lives on shard g / S at local index g % S), and
// a call either stays inside one member or crosses a trunk. The trunks
// form one shape, the full mesh: every ordered pair of members has its own
// trunk group, dealt from the ports above S (3/4 of the ports are
// subscribers once there are two or more members), and group_between()
// computes its id.
//
//   - INTRA-SHARD (the hot path): shard(in) == shard(out). The request is
//     delegated verbatim to the home member — two integer divisions and a
//     compare before the ordinary Exchange path, the same zero-cost gate
//     discipline as the routers' liveness overlay. No federation state is
//     touched and no slot is allocated; the returned handle wraps the
//     member's own generation-tagged CallId.
//
//   - INTER-SHARD: a TWO-PHASE setup of two half-calls plus a trunk claim,
//     in a fixed order with reverse-order release on any failure:
//       0. check both terminals with the members' own idle rule: a busy
//          caller -> kTerminalBusy, stage kIngress; a busy callee ->
//          kTerminalBusy, stage kEgress. Nothing is claimed or routed, and
//          no member sees the request.
//       1. claim a trunk line of the group toward the callee's shard
//          (rotating first-free line scan); no free line (or a zero-line
//          group) -> RejectReason::kTrunkBusy, stage kTrunk.
//       2. route the INGRESS half in the caller's member: local input ->
//          the line's egress port. Failure releases the line (stage
//          kIngress, the member's own typed reject).
//       3. route the EGRESS half in the callee's member: the line's ingress
//          port -> local output. Failure hangs up the ingress half, then
//          releases the line (stage kEgress).
//     Only after all three commit is a federation slot allocated; no
//     partial state survives a failed setup. Teardown is the exact
//     reverse: egress hangup, ingress hangup, trunk release.
//
// Both planes exist, mirroring Exchange: call()/hangup() immediate, and a
// batched submit()/drain() plane whose drain takes the whole queue and
// serves each request through call(), in FIFO order. There is ONE setup
// path: the federation never uses a member's submit()/drain(). Its front
// end is the Exchange's, svc::FrontEnd, with no window, cap or deadlines;
// its rows (setup latency is submit -> epoch settle) land in
// FederationStats::members.
//
// Fault planes compose:
//   - a TRUNK fault is an edge fault of the federation graph: fail_trunk()
//     removes the line from the pool, tears down both half-calls of any
//     riding call (typed kFaulted, the retained federation handle gets the
//     informative kFaulted ack), releases the line, and re-admits the
//     original end-to-end request through call() — the same kill ->
//     re-admit discipline as Exchange::inject. No queued request moves.
//   - a MEMBER fault goes through Federation::inject/repair, which forwards
//     to the member and then reconciles half-call victims: a half the
//     member rerouted in place is ADOPTED (the trunk line, and therefore
//     the half's far terminal, was still reserved, so the reroute lands on
//     the same ports and the inter-call survives); a half the member could
//     not carry tears down its mate and the trunk, and the whole call is
//     re-admitted end-to-end through call().
//
// Threading contract (the Exchange rules, lifted one level): submit() and
// poll() are thread-safe; call()/hangup()/drain()/drain_all() and every
// fault operation run from one thread at a time, which transitively owns
// every member session (Federation touches multiple members per call, so
// immediate-plane serialization is global, not per-session). Completion
// callbacks fire on the draining thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "svc/exchange.hpp"
#include "svc/trunk.hpp"

namespace ftcs::svc {

/// Which setup stage rejected an inter-shard call; kNone on success and on
/// intra-shard rejects (the member's verdict needs no stage).
enum class FedStage : std::uint8_t { kNone = 0, kTrunk, kIngress, kEgress };

[[nodiscard]] constexpr const char* to_string(FedStage s) noexcept {
  switch (s) {
    case FedStage::kNone: return "none";
    case FedStage::kTrunk: return "trunk";
    case FedStage::kIngress: return "ingress";
    case FedStage::kEgress: return "egress";
  }
  return "unknown";
}

/// Federation-level counter block: the merged member ExchangeStats (with
/// the federation's own front-end rows, FrontEnd::books(), on top) plus the
/// trunk books and the two-phase setup/teardown tallies. Mergeable and
/// delta-able like ExchangeStats, so metrics scrapes stay exact. Every
/// counter is a row of fields().
struct FederationStats {
  ExchangeStats members;   // merged across every member exchange
  TrunkGroupStats trunks;  // merged across every trunk group
  // Federation front-end books:
  std::uint64_t intra_calls = 0;      // requests served on the intra fast path
  // Every inter-shard setup ends exactly one way: inter_calls ==
  // inter_connected + trunk_rejects + ingress_aborts + egress_aborts.
  std::uint64_t inter_calls = 0;      // inter-shard setups attempted
  std::uint64_t inter_connected = 0;  // trunk + both halves committed
  std::uint64_t trunk_rejects = 0;    // setups bounced kTrunkBusy
  std::uint64_t ingress_aborts = 0;   // setups refused at the ingress stage
                                      // (busy caller, or the half failed)
  std::uint64_t egress_aborts = 0;    // setups refused at the egress stage
                                      // (busy callee, or the half failed)
  std::uint64_t half_calls_routed = 0;  // member half-calls that connected
  std::uint64_t inter_hangups = 0;      // committed inter calls torn down
  // Composed fault plane:
  std::uint64_t calls_killed_by_trunk_fault = 0;
  std::uint64_t mates_adopted = 0;    // member-rerouted halves re-bound into
                                      // their federation slot
  std::uint64_t mates_torn_down = 0;  // surviving halves torn down because
                                      // their mate died uncarried
  std::uint64_t reroute_succeeded = 0;  // end-to-end re-admissions carried
  std::uint64_t reroute_failed = 0;
  std::uint64_t handle_errors = 0;  // federation-level misuse (null/foreign/
                                    // stale federation handles)

  /// The field table (util/stat_fields.hpp). `members` and `trunks` merge
  /// through their own operators. The fed_ names keep the reroute and
  /// handle-error rows apart from the member exchanges' rows.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<FederationStats>>({
        {&FederationStats::intra_calls, "intra_calls_total"},
        {&FederationStats::inter_calls, "inter_calls_total"},
        {&FederationStats::inter_connected, "inter_connected_total"},
        {&FederationStats::trunk_rejects, "trunk_setup_rejects_total"},
        {&FederationStats::ingress_aborts, "ingress_aborts_total"},
        {&FederationStats::egress_aborts, "egress_aborts_total"},
        {&FederationStats::half_calls_routed, "half_calls_routed_total"},
        {&FederationStats::inter_hangups, "inter_hangups_total"},
        {&FederationStats::calls_killed_by_trunk_fault,
         "calls_killed_by_trunk_fault_total"},
        {&FederationStats::mates_adopted, "mates_adopted_total"},
        {&FederationStats::mates_torn_down, "mates_torn_down_total"},
        {&FederationStats::reroute_succeeded, "fed_reroute_succeeded_total"},
        {&FederationStats::reroute_failed, "fed_reroute_failed_total"},
        {&FederationStats::handle_errors, "fed_handle_errors_total"},
    });
  }
  FederationStats& operator+=(const FederationStats& o) noexcept {
    members += o.members;
    trunks += o.trunks;
    return util::merge_fields(*this, o);
  }
  /// Delta of monotone counters (ExchangeStats::queue_high_water keeps the
  /// high-water-mark semantics of its own operator-=).
  FederationStats& operator-=(const FederationStats& o) noexcept {
    members -= o.members;
    trunks -= o.trunks;
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(FederationStats) ==
                  FederationStats::fields().size() * sizeof(std::uint64_t) +
                      sizeof(ExchangeStats) + sizeof(TrunkGroupStats),
              "every FederationStats counter is a fields() row");

class Federation;

/// Generation-tagged federation call handle. An intra-shard handle wraps
/// the member's CallId directly (no federation slot — the hot path stays
/// allocation- and bookkeeping-free); an inter-shard handle names a
/// federation slot whose generation detects stale/double hangups exactly
/// like Exchange's CallId does.
class FedCallId {
 public:
  constexpr FedCallId() = default;
  [[nodiscard]] constexpr bool valid() const noexcept { return kind_ != 0; }
  /// True for a handle of a call that crossed a trunk.
  [[nodiscard]] constexpr bool inter() const noexcept { return kind_ == 2; }
  /// Home shard of the caller (both shards for intra calls).
  [[nodiscard]] constexpr std::uint32_t shard() const noexcept {
    return shard_;
  }
  friend constexpr bool operator==(FedCallId, FedCallId) noexcept = default;

 private:
  friend class Federation;
  std::uint32_t kind_ = 0;       // 0 null, 1 intra, 2 inter
  std::uint32_t federation_ = 0; // issuing Federation's id; 0 = null
  std::uint32_t shard_ = 0;      // intra: home shard; inter: caller's shard
  std::uint32_t slot_ = 0;       // inter: federation slot index
  std::uint32_t gen_ = 0;        // inter: slot generation at issue
  CallId local_{};               // intra: the member's own handle
};

/// Result of serving one federation CallRequest (global terminal indices).
struct FedOutcome {
  FedCallId id{};
  RejectReason reject = RejectReason::kNone;
  FedStage stage = FedStage::kNone;  // inter setup stage that rejected
  std::uint32_t shard_in = 0, shard_out = 0;
  std::uint32_t trunk_group = kNoTrunkGroup;  // claimed group, when committed
  std::uint32_t path_length = 0;  // vertices; inter: both halves summed
  std::uint64_t tag = 0;          // CallRequest::tag, echoed
  [[nodiscard]] constexpr bool connected() const noexcept {
    return reject == RejectReason::kNone;
  }
  static constexpr std::uint32_t kNoTrunkGroup = static_cast<std::uint32_t>(-1);
};

/// What a trunk fault (or repair) did: the federation-graph analogue of
/// FaultImpact. killed[i] is the typed kFaulted outcome of the inter call
/// that rode the line; reroutes[i] is its end-to-end re-admission.
struct TrunkFaultImpact {
  std::uint32_t group = 0;
  std::uint32_t line = 0;
  bool applied = false;   // the operation changed line state (false on an
                          // idempotent repeat or out-of-range coordinates)
  bool was_busy = false;  // the line carried a call when it failed
  std::vector<FedOutcome> killed;
  std::vector<FedOutcome> reroutes;
  std::uint64_t reroute_succeeded = 0;
  std::uint64_t reroute_failed = 0;
  [[nodiscard]] std::size_t calls_killed() const noexcept {
    return killed.size();
  }
};

/// What a member fault did, federation-wide: the member's own FaultImpact
/// plus the half-call reconciliation (adopted reroutes, mates torn down,
/// end-to-end re-admissions). killed/reroutes list FEDERATION-level deaths:
/// intra victims wrapped, plus inter calls whose half could not be carried.
struct FedFaultImpact {
  FaultImpact member;  // the member exchange's own report
  std::uint64_t halves_hit = 0;      // member victims that were half-calls
  std::uint64_t mates_adopted = 0;   // halves rerouted in place and re-bound
  std::uint64_t mates_torn_down = 0; // inter calls killed outright
  std::vector<FedOutcome> killed;
  std::vector<FedOutcome> reroutes;  // index-aligned with killed
  std::uint64_t reroute_succeeded = 0;
  std::uint64_t reroute_failed = 0;
};

class Federation {
 public:
  /// Builds `shards` member exchanges over the SHARED member network (one
  /// immutable CSR serves every member — each member owns only its busy
  /// state) and deals the trunk ports into one group per ordered pair of
  /// distinct shards (the full mesh). A 1-shard federation makes every
  /// port a subscriber; otherwise 3/4 of the ports are subscribers and the
  /// rest the trunk pool (the classic line/trunk concentration split).
  /// Members are default exchanges, one session on the solo store: the
  /// threading contract serializes every member and call() routes each
  /// half on session 0, so more sessions or the shared store would only
  /// add atomics. `member_net` must outlive the federation.
  Federation(const graph::Network& member_net, unsigned shards);

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // ------------------------------------------------------------ shard map
  [[nodiscard]] unsigned shards() const noexcept {
    return static_cast<unsigned>(members_.size());
  }
  [[nodiscard]] Exchange& member(unsigned i) { return *members_[i]; }
  [[nodiscard]] const Exchange& member(unsigned i) const {
    return *members_[i];
  }
  /// Subscriber terminals per member (S in the shard map).
  [[nodiscard]] std::uint32_t subscribers_per_member() const noexcept {
    return subs_;
  }
  /// Federation-wide subscriber terminal count (shards * S); global ids
  /// [0, input_count()) are valid CallRequest inputs/outputs.
  [[nodiscard]] std::size_t input_count() const noexcept {
    return std::size_t{subs_} * members_.size();
  }
  [[nodiscard]] std::size_t output_count() const noexcept {
    return input_count();
  }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t global) const noexcept {
    return global / subs_;
  }
  [[nodiscard]] std::uint32_t local_of(std::uint32_t global) const noexcept {
    return global % subs_;
  }
  [[nodiscard]] std::uint32_t global_of(std::uint32_t shard,
                                        std::uint32_t local) const noexcept {
    return shard * subs_ + local;
  }

  // ----------------------------------------------------------- immediate
  /// Serves the request now (global terminal indices). Single-threaded,
  /// like drain() — an inter-shard call touches two members and the trunk
  /// books.
  FedOutcome call(const CallRequest& req);
  /// Tears a call down: intra delegates to the member; inter releases in
  /// reverse setup order (egress half, ingress half, trunk line). kFaulted
  /// acks a handle whose call the fault plane already killed.
  RejectReason hangup(FedCallId id);

  // ------------------------------------------------------------- batched
  using FedCompletionFn = FrontEnd<FedOutcome>::CompletionFn;
  /// Enqueues a request; thread-safe. Outcomes become pollable after the
  /// drain() epoch that serves them.
  Ticket submit(const CallRequest& req) { return front_.submit(req, {}); }
  /// Callback flavour: `done` fires on the draining thread.
  Ticket submit(const CallRequest& req, FedCompletionFn done) {
    return front_.submit(req, std::move(done));
  }
  /// Runs one federation admission epoch: takes every queued request and
  /// serves each through call() in FIFO order (the same trunk claim,
  /// half-calls and abort path), firing its callback before the next one
  /// routes; pollable outcomes land at the epoch's end, which is also where
  /// setup latency stops. Returns requests admitted.
  std::size_t drain();
  /// Drains until the federation queue is empty.
  std::size_t drain_all();
  [[nodiscard]] std::optional<FedOutcome> poll(Ticket ticket) {
    return front_.poll(ticket);
  }
  [[nodiscard]] std::size_t pending() const { return front_.pending(); }

  // --------------------------------------------------------- fault plane
  /// Edge fault of the federation graph: fails line `line` of `group`,
  /// tears down the riding call (typed kFaulted, both halves) and re-admits
  /// it end-to-end through call(). The batched queue is untouched.
  TrunkFaultImpact fail_trunk(std::uint32_t group, std::uint32_t line);
  /// Restores a failed line to the claimable pool.
  TrunkFaultImpact repair_trunk(std::uint32_t group, std::uint32_t line);
  /// Member fault, federation-reconciled (see file comment).
  FedFaultImpact inject(unsigned shard, const fault::FaultEvent& ev);
  FedFaultImpact repair(unsigned shard, const fault::FaultEvent& ev);

  // ------------------------------------------------------- introspection
  [[nodiscard]] std::size_t trunk_group_count() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] const TrunkGroup& trunk_group(std::uint32_t g) const {
    return groups_[g];
  }
  /// The group serving the ordered pair (from, to), for distinct shards
  /// below shards(): member `from`'s groups are numbered in rotated peer
  /// order from + 1, from + 2, ... (mod shards()).
  [[nodiscard]] std::uint32_t group_between(std::uint32_t from,
                                            std::uint32_t to) const noexcept {
    const auto s = static_cast<std::uint32_t>(members_.size());
    return from * (s - 1) + (to + s - from) % s - 1;
  }
  /// Operator-facing per-group book (ops control plane / metrics).
  [[nodiscard]] std::vector<TrunkGauge> trunk_gauges() const;
  /// Live calls across every member (half-calls count once per member).
  [[nodiscard]] std::size_t active_calls() const;
  /// Committed inter-shard calls currently up (== trunk lines claimed).
  [[nodiscard]] std::size_t active_inter_calls() const noexcept {
    return live_inter_;
  }
  /// Sum of the members' busy-vertex books (zero at federation quiescence).
  [[nodiscard]] std::size_t busy_vertices() const;
  /// Failed switches summed over the members (Exchange::failed_switch_count).
  [[nodiscard]] std::size_t failed_switch_count() const;
  /// The stuck-on subset of failed_switch_count(), summed over the members.
  [[nodiscard]] std::size_t stuck_switch_count() const;
  /// True while any member's terminals are shorted (Exchange::shorted).
  [[nodiscard]] bool shorted() const;
  [[nodiscard]] bool input_idle(std::uint32_t global) const {
    return members_[shard_of(global)]->input_idle(local_of(global));
  }
  [[nodiscard]] bool output_idle(std::uint32_t global) const {
    return members_[shard_of(global)]->output_idle(local_of(global));
  }
  /// Merged member + trunk + front-end counters. Exact at quiescence.
  [[nodiscard]] FederationStats stats() const;
  void reset_stats();

 private:
  struct InterSlot {
    std::uint32_t gen = 1;
    bool live = false;
    bool retired_by_fault = false;  // one-generation memory, as in Exchange
    std::uint32_t sa = 0, sb = 0;
    std::uint32_t group = 0, line = 0;
    CallId ingress{}, egress{};
    CallRequest req;  // original GLOBAL request, for fault re-admission
  };

  /// The committed-call bookkeeping shared by both planes.
  FedCallId commit_inter(const CallRequest& req, std::uint32_t sa,
                         std::uint32_t sb, std::uint32_t group,
                         std::uint32_t line, CallId ingress, CallId egress);
  /// Tears down a live inter slot (reverse order) and retires it. The
  /// trunk line's busy bit is released; `by_fault` sets the one-generation
  /// kFaulted memory.
  void teardown_inter(std::uint32_t slot, bool by_fault);
  RejectReason check_inter_handle(FedCallId id) const;
  /// Wraps a member outcome as an intra-shard federation outcome.
  FedOutcome wrap_intra(std::uint32_t shard, const Outcome& o) const;
  /// The one fault kill path: tears live inter slot `slot` down, books its
  /// kFaulted outcome and its end-to-end re-admission through call() into
  /// `impact` (a TrunkFaultImpact or FedFaultImpact).
  template <class Impact>
  void kill_inter(std::uint32_t slot, Impact& impact);
  /// Shared half-call reconciliation behind inject()/repair().
  void reconcile_member_impact(unsigned shard, FedFaultImpact& out);
  /// half_owner_ entry for member `shard`'s handle `half` (grown on demand).
  std::uint32_t& half_owner(std::uint32_t shard, CallId half);

  const graph::Network* net_;
  std::uint32_t subs_ = 0;
  std::uint32_t id_;  // process-unique, tagged into every FedCallId
  std::vector<std::unique_ptr<Exchange>> members_;
  std::vector<TrunkGroup> groups_;
  /// line_owner_[g][l] = inter slot riding the line, or kNoOwner.
  std::vector<std::vector<std::uint32_t>> line_owner_;
  static constexpr std::uint32_t kNoOwner = static_cast<std::uint32_t>(-1);

  std::vector<InterSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// half_owner_[m][slot] = the inter slot one of whose halves is member
  /// m's call at that handle slot, or kNoOwner: the member fault plane's
  /// victims map to their inter calls without a search.
  std::vector<std::vector<std::uint32_t>> half_owner_;
  std::size_t live_inter_ = 0;

  FrontEnd<FedOutcome> front_{0, 0, {}};  // whole-queue epochs, no cap
  // drain()'s epoch buffers, kept so that steady epochs allocate nothing.
  std::vector<FrontEnd<FedOutcome>::Pending> batch_;
  std::vector<FedOutcome> outs_;

  // Rows under the drain contract; stats() fills `members` from front_
  // and the members.
  FederationStats stats_;
};

}  // namespace ftcs::svc
