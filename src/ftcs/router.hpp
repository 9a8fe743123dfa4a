// Greedy circuit-switching router (§4, third observation: "because the
// contained network is strictly nonblocking, routing can be performed by a
// greedy application of a standard path-finding algorithm").
//
// ONE router body, core::Router<Store>, serves a network's calls from one
// or from N sessions. The router owns the network's busy state (plus a
// static blocked mask for faulty vertices) and every session's call table.
// A connect settles the first idle path a depth-first search finds; on a
// strictly nonblocking (surviving) network this never fails for a request
// between idle terminals. The path is shortest wherever every input->output
// path has the same length (Cantor, crossbar, the §6 FT network), not in
// general.
//
// The two stores supply the only things that differ:
//   - SoloStore (GreedyRouter): one session. Busy and overlay state are
//     plain util::Bitsets, terminal slots are bytes, and the CLAIM is the
//     settle itself: walk the search's parent chain from dst, set each busy
//     bit and successor. No path buffer, no sort, no CAS, no re-validation.
//     Session scratch is built at construction.
//   - SharedStore (ConcurrentRouter): N sessions route concurrently over
//     the same network. Busy and overlay state are util::AtomicBitsets,
//     terminal slots are cache-line padded (they are the claim locks every
//     session CASes on admission), and the CLAIM is canonical CAS with
//     overlay re-validation (below). Session scratch is built lazily by the
//     session's FIRST connect, on the thread that owns the session, so with
//     a pinned thread pool its pages first-touch onto that thread's node.
//
// Protocol per connect(in, out), one body for both stores:
//   1. TERMINAL ACQUIRE — a blocked terminal is rejected; then the input
//      slot, then the output slot, is taken (try_set). Failure →
//      rejected_terminal (slots released in reverse order on any reject).
//      A terminal vertex occupied as an intermediate hop of another call
//      cannot anchor a new path (a vertex carries at most one call, so the
//      successor array would corrupt both chains) → rejected_no_path.
//   2. SEARCH — the reach-guided depth-first search (ftcs/search.hpp) on
//      the session's private scratch, guided by the router's one ReachIndex
//      (read-only, rebuilt by grow()). On the shared store it reads the
//      busy and overlay bits with RELAXED loads: a dirty snapshot,
//      deliberately unvalidated. No idle path → rejected_no_path.
//   3. CLAIM (the store's step). Shared store: the path's vertices are
//      claimed with word-level CAS (AtomicBitset::try_set, acq_rel) in
//      CANONICAL order (ascending vertex id), so two overlapping claims
//      collide at their smallest shared vertex and the loser has claimed
//      as little as possible. With every vertex owned, and while any
//      runtime fault or weld is outstanding, every hop is RE-VALIDATED
//      against the overlay with acquire loads: carried by a usable forward
//      switch, or by a welded one in either direction.
//   4. CONFLICT (shared store only) — a lost CAS (claim_conflicts) or a
//      failed re-validation (overlay_conflicts) releases the claim prefix,
//      newest first, and re-runs step 2 against the fresher state
//      (search_retries). After kMaxClaimRetries attempts the call is
//      rejected (rejected_contention): bounded work per call, no livelock.
//   5. SETTLE — the path is threaded through the per-vertex successor
//      array and recorded in the session's call table.
//
// Memory-ordering contract (shared store; see util/atomic_bitset.hpp):
//   - busy_.try_set is acq_rel: a successful claim of v synchronizes-with
//     the busy_.reset(v) (release) of v's previous owner, so the owner's
//     writes to path_next_[v] are visible before anyone re-claims v. All
//     bitset-word writes are RMWs, so intervening claims of OTHER bits in
//     the same word do not break the release sequence.
//   - path_next_[v] is plain (non-atomic) data OWNED by whoever holds busy
//     bit v: written only between a successful try_set(v) and the matching
//     reset(v). disconnect() reads the successor BEFORE releasing the bit.
//   - search reads are relaxed; every positive routing decision is
//     re-validated by the claim CAS (and the overlay re-check), so stale
//     reads cost retries, not correctness.
//
// Liveness overlay (runtime fault plane). Semantics follow §6: the fault
// unit is the switch (edge); a vertex dies when the fault plane decides its
// incident switches make it unusable. A dead vertex holds its own busy bit,
// so searches and claims avoid it with no extra state. A failed switch is a
// dead_edges_ bit, a stuck-on (closed, §2) switch a contracted_edges_ bit:
// a weld conducts in BOTH directions (the runtime analogue of contraction;
// the CSR graph is never mutated), and occupancy still applies to the
// hop's endpoints (the merged electrical node carries at most one call).
// Both masks are GATED by counts of OUTSTANDING faults and welds, read once
// per connect: with none, the search skips the overlay reads, runs the
// weld-free body and the claim skips re-validation, so a fault that is
// failed and repaired again costs nothing afterwards. A count is raised
// BEFORE its bit is set and lowered AFTER its bit is cleared, so a connect
// that starts after a flip completes reads a nonzero gate.
//   - fail/repair/contract/uncontract_edge may race in-flight connects on
//     the shared store. The guarantee is the usual happens-before one: a
//     connect that starts after fail_edge(e) completes (ordering set up by
//     the caller — a flag, a mutex, the Exchange's session ownership) can
//     never settle a path through e. A connect already past validation when
//     the flip lands keeps its path; a weld's repair likewise severs calls
//     that crossed it against its direction. Reconciling those stragglers
//     is the fault plane's job (svc::Exchange::inject/repair sweep victims
//     while holding every session).
//   - The overlay mutators are serialized with one another, and
//     kill_vertex/revive_vertex/grow are QUIESCENT ONLY: no connect or
//     disconnect in flight on any session, victims torn down first — the
//     same contract as Exchange::drain().
//   - A statically blocked switch or vertex is never released by a repair
//     or revive, and the blocked mask beats a weld.
//
// Sessions: a Session is single-threaded — one thread at a time may use
// session(s), and a call is disconnected through the session that connected
// it. Distinct sessions of the shared store may run concurrently. The
// aggregates stats(), active_calls() and busy_vertices() are exact only at
// quiescence; they are for reporting, not for the hot path.
//
// Hot-path design: connect() performs NO heap allocation once its
// session's scratch exists (construction for the solo store, the first
// connect for the shared store).
//   - visited state is epoch-stamped (one bulk clear per 2^32 calls) with a
//     parent array for path recovery, and the search stack is preallocated
//     at vertex_count frames;
//   - busy / overlay vertex and edge state live in packed bitsets, 64
//     vertices per cache word;
//   - settled paths are threaded through a per-vertex successor array
//     (path_next_): a vertex carries at most one call, so one VertexId per
//     vertex stores every active path with zero per-call storage.
//
// One search, one claim per store: a 1-session shared router is
// path-for-path identical to the solo router (with no contention its claim
// always succeeds first try). The Exchange's batched plane routes its
// windows through the same connect(), one request at a time in window
// order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ftcs/reach_index.hpp"
#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/atomic_bitset.hpp"
#include "util/bitset.hpp"
#include "util/cpu_topology.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::core {

/// Counter block filled by the router sessions; reset with reset_stats().
/// Mergeable: operator+= aggregates per-session blocks and per-network
/// blocks (bench_routing) into one summary; operator-= takes before/after
/// deltas. Every counter is a row of fields() (util/stat_fields.hpp).
struct RouterStats {
  std::uint64_t connect_calls = 0;     // connect() invocations
  std::uint64_t accepted = 0;          // calls that settled a path
  std::uint64_t rejected_terminal = 0; // busy/blocked endpoint, no search run
  std::uint64_t rejected_no_path = 0;  // search exhausted without reaching dst
  std::uint64_t disconnects = 0;
  std::uint64_t vertices_visited = 0;  // vertices stamped across all searches
  std::uint64_t path_vertices = 0;     // total length of settled paths
  // Shared-store counters (always 0 on the solo store):
  std::uint64_t claim_conflicts = 0;      // CAS lost a vertex to another session
  std::uint64_t search_retries = 0;       // searches re-run after a conflict
  std::uint64_t rejected_contention = 0;  // gave up after the retry budget
  std::uint64_t overlay_conflicts = 0;    // settled path crossed a switch that
                                          // failed during the search (released
                                          // and re-searched, like a claim loss)
  // RETIRED, always 0 and outside the table (never merged or exported): the
  // multi-source wave search and the bottom-up BFS sweep they counted are
  // gone. Kept because the exchange benchmark still reads them.
  std::uint64_t wave_epochs = 0;
  std::uint64_t bottom_up_levels = 0;

  /// The field table. The rejected_* rows export only as reject reasons.
  static constexpr auto fields() noexcept {
    return std::to_array<util::StatField<RouterStats>>({
        {&RouterStats::connect_calls, "router_connect_calls_total"},
        {&RouterStats::accepted, "router_accepted_total"},
        {&RouterStats::rejected_terminal, nullptr, "rejected_terminal"},
        {&RouterStats::rejected_no_path, nullptr, "rejected_no_path"},
        {&RouterStats::disconnects, "router_disconnects_total"},
        {&RouterStats::vertices_visited, "router_vertices_visited_total"},
        {&RouterStats::path_vertices, "router_path_vertices_total"},
        {&RouterStats::claim_conflicts, "router_claim_conflicts_total"},
        {&RouterStats::search_retries, "router_search_retries_total"},
        {&RouterStats::rejected_contention, nullptr, "rejected_contention"},
        {&RouterStats::overlay_conflicts, "router_overlay_conflicts_total"},
    });
  }
  RouterStats& operator+=(const RouterStats& o) noexcept {
    return util::merge_fields(*this, o);
  }
  RouterStats& operator-=(const RouterStats& o) noexcept {
    return util::subtract_fields(*this, o);
  }
};
static_assert(sizeof(RouterStats) ==
                  (RouterStats::fields().size() + 2) * sizeof(std::uint64_t),
              "every RouterStats counter is a fields() row (2 retired)");

/// One session over plain state (see the header comment).
struct SoloStore {
  static constexpr bool kShared = false;
  using Bits = util::Bitset;
  using Count = std::size_t;
  /// Terminal slots as bytes: admission is one plain load and store.
  struct Slots {
    std::vector<std::uint8_t> held;
    explicit Slots(std::size_t n = 0) : held(n, 0) {}
    [[nodiscard]] std::size_t size() const noexcept { return held.size(); }
    [[nodiscard]] bool test(std::size_t i) const noexcept { return held[i]; }
    [[nodiscard]] bool try_set(std::size_t i) noexcept {
      return !std::exchange(held[i], std::uint8_t{1});
    }
    void set(std::size_t i) noexcept { held[i] = 1; }
    void reset(std::size_t i) noexcept { held[i] = 0; }
  };
};

/// N concurrent sessions over atomic state (see the header comment).
struct SharedStore {
  static constexpr bool kShared = true;
  using Bits = util::AtomicBitset;
  using Count = std::atomic<std::size_t>;
  /// Terminal slots, one word per cache line: with dense words, 64
  /// unrelated admission CASes would false-share one line.
  struct Slots : util::AtomicBitset {
    explicit Slots(std::size_t n = 0) : AtomicBitset(n, Padding::kCacheLine) {}
  };
};

template <class Store>
class Router {
 public:
  /// Per-session call handle; valid until disconnect.
  using CallId = std::uint32_t;
  static constexpr CallId kNoCall = static_cast<CallId>(-1);
  /// Failed claim attempts per call before rejecting with
  /// rejected_contention. Conflicts need two calls' paths to overlap in the
  /// same instant, so even 2 retries are rarely consumed; 16 bounds the
  /// pathological case without ever rejecting a realistic workload.
  static constexpr unsigned kMaxClaimRetries = 16;

  /// One-session router. `blocked` marks statically unusable vertices
  /// (e.g. faulty); may be empty. `blocked_edges` likewise for switches.
  /// The network must outlive the router. All scratch is allocated here.
  explicit Router(const graph::Network& net,
                  const std::vector<std::uint8_t>& blocked = {},
                  const std::vector<std::uint8_t>& blocked_edges = {})
    requires(!Store::kShared)
      : net_(&net), reach_(net) {
    init(1, blocked, blocked_edges);
  }
  /// `sessions` fixes the session count (0 means 1); masks as above. Only
  /// the shared state is allocated here: each session builds its scratch on
  /// its first connect.
  Router(const graph::Network& net, unsigned sessions,
         const std::vector<std::uint8_t>& blocked = {},
         const std::vector<std::uint8_t>& blocked_edges = {})
    requires(Store::kShared)
      : net_(&net), reach_(net) {
    init(sessions, blocked, blocked_edges);
  }

  // Pinned: every Session holds a back-pointer to its router.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// One routing session; use from ONE thread at a time. Cache-line
  /// aligned so one session's hot state (stats counters, call table heads)
  /// never false-shares with its neighbours.
  class alignas(util::kCacheLineBytes) Session {
   public:
    /// Steps 1-5 of the header comment. Returns kNoCall on a busy or
    /// blocked terminal, no idle path, or claim-retry exhaustion (the stats
    /// counters say which). Allocation-free once the scratch exists.
    CallId connect(std::uint32_t in, std::uint32_t out);
    /// Releases a call made through THIS session. Allocation-free.
    void disconnect(CallId call);

    /// Vertices of a call's path, input first (cold path: materializes
    /// from the successor array).
    [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const;
    /// Path length in vertices, O(1).
    [[nodiscard]] std::size_t path_length(CallId call) const {
      return calls_[call].length;
    }
    /// Ids of this session's active calls (cold path).
    [[nodiscard]] std::vector<CallId> active_call_ids() const;

    [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = RouterStats{}; }
    [[nodiscard]] std::size_t active_calls() const noexcept { return active_; }
    /// Total vertices held by this session's active calls.
    [[nodiscard]] std::size_t busy_vertices() const noexcept {
      return busy_count_;
    }

   private:
    friend class Router;
    struct Call {
      std::uint32_t in = 0, out = 0;
      graph::VertexId head = graph::kNoVertex;  // kNoVertex = slot free
      std::uint32_t length = 0;                 // vertices on the path
    };

    explicit Session(Router& r) : r_(&r) {}
    /// Builds the scratch (search arrays, call table reserves) at the
    /// current network size, once: the first-touch point for every page
    /// the hot path walks.
    void prepare();

    Router* r_;
    detail::SearchScratch scratch_;
    // Shared store's claim: the settled path src..dst, and the same
    // vertices in ascending id order.
    std::vector<graph::VertexId> path_buf_, claim_buf_;
    std::vector<Call> calls_;
    std::vector<CallId> free_slots_;
    std::size_t active_ = 0;
    std::size_t busy_count_ = 0;
    bool ready_ = false;
    RouterStats stats_;
  };

  [[nodiscard]] Session& session(unsigned s) { return sessions_[s]; }
  [[nodiscard]] const Session& session(unsigned s) const {
    return sessions_[s];
  }
  [[nodiscard]] unsigned session_count() const noexcept {
    return static_cast<unsigned>(sessions_.size());
  }

  // Session-0 shorthands: the one-session API.
  CallId connect(std::uint32_t in, std::uint32_t out) {
    return sessions_[0].connect(in, out);
  }
  void disconnect(CallId call) { sessions_[0].disconnect(call); }
  [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const {
    return sessions_[0].path_of(call);
  }
  [[nodiscard]] std::size_t path_length(CallId call) const {
    return sessions_[0].path_length(call);
  }

  /// Hitless growth: rebinds the router to the grown network `net`,
  /// carrying every live call on every session across. `vmap` maps each
  /// old vertex id to its grown id (the graph::GrownNetwork contract:
  /// injective, edge ids stable, terminal indices prefix-stable). All
  /// vertex-indexed state — busy/blocked masks, the overlay registries, the
  /// successor array, call heads — is remapped through vmap; edge-indexed
  /// state extends at its stable ids; terminal slots extend with idle tail
  /// entries. Call slot tables are never reordered, so existing handles
  /// stay valid. Session scratch is rebuilt at the grown size where the
  /// store first touches it (here, or on the session's next connect).
  /// QUIESCENT ONLY. The new network must outlive the router.
  void grow(const graph::Network& net, std::span<const graph::VertexId> vmap);

  // ---------------------------------------------------- liveness overlay
  // See the header comment for the racing and quiescence contract.

  /// Marks switch `e` failed: no later path may use it. Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a runtime switch failure (a statically blocked switch stays
  /// blocked). Idempotent.
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` STUCK ON (closed failure): the search may cross it in
  /// both directions (and stops pruning by the reach index while any weld
  /// is outstanding). A failed or statically blocked switch cannot be
  /// contracted into service. Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state. Calls that crossed the weld AGAINST the edge
  /// direction are now severed — the fault plane sweeps them. Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and claims its busy bit (unless already held by the
  /// static blocked mask). QUIESCENT ONLY, no active call through v.
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex, releasing the busy bit iff the fault plane
  /// claimed it. QUIESCENT ONLY.
  void revive_vertex(graph::VertexId v);

  [[nodiscard]] bool vertex_dead(graph::VertexId v) const {
    return dead_.test(v);
  }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const {
    return dead_edges_.test(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const {
    return contracted_edges_.test(e);
  }
  /// Usable = neither statically blocked nor runtime-failed.
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const {
    return (static_edges_.empty() || !static_edges_.test(e)) &&
           !dead_edges_.test(e);
  }

  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return !in_busy_.test(in) && !blocked_.test(net_->inputs[in]);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return !out_busy_.test(out) && !blocked_.test(net_->outputs[out]);
  }
  [[nodiscard]] bool is_busy(graph::VertexId v) const { return busy_.test(v); }
  /// Busy mask as bytes (cold path: expands the packed bitset).
  [[nodiscard]] std::vector<std::uint8_t> busy_mask() const {
    return busy_.to_bytes();
  }

  // Quiescent aggregates over all sessions.
  [[nodiscard]] RouterStats stats() const;          // merged via operator+=
  void reset_stats() noexcept;
  [[nodiscard]] std::size_t active_calls() const;   // sum of sessions
  [[nodiscard]] std::size_t busy_vertices() const;  // sum of path lengths

 private:
  void init(unsigned sessions, const std::vector<std::uint8_t>& blocked,
            const std::vector<std::uint8_t>& blocked_edges);
  /// Step 3 and the successor-array half of step 5 for the path the
  /// session's search just found: the store's claim. Returns the path
  /// length, or 0 when the claim was lost (shared store only).
  std::uint32_t claim(Session& s, graph::VertexId dst, bool revalidate);

  using Bits = typename Store::Bits;
  const graph::Network* net_;
  util::Bitset blocked_;       // static vertex faults (read-only)
  util::Bitset static_edges_;  // static switch faults (read-only; empty
                               // when there are none)
  Bits busy_;                  // blocked | dead | on an active path
  Bits dead_edges_;            // runtime switch failures
  Bits contracted_edges_;      // stuck-on switches: two-way hops
  // Outstanding runtime failures and welds: the overlay gates (see the
  // header comment for their order against the bits).
  typename Store::Count failed_{0}, welded_{0};
  util::Bitset dead_;           // vertices killed by the fault plane
  util::Bitset fault_claimed_;  // dead vertices whose busy bit WE set (vs
                                // vertices that were statically blocked)
  typename Store::Slots in_busy_, out_busy_;  // terminal slots
  // Successor array threading every active path; on the shared store entry
  // v is owned by the holder of busy bit v.
  std::vector<graph::VertexId> path_next_;
  ReachIndex reach_;  // search guide, read-only and shared by every session
  std::vector<Session> sessions_;
};

// The stores' claim steps (router.cpp), declared ahead of the explicit
// instantiations that use them.
template <>
std::uint32_t Router<SoloStore>::claim(Session& s, graph::VertexId dst,
                                       bool revalidate);
template <>
std::uint32_t Router<SharedStore>::claim(Session& s, graph::VertexId dst,
                                         bool revalidate);
extern template class Router<SoloStore>;
extern template class Router<SharedStore>;

/// The one-session router (plain bitsets, no claim protocol).
using GreedyRouter = Router<SoloStore>;
/// N sessions over shared atomic state with CAS-claimed paths.
using ConcurrentRouter = Router<SharedStore>;

}  // namespace ftcs::core
