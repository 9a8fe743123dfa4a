// Greedy circuit-switching router (§4, third observation: "because the
// contained network is strictly nonblocking, routing can be performed by a
// greedy application of a standard path-finding algorithm").
//
// ONE router body, core::Router<Store>, serves a network's calls from one
// or from N sessions. The router owns the network's busy state, its one
// fault state (the liveness overlay below) and every session's call table.
// A connect settles the first idle path a depth-first search finds, its
// first hop started in a plane chosen by the output (ftcs/search.hpp); on a
// strictly nonblocking (surviving) network this never fails for a request
// between idle terminals. The path is shortest wherever every input->output
// path has the same length (Cantor, crossbar, the §6 FT network), not in
// general.
//
// The two stores supply the only things that differ:
//   - SoloStore (GreedyRouter): one session. Busy state is a plain
//     util::Bitset, terminal slots are bytes, and connect() IS settle()
//     (below): with one session there is never another writer.
//   - SharedStore (ConcurrentRouter): N sessions over the same network.
//     Busy state is a util::AtomicBitset and terminal slots are cache-line
//     padded. Its connect() keeps a CAS claim (below) for the one case that
//     needs it: immediate-plane sessions connecting concurrently.
// On both stores every session's scratch is built at construction and
// again by grow(). The liveness overlay (below) is plain state on both.
//
// Two entries route a request:
//   - settle(in, out) — QUIESCENT ONLY on the shared store (the caller owns
//     every session: a batched drain, a fault event's victim reroutes).
//     Terminal check, search, then plain relaxed writes: each terminal
//     slot and path busy bit is a load and a store, with no sort, no CAS
//     and no claim buffer.
//   - connect(in, out) — the immediate plane. Solo store: settle(). Shared
//     store, protocol per connect (the CAS claim serves only concurrent
//     immediate-plane sessions):
//   1. TERMINAL ACQUIRE — a dead terminal is rejected; then the input
//      slot, then the output slot, is taken (try_set). Failure →
//      rejected_terminal (slots released in reverse order on any reject).
//      A terminal vertex occupied as an intermediate hop of another call
//      cannot anchor a new path (a vertex carries at most one call: two
//      calls would share its busy bit, and the first hangup would free it
//      under the second) → rejected_no_path. settle() applies the same
//      two tests, with plain reads.
//   2. SEARCH — the reach-guided depth-first search (ftcs/search.hpp) on
//      the session's private scratch, guided by the router's one ReachIndex
//      (read-only, rebuilt by grow()): its cones filter the children, and
//      its plane table picks the slot the first hop starts at
//      (ReachIndex::first_hop(in, out)). It reads the busy bits with
//      RELAXED loads: a dirty snapshot, deliberately unvalidated. The
//      overlay it reads is stable for the whole connect. No idle path →
//      rejected_no_path.
//   3. CLAIM — the path's vertices are claimed with word-level CAS
//      (AtomicBitset::try_set, acq_rel) in CANONICAL order (ascending
//      vertex id), so two overlapping claims collide at their smallest
//      shared vertex and the loser has claimed as little as possible.
//   4. CONFLICT — a lost CAS (claim_conflicts) releases the claim prefix,
//      newest first, and re-runs step 2 against the fresher state
//      (search_retries). After kMaxClaimRetries attempts the call is
//      rejected (rejected_contention): bounded work per call, no livelock.
//   5. SETTLE (every entry that routes) — the path is copied into one
//      record in the session's record store, the call table names the
//      record, and, once the owner map exists, each path vertex's entry
//      names the call (see call_at). disconnect() reads the record back and
//      resets its busy bits: no per-vertex store besides the bits.
//
// Memory-ordering contract (shared store; see util/atomic_bitset.hpp). It
// covers only busy bits, terminal slots and owner-map entries, and only the
// concurrent connect()s of the immediate plane; settle() writes them
// plainly because its caller excludes every other session:
//   - path records and call tables are SESSION-PRIVATE: written by the
//     session's settle and read by its disconnect/path(), all on the one
//     thread that owns the session, so they need no ordering of their own.
//   - busy_.try_set is acq_rel: a successful claim of v synchronizes-with
//     the busy_.reset(v) (release) of v's previous owner, so the owner's
//     write to owner_[v] is visible before anyone re-claims v. All
//     bitset-word writes of concurrent sessions are RMWs, so intervening
//     claims of OTHER bits in the same word do not break the release
//     sequence.
//   - owner_[v] is plain (non-atomic) data OWNED by whoever holds busy bit
//     v: written only between taking bit v and the matching reset(v), and
//     read only at quiescence (call_at). disconnect() leaves the entry as
//     it is; call_at() validates it against the named call's record
//     instead.
//   - search reads of busy bits are relaxed; every positive routing
//     decision is re-checked by the claim CAS (connect) or by the owning
//     settle, so stale reads cost retries, not correctness.
//
// Liveness overlay: the router's only fault state, whether the faults come
// from a sampled fault::FaultInstance applied once or from the runtime
// fault plane. Semantics follow §6: the fault unit is the switch (edge); a
// vertex dies when the caller decides its incident switches make it
// unusable. A dead vertex holds its own busy bit, so searches and claims
// avoid it with no extra state. A failed switch is a
// dead_edges_ bit, a stuck-on (closed, §2) switch a contracted_edges_ bit:
// a weld conducts in BOTH directions (the runtime analogue of contraction;
// the CSR graph is never mutated), and occupancy still applies to the
// hop's endpoints (the merged electrical node carries at most one call).
// Both masks are GATED by counts of OUTSTANDING faults and welds, read once
// per connect: with none, the search skips the overlay reads and runs the
// weld-free body, so a fault that is failed and repaired again costs
// nothing afterwards.
//   - Weld-ancestor counts keep the search pruning under welds:
//     weld_reach(v) is the number of live welds whose head (the edge's
//     `to`, where the reverse hop starts) v reaches forward in the static
//     graph, and the weld body admits an out-of-cone child only while its
//     count is nonzero (ftcs/search.hpp). contract_edge walks the head's
//     static ancestors and raises their counts; uncontract_edge lowers
//     them. A vertex that reaches every output is in every cone, so its
//     count is never read and never kept; its ancestors reach every output
//     too, so the walk stops there and covers only the output side of the
//     head's ancestors. The counts and the walk's scratch are sized by the
//     first contract_edge (a router that never welds allocates none) and
//     recounted by grow().
//   - fail_edge, repair_edge, contract_edge, uncontract_edge, kill_vertex,
//     revive_vertex, call_at and grow (and, on the shared store, settle)
//     are QUIESCENT ONLY: no connect or disconnect in flight on any
//     other session, and, for kill_vertex, victims torn down first — the
//     same contract as Exchange::drain(). svc::Exchange
//     holds every session while it flips a switch, then asks call_at() for
//     the calls through the switch's two endpoints and tears down those
//     path_carried() rejects (a weld's repair severs calls that crossed it
//     against its direction).
//   - A failed switch beats a weld: a switch both failed and contracted
//     carries nothing.
//
// Sessions: a Session is single-threaded — one thread at a time may use
// session(s), and a call is disconnected through the session that connected
// it. Distinct sessions of the shared store may connect() concurrently; a
// settle() excludes every other session. The aggregates
// stats(), active_calls() and busy_vertices() are exact only at quiescence;
// they are for reporting, not for the hot path.
//
// Hot-path design: connect() and settle() perform NO heap allocation.
//   - visited state is one bit per vertex, zeroed word by word by the
//     search that set it; the search stack (vertex_count frames, allocated
//     untouched) is the found path, which the claim reads in place; each
//     frame prefetches its children's reach-set ids and CSR offset rows;
//   - busy / overlay vertex and edge state live in packed bitsets, 64
//     vertices per cache word;
//   - each session keeps its calls' paths as [call id, capacity,
//     vertices...] records in one bump arena of V + 2 x (max calls) words:
//     a settle writes one record (a single copy of the path) and a hangup
//     reads it back, one or two cache lines, with no pointer chase. A freed
//     slot keeps its record, and free slots are reused newest first, so a
//     settle usually rewrites a record still in cache; only a path longer
//     than the slot's record is appended. A full arena compacts its live
//     records in address order, trimmed to their paths; then the new path
//     always fits, because a session's live paths and the new one are
//     vertex-disjoint, so together they hold at most V vertices. Weld
//     reverse hops make paths longer than the stage count, so no fixed
//     stride per call would do;
//   - the vertex -> call owner map behind call_at() (4-byte entries, a
//     packed session and slot) exists only once the fault plane has asked:
//     a router that never faults neither builds nor writes it.
//
// One search for every entry: a 1-session shared router is path-for-path
// identical to the solo router (with no contention its claim always
// succeeds first try), and settle() routes as the solo store's connect()
// does. The Exchange's batched plane commits its windows through settle(),
// one request at a time in window order (svc/README.md, "Batched drain").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ftcs/reach_index.hpp"
#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/atomic_bitset.hpp"
#include "util/bitset.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::core {

/// Counter block filled by the router sessions; reset with reset_stats().
/// Mergeable: operator+= aggregates per-session blocks and per-network
/// blocks (bench_routing) into one summary; operator-= takes before/after
/// deltas. Every counter is a row of fields() (util/stat_fields.hpp).
struct RouterStats {
  std::uint64_t connect_calls = 0;     // connect() invocations
  std::uint64_t accepted = 0;          // calls that settled a path
  std::uint64_t rejected_terminal = 0; // busy/dead endpoint, no search run
  std::uint64_t rejected_no_path = 0;  // search exhausted without reaching dst
  std::uint64_t disconnects = 0;
  std::uint64_t vertices_visited = 0;  // vertices marked across all searches
  std::uint64_t path_vertices = 0;     // total length of settled paths
  // Shared-store connect() counters (always 0 on the solo store and for
  // settle()):
  std::uint64_t claim_conflicts = 0;      // CAS lost a vertex to another session
  std::uint64_t search_retries = 0;       // searches re-run after a conflict
  std::uint64_t rejected_contention = 0;  // gave up after the retry budget
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
  /// Terminal slots as bytes: admission is one plain load and store.
  struct Slots {
    std::vector<std::uint8_t> held;
    explicit Slots(std::size_t n = 0) : held(n, 0) {}
    [[nodiscard]] std::size_t size() const noexcept { return held.size(); }
    [[nodiscard]] bool test(std::size_t i) const noexcept { return held[i]; }
    void set(std::size_t i) noexcept { held[i] = 1; }
    void reset(std::size_t i) noexcept { held[i] = 0; }
  };
};

/// N concurrent sessions over atomic busy bits and terminal slots (see the
/// header comment).
struct SharedStore {
  static constexpr bool kShared = true;
  using Bits = util::AtomicBitset;
  /// Terminal slots, one word per cache line: with dense words, 64
  /// unrelated admission CASes would false-share one line.
  struct Slots : util::AtomicBitset {
    explicit Slots(std::size_t n = 0) : AtomicBitset(n, Padding::kCacheLine) {}
  };
};

/// A session's call, as call_at() names it; call == kNoCall means none.
struct CallRef {
  std::uint32_t session = 0;
  std::uint32_t call = static_cast<std::uint32_t>(-1);
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

  /// One-session router over a healthy network; faults are applied
  /// through the liveness overlay (kill_vertex, fail_edge, contract_edge).
  /// The network must outlive the router. All scratch is allocated here.
  explicit Router(const graph::Network& net)
    requires(!Store::kShared)
      : net_(&net), reach_(net) {
    init(1);
  }
  /// `sessions` fixes the session count (0 means 1). All scratch, every
  /// session's included, is allocated here.
  Router(const graph::Network& net, unsigned sessions)
    requires(Store::kShared)
      : net_(&net), reach_(net) {
    init(sessions);
  }

  // Pinned: every Session holds a back-pointer to its router.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// One routing session; use from ONE thread at a time. Cache-line
  /// aligned so one session's hot state (stats counters, call table heads)
  /// never false-shares with its neighbours.
  class alignas(util::kCacheLineBytes) Session {
   public:
    /// The immediate plane (header comment): settle() on the solo store,
    /// steps 1-5 on the shared one. Returns kNoCall on a busy or dead
    /// terminal, no idle path, or claim-retry exhaustion (the stats counters
    /// say which). Allocation-free.
    CallId connect(std::uint32_t in, std::uint32_t out);
    /// Routes in->out with plain writes: terminal check, search, settle.
    /// QUIESCENT ONLY on the shared store: no other session may connect or
    /// disconnect meanwhile. Returns kNoCall on a busy or dead terminal or
    /// no idle path. Allocation-free.
    CallId settle(std::uint32_t in, std::uint32_t out);
    /// Releases a call made through THIS session. Allocation-free.
    void disconnect(CallId call);

    /// Vertices of a call's path, input first: a view of the call's record,
    /// valid until this session's next connect (which may compact the
    /// record store) or grow().
    [[nodiscard]] std::span<const graph::VertexId> path(CallId call) const {
      const Call& c = calls_[call];
      return {records_.data() + c.at, c.length};
    }
    /// The same, copied (cold path).
    [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const {
      const auto p = path(call);
      return {p.begin(), p.end()};
    }
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
      static constexpr std::uint32_t kNoRecord = static_cast<std::uint32_t>(-1);
      std::uint32_t in = 0, out = 0;
      // The path's first vertex in records_; a free slot keeps its last
      // record for reuse, or kNoRecord.
      std::uint32_t at = kNoRecord;
      std::uint32_t length = 0;  // vertices on the path; 0 = slot free
    };

    Session(Router& r, std::uint32_t index) : r_(&r), index_(index) {}
    /// Builds the scratch (search arrays, record store, call table
    /// reserves) at the current network size; the router's construction
    /// and grow() call it. Live records are kept.
    void prepare();
    /// Step 2 for in->out on this session's scratch: true iff it found an
    /// idle path (then scratch_.path()).
    bool find(std::uint32_t in, std::uint32_t out);
    /// Step 5 for the path the search left in the scratch, whose vertices
    /// and terminal slots the caller has taken: the call's slot and record.
    CallId record(std::uint32_t in, std::uint32_t out);
    /// Writes the scratch's path as call `id`'s record: into the slot's
    /// last record when it is long enough, else appended (compacting first
    /// when the store is full). Returns where the vertices start.
    std::uint32_t write_record(CallId id);
    /// Moves the live records to the front of the store, in address order,
    /// each trimmed to its path, and drops every other record.
    void compact();

    Router* r_;
    std::uint32_t index_;  // this session's number, for the owner map
    detail::SearchScratch scratch_;
    // Record store: [call id, capacity, vertices...] per record, bump
    // allocated from top_. A record belongs to its slot while the slot
    // points at it (a slot that outgrew a record left it behind), and is
    // live while that slot is.
    std::vector<std::uint32_t> records_;
    std::uint32_t top_ = 0;
    // Shared store's claim: the path's vertices in ascending id order.
    std::vector<graph::VertexId> claim_buf_;
    std::vector<Call> calls_;
    std::vector<CallId> free_slots_;
    std::size_t active_ = 0;
    std::size_t busy_count_ = 0;
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
  /// carrying every live call on every session across. `net` must extend
  /// the current network append-only (graph::NetworkDelta): old vertex ids,
  /// edge ids and terminal indices keep their meaning. Vertex-, edge- and
  /// terminal-indexed state extends at the same ids with idle, healthy
  /// tail entries; path records and call slot tables are untouched, so
  /// every live path and handle stays valid as it is. Every session's
  /// scratch and record store is rebuilt here at the grown size. QUIESCENT
  /// ONLY. The new network must outlive the router.
  void grow(const graph::Network& net);

  // ---------------------------------------------------- liveness overlay
  // Every mutator here and call_at() is QUIESCENT ONLY (header comment).

  /// Marks switch `e` failed: no later path may use it. QUIESCENT ONLY.
  /// Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a switch failure. QUIESCENT ONLY. Idempotent.
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` STUCK ON (closed failure): the search may cross it in
  /// both directions, and out-of-cone children that reach its head stay in
  /// the search (one walk over the head's static ancestors). A failed
  /// switch cannot be contracted into service. QUIESCENT ONLY. Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state (and walks the head's ancestors back down).
  /// Calls that crossed the weld AGAINST the edge direction are now severed
  /// — the fault plane reaps them. QUIESCENT ONLY. Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and takes its busy bit. A dead terminal reads busy and
  /// is refused at admission (rejected_terminal). QUIESCENT ONLY, no
  /// active call through v. Idempotent.
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex and releases its busy bit. QUIESCENT ONLY.
  /// Idempotent.
  void revive_vertex(graph::VertexId v);
  /// The call whose path holds `v` (a vertex carries at most one), or
  /// call == kNoCall. Reads v's owner-map entry and confirms that the
  /// named call is live and its record holds v: O(path length). The first
  /// query builds the map from the live records; from then on every settle
  /// writes its path's entries, so a router never asked allocates and
  /// writes nothing for it. QUIESCENT ONLY.
  [[nodiscard]] CallRef call_at(graph::VertexId v);

  [[nodiscard]] bool vertex_dead(graph::VertexId v) const {
    return dead_.test(v);
  }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const {
    return dead_edges_.test(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const {
    return contracted_edges_.test(e);
  }
  /// Switches currently failed / contracted: the overlay gates.
  [[nodiscard]] std::size_t failed_edge_count() const noexcept {
    return failed_;
  }
  [[nodiscard]] std::size_t contracted_edge_count() const noexcept {
    return welded_;
  }
  /// Live welds whose head `v` reaches forward in the static graph, `v`
  /// included (the search's weld filter). 0 when `v` reaches every output
  /// (the search never asks) and on a router that never welded.
  /// QUIESCENT ONLY.
  [[nodiscard]] std::uint32_t weld_reach(graph::VertexId v) const {
    return weld_reach_.empty() ? 0 : weld_reach_[v];
  }
  /// The hop rule: true iff every hop of `path` is carried by a forward
  /// switch that has not failed, or by a weld that has not failed crossed
  /// against its direction. The fault plane's victim check asks it.
  [[nodiscard]] bool path_carried(std::span<const graph::VertexId> path) const;

  /// Idle = no call holds the terminal and it is not dead.
  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return !in_busy_.test(in) && !dead_.test(net_->inputs[in]);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return !out_busy_.test(out) && !dead_.test(net_->outputs[out]);
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
  void init(unsigned sessions);
  /// Step 3 of the shared store's connect() for the path the session's
  /// search just found (its scratch's stack): true iff every CAS won.
  bool claim(Session& s)
    requires(Store::kShared);
  /// Sizes the weld-ancestor counts and the walk's flags at the network's
  /// vertex count, all zero.
  void clear_weld_counts();
  /// Adds `delta` to the weld-ancestor count of `head` and of every vertex
  /// that reaches it in the static graph, skipping the vertices that reach
  /// every output: one backward walk over in-edges.
  void count_weld(graph::VertexId head, int delta);
  /// Points owner_[v] at call `id` of session `s` for every vertex of the
  /// call's path.
  void own_path(const Session& s, CallId id);
  /// Sizes the owner map at the network's vertex count and fills it from
  /// every session's live records.
  void build_owner_map();

  const graph::Network* net_;
  typename Store::Bits busy_;  // dead | on an active path
  // The liveness overlay, changed only at quiescence.
  util::Bitset dead_edges_;        // failed switches
  util::Bitset contracted_edges_;  // stuck-on switches: two-way hops
  std::size_t failed_ = 0, welded_ = 0;  // outstanding: the overlay gates
  util::Bitset dead_;                    // killed vertices
  typename Store::Slots in_busy_, out_busy_;  // terminal slots
  // Owner map: owner_[v] = slot x session_count() + session of the last
  // call settled through v, or kNoCall; stale once that call hangs up
  // (call_at() checks). Empty until the first call_at(); on the shared
  // store entry v is owned by the holder of busy bit v.
  std::vector<std::uint32_t> owner_;
  ReachIndex reach_;  // search guide, read-only and shared by every session
  // Weld-ancestor counts (weld_reach()), and the walk's visited flags and
  // queue; all empty until the first contract_edge.
  std::vector<std::uint32_t> weld_reach_;
  std::vector<std::uint8_t> walk_seen_;
  std::vector<graph::VertexId> walk_queue_;
  std::vector<Session> sessions_;
};

extern template class Router<SoloStore>;
extern template class Router<SharedStore>;

/// The one-session router (plain bitsets, no claim protocol).
using GreedyRouter = Router<SoloStore>;
/// N sessions over shared atomic busy bits: CAS-claimed connects, owned
/// settles.
using ConcurrentRouter = Router<SharedStore>;

}  // namespace ftcs::core
