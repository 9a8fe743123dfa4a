// Concurrent greedy circuit-switching engine: N workers route over ONE
// shared immutable CSR network with lock-free path claiming.
//
// Why this is sound (conf_spaa_PippengerL92 §4): the contained network is
// strictly nonblocking, so one greedy search can never destroy another's
// feasibility — concurrent searches race only on WHICH idle vertices they
// grab, never on whether a route exists. That is the optimistic
// resource-packing structure: search on a dirty snapshot, claim with CAS,
// retry on conflict.
//
// Protocol per connect(in, out), executed by a Worker (one per thread):
//   1. TERMINAL ACQUIRE — CAS the input slot, then the output slot, in the
//      shared AtomicBitsets. Failure → rejected_terminal (slot released in
//      reverse order on partial acquire).
//   2. SEARCH — the shared epoch-stamped, direction-optimizing bidirectional
//      BFS (ftcs/search.hpp) runs on the worker's PRIVATE scratch, reading
//      the shared busy bitset with RELAXED loads: a dirty snapshot,
//      deliberately unvalidated. No idle path → rejected_no_path.
//   3. CLAIM — the settled path's vertices are claimed one-by-one with
//      word-level CAS (AtomicBitset::try_set, acq_rel) in CANONICAL order
//      (ascending vertex id). Canonical order makes two overlapping claims
//      collide at their smallest shared vertex, so the loser has claimed as
//      little as possible before backing off.
//   4. CONFLICT — on a failed CAS the worker RELEASES every vertex it
//      claimed for this attempt (release order: the claim prefix, reversed)
//      and re-runs step 2 against the fresher busy state; claim_conflicts
//      and search_retries count these. After kMaxClaimRetries failed
//      attempts the call is rejected (rejected_contention) — bounded work
//      per call, no livelock.
//   5. SETTLE — with every path vertex owned, the worker threads the path
//      through the shared per-vertex successor array and records the call
//      in its private call table.
//
// Memory-ordering contract (see util/atomic_bitset.hpp):
//   - busy_.try_set is acq_rel: a successful claim of v synchronizes-with
//     the busy_.reset(v) (release) of v's previous owner, so the owner's
//     writes to path_next_[v] are visible before anyone re-claims v. All
//     bitset-word writes are RMWs, so intervening claims of OTHER bits in
//     the same word do not break the release sequence.
//   - path_next_[v] is plain (non-atomic) data OWNED by whoever holds busy
//     bit v: written only between a successful try_set(v) and the matching
//     reset(v). disconnect() reads the successor BEFORE releasing the bit.
//   - BFS busy reads are relaxed; every positive routing decision is
//     re-validated by the claim CAS, so stale reads cost retries, not
//     correctness.
//
// Liveness overlay (runtime fault plane): dead_edges_ is an AtomicBitset the
// BFS consults alongside the busy state (relaxed loads — the same dirty-
// snapshot discipline as busy reads). fail_edge()/repair_edge() MAY race
// in-flight connects: after a worker claims a settled path it RE-VALIDATES
// every hop against the overlay with acquire loads, releasing the claim and
// re-searching on a hit (overlay_conflicts). The guarantee is the usual
// happens-before one: a connect that starts after fail_edge(e) completes
// (ordering established by the caller — a flag, a mutex, the Exchange's
// session ownership) can never settle a path through e. A connect already
// past validation when the flip lands keeps its path; reconciling those
// stragglers is the fault plane's job (svc::Exchange::inject tears them
// down while holding every session). kill_vertex()/revive_vertex() fold
// vertex death into the busy bitset (a dead vertex holds its own busy bit,
// so searches and claims avoid it with no extra state) and therefore
// require quiescence: no connect in flight on any session, victims torn
// down first — the same contract as Exchange::drain().
//
// CLOSED failures (stuck-on switches, §2 contraction): contracted_edges_ is
// a second AtomicBitset under the same dirty-snapshot discipline — the BFS
// reads it relaxed and treats a contracted switch as a zero-cost hop that
// conducts in BOTH directions (see ftcs/search.hpp). contract_edge()/
// uncontract_edge() may race in-flight connects exactly like fail_edge():
// a stuck flip observed mid-search costs at most a suboptimal-but-valid
// path (the hop is conducting either way), and the post-claim re-validation
// accepts a hop carried by a live parallel switch OR by a contracted one in
// either direction. The one genuine hazard is stuck -> repaired: a settled
// path that crossed the weld AGAINST the edge direction is electrically
// severed by the repair; as with open-failure stragglers, reconciling those
// calls is the fault plane's job (svc::Exchange::repair sweeps victims
// while holding every session).
//
// Ownership model: a Worker is a single-threaded session — exactly one
// thread may use worker(w) at a time, and a call must be disconnected
// through the worker that connected it (call tables are per-worker, like
// sharded session state). Aggregate readers (stats(), busy_vertices(),
// active_calls()) are exact only at quiescence (no concurrent connects);
// they are meant for end-of-run reporting, not for the hot path.
//
// A 1-worker ConcurrentRouter is path-for-path identical to GreedyRouter:
// both run the same search (ftcs/search.hpp) and with no contention the
// claim phase always succeeds on the first attempt.
//
// WAVE MODE (epoch-wave routing): Worker::connect_wave routes a whole
// priority-ordered admission window through ONE shared search wave
// (detail::wave_search) instead of N independent searches — legal because
// the strictly-nonblocking guarantee means window-mates race only on
// occupancy, never feasibility. Steps 1/3/4/5 are unchanged per request:
// terminals are CAS-acquired as tentative holds up front (a slot held by an
// unresolved window-mate DEFERS the claimant instead of rejecting it, which
// is exactly the verdict order sequential routing would produce), settled
// paths are claimed vertex-by-vertex in canonical order and overlay-
// re-validated, and a claim/overlay conflict demotes ONLY that request into
// the next wave — per-item demotions are bounded by kMaxClaimRetries, as
// today. A wave round that settles nothing routes its head solo, so every
// round resolves at least one request and the round count is bounded by the
// window size.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "ftcs/router.hpp"
#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/atomic_bitset.hpp"
#include "util/bitset.hpp"
#include "util/cpu_topology.hpp"

namespace ftcs::core {

class ConcurrentRouter {
 public:
  using CallId = std::uint32_t;
  static constexpr CallId kNoCall = static_cast<CallId>(-1);
  /// Failed claim attempts per call before rejecting with
  /// rejected_contention. Conflicts need two calls' paths to overlap in the
  /// same instant, so even 2 retries are rarely consumed; 16 bounds the
  /// pathological case without ever rejecting a realistic workload.
  static constexpr unsigned kMaxClaimRetries = 16;

  /// `workers` fixes the session count (>= 1). `blocked` / `blocked_edges`
  /// as in GreedyRouter. The network must outlive the router; GLOBAL scratch
  /// is allocated here, once. Per-worker scratch is built lazily on the
  /// worker's FIRST connect/connect_wave — on the thread that owns the
  /// session — so with a pinned thread pool the scratch pages first-touch
  /// onto the owning worker's NUMA node instead of the constructing
  /// thread's.
  ConcurrentRouter(const graph::Network& net, unsigned workers,
                   std::vector<std::uint8_t> blocked = {},
                   std::vector<std::uint8_t> blocked_edges = {});

  // Pinned: every Worker holds a back-pointer to this router, so moving the
  // router would leave its sessions dangling into the moved-from object.
  ConcurrentRouter(const ConcurrentRouter&) = delete;
  ConcurrentRouter& operator=(const ConcurrentRouter&) = delete;
  ConcurrentRouter(ConcurrentRouter&&) = delete;
  ConcurrentRouter& operator=(ConcurrentRouter&&) = delete;

  /// One routing session; use from ONE thread at a time. Obtained via
  /// worker(w); lives as long as the router. Cache-line aligned so one
  /// session's hot state (stats counters, call table heads) never
  /// false-shares with its neighbours in the workers_ deque.
  class alignas(util::kCacheLineBytes) Worker {
   public:
    /// Steps 1-5 above. Returns kNoCall on busy terminal, no idle path, or
    /// claim-retry exhaustion (see stats). Allocation-free after this
    /// worker's first call (which first-touch builds the session scratch).
    CallId connect(std::uint32_t in, std::uint32_t out);
    /// WAVE MODE (see the header comment): routes a priority-ordered window
    /// of `n` requests as one shared search wave per round. Per item the
    /// verdict alphabet matches connect(): `call` set on success, `reject`
    /// set otherwise (kTerminal / kNoPath / kContention). Same ownership
    /// contract as connect() — one thread per worker at a time.
    void connect_wave(WaveItem* items, std::size_t n);
    /// Releases a call made through THIS worker. Allocation-free.
    void disconnect(CallId call);

    /// Vertices of a call's path, input first (cold path).
    [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const;
    [[nodiscard]] std::size_t path_length(CallId call) const {
      return calls_[call].length;
    }
    /// Ids of this worker's active calls (cold path; for draining/tests).
    [[nodiscard]] std::vector<CallId> active_call_ids() const;

    [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = RouterStats{}; }
    [[nodiscard]] std::size_t active_calls() const noexcept { return active_; }
    /// Total vertices held by this worker's active calls.
    [[nodiscard]] std::size_t busy_vertices() const noexcept {
      return busy_count_;
    }

   private:
    friend class ConcurrentRouter;
    struct Call {
      std::uint32_t in = 0, out = 0;
      graph::VertexId head = graph::kNoVertex;  // kNoVertex = slot free
      std::uint32_t length = 0;                 // vertices on the path
    };

    explicit Worker(ConcurrentRouter& r);

    /// Builds the session scratch (search arrays, call table, wave maps) on
    /// first use, i.e. on the thread that owns this session — the
    /// first-touch point for every page the hot path walks.
    void ensure_scratch();

    /// Steps 2-5 with the terminal slots ALREADY held by the caller: dirty-
    /// snapshot search, canonical claim, overlay re-validation, settle.
    /// Releases both terminal slots on any reject. On kNone, `id` is the new
    /// call.
    WaveReject connect_held(std::uint32_t in, std::uint32_t out, CallId& id);
    /// Step 5 once every vertex of path_buf_ is owned: threads the shared
    /// successor array and records the call in the private table.
    CallId settle_owned(std::uint32_t in, std::uint32_t out);

    static constexpr std::uint32_t kNoItem = static_cast<std::uint32_t>(-1);

    ConcurrentRouter* r_;
    detail::SearchScratch scratch_;
    std::vector<graph::VertexId> path_buf_;   // settled path, src..dst
    std::vector<graph::VertexId> claim_buf_;  // same vertices, ascending id
    std::vector<Call> calls_;
    std::vector<CallId> free_slots_;
    // Wave scratch (connect_wave only): src/dst/meet/total per wave entry,
    // slot -> window item index, per-item admission/demotion bookkeeping,
    // and terminal-slot -> holding-item maps for the defer discipline.
    std::vector<graph::VertexId> wave_src_, wave_dst_, wave_meet_;
    std::vector<std::uint32_t> wave_total_, wave_slot_;
    std::vector<std::uint8_t> wave_admitted_;
    std::vector<std::uint8_t> wave_attempts_;
    std::vector<std::uint32_t> in_holder_, out_holder_;
    std::size_t active_ = 0;
    std::size_t busy_count_ = 0;
    bool scratch_ready_ = false;
    RouterStats stats_;
  };

  [[nodiscard]] Worker& worker(unsigned w) { return workers_[w]; }
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return !in_busy_.test(in) && !blocked_.test(net_->inputs[in]);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return !out_busy_.test(out) && !blocked_.test(net_->outputs[out]);
  }
  [[nodiscard]] bool is_busy(graph::VertexId v) const {
    return busy_.test(v, std::memory_order_acquire);
  }

  // ------------------------------------------------------ liveness overlay
  // See the header comment for the memory-ordering and quiescence contract.

  /// Marks switch `e` failed. Safe to call while connects are in flight on
  /// other threads (atomic flip + claim-phase re-validation). Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a runtime switch failure (statically blocked edges stay
  /// blocked). Safe under the same racing contract as fail_edge().
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` stuck on (closed failure): the search crosses it as
  /// a zero-cost forced hop in both directions instead of claiming it as a
  /// switching element. Safe while connects are in flight (atomic flip +
  /// claim-phase re-validation). Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state. Calls that crossed the weld against the edge
  /// direction are severed — the fault plane sweeps them (see the header
  /// comment). Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and fault-claims its busy bit. QUIESCENT ONLY: no
  /// connect in flight, no active call through v.
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex (releases the busy bit iff fault-claimed).
  /// QUIESCENT ONLY.
  void revive_vertex(graph::VertexId v);

  /// Hitless growth: rebinds the router to the grown network `net`,
  /// carrying every live call on every worker across. Same contract as
  /// GreedyRouter::grow (vmap per graph::GrownNetwork; call ids survive;
  /// the new network must outlive the router), with the concurrent
  /// specifics: the shared atomic bitsets are REBUILT at the grown size
  /// (AtomicBitset::resize clears, so live bits are snapshotted and re-set
  /// through vmap), and every worker's session scratch is invalidated so
  /// its next connect first-touches the grown arrays on the owning thread
  /// — the NUMA discipline of construction, preserved across growth.
  /// QUIESCENT ONLY: no connect/disconnect/wave in flight on ANY worker —
  /// the kill_vertex/drain() contract the Exchange's growth path holds.
  void grow(const graph::Network& net, std::span<const graph::VertexId> vmap);

  [[nodiscard]] bool vertex_dead(graph::VertexId v) const {
    return dead_vertices_.test(v);
  }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const {
    return dead_edges_.test(e, std::memory_order_acquire);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const {
    return contracted_edges_.test(e, std::memory_order_acquire);
  }
  /// Usable = neither statically blocked nor runtime-failed.
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const {
    return !(!blocked_edges_.empty() && blocked_edges_.test(e)) &&
           !dead_edges_.test(e, std::memory_order_acquire);
  }

  // Quiescent aggregates over all workers (exact once no connects/
  // disconnects are in flight).
  [[nodiscard]] RouterStats stats() const;          // merged via operator+=
  [[nodiscard]] std::size_t active_calls() const;   // sum of sessions
  [[nodiscard]] std::size_t busy_vertices() const;  // sum of path lengths

 private:
  /// True iff every hop of the settled path is still carried: by a usable
  /// forward switch, or by a contracted (stuck-on) switch in either
  /// direction. Acquire loads on the overlay (claim-phase re-validation).
  [[nodiscard]] bool path_switches_alive(
      const std::vector<graph::VertexId>& path) const;

  const graph::Network* net_;
  util::Bitset blocked_;        // static vertex faults (read-only)
  util::Bitset blocked_edges_;  // static switch faults (read-only)
  util::AtomicBitset busy_;     // shared: blocked | dead | claimed by a path
  // Liveness overlay: dead_edges_ is read by in-flight searches (relaxed)
  // and validations (acquire); overlay_active_ gates those reads so the
  // fault-free hot path pays one register test. The vertex registries are
  // cold state touched only under the quiescent kill/revive contract.
  util::AtomicBitset dead_edges_;
  // Stuck-on switches (closed failures): read relaxed by searches alongside
  // dead_edges_, gated by its own sticky flag so open-failure-only runs do
  // not pay the reverse-conduction scans in the shared BFS.
  util::AtomicBitset contracted_edges_;
  std::atomic<bool> overlay_active_{false};
  std::atomic<bool> contraction_active_{false};
  util::Bitset dead_vertices_;
  util::Bitset fault_claimed_;
  util::AtomicBitset in_busy_, out_busy_;  // terminal slots
  // Shared successor array threading every active path; entry v is owned by
  // the holder of busy bit v (see the memory-ordering contract above).
  std::vector<graph::VertexId> path_next_;
  std::deque<Worker> workers_;  // deque: stable addresses for worker(w) refs
};

}  // namespace ftcs::core
