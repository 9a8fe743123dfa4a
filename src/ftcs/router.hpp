// Greedy circuit-switching router (§4, third observation: "because the
// contained network is strictly nonblocking, routing can be performed by a
// greedy application of a standard path-finding algorithm").
//
// The router owns the busy-state of a network (plus a static blocked mask
// for faulty vertices) and serves connect/disconnect requests. connect()
// finds a shortest idle path by BFS; on a strictly nonblocking (surviving)
// network this never fails for a request between idle terminals.
//
// Hot-path design: connect() performs NO heap allocation after construction.
//   - the search is a level-synchronized BIDIRECTIONAL BFS (forward along
//     out-edges from the input, backward along in-edges from the output,
//     always expanding the smaller frontier) — still returns a shortest idle
//     path, but explores O(f^(d/2)) instead of O(f^d) vertices on the
//     layered networks of §6, and detects "no idle path" as soon as either
//     frontier dies. A level whose frontier outgrows the unvisited set is
//     expanded by a bottom-up sweep instead (direction optimization, see
//     ftcs/search.hpp);
//   - visited state is epoch-stamped (one bulk clear per 2^32 calls instead
//     of one per call) with parent arrays per direction for path recovery;
//   - frontiers are preallocated ring buffers of vertex_count slots (each
//     vertex enters a queue at most once per search);
//   - busy / blocked vertex and edge state live in packed bitsets
//     (util::Bitset), 64 vertices per cache word;
//   - settled paths are threaded through a per-vertex successor array
//     (path_next_): a vertex carries at most one call, so one VertexId per
//     vertex stores every active path with zero per-call storage.
// Per-call counters are collected in RouterStats for the benches.
//
// The search itself lives in ftcs/search.hpp and is shared with
// core::ConcurrentRouter (concurrent_router.hpp), which runs N of these
// searches in parallel over one network with CAS-claimed busy state; this
// single-owner router remains the fastest option for one thread and the
// reference semantics the concurrent engine is tested against.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/bitset.hpp"

namespace ftcs::core {

/// Counter block filled by the routers; reset with reset_stats().
/// Mergeable: operator+= aggregates per-worker blocks (ConcurrentRouter)
/// and per-network blocks (bench_routing) into one summary.
struct RouterStats {
  std::uint64_t connect_calls = 0;     // connect() invocations
  std::uint64_t accepted = 0;          // calls that settled a path
  std::uint64_t rejected_terminal = 0; // busy/blocked endpoint, no search run
  std::uint64_t rejected_no_path = 0;  // BFS exhausted without reaching dst
  std::uint64_t disconnects = 0;
  std::uint64_t vertices_visited = 0;  // BFS visits across all searches
  std::uint64_t path_vertices = 0;     // total length of settled paths
  // Concurrent-engine counters (always 0 for GreedyRouter):
  std::uint64_t claim_conflicts = 0;      // CAS lost a vertex to another worker
  std::uint64_t search_retries = 0;       // searches re-run after a conflict
  std::uint64_t rejected_contention = 0;  // gave up after the retry budget
  std::uint64_t overlay_conflicts = 0;    // settled path crossed a switch that
                                          // failed during the search (released
                                          // and re-searched, like a claim loss)
  // Wave / direction-optimizing counters (attribute the machinery's wins
  // directly instead of inferring them from visit totals):
  std::uint64_t wave_epochs = 0;      // multi-source waves run (connect_wave)
  std::uint64_t bottom_up_levels = 0; // BFS levels expanded by bottom-up sweep
  std::uint64_t visits_forward = 0;   // stamps by the forward frontier
  std::uint64_t visits_backward = 0;  // stamps by the backward frontier
                                      // (forward + backward always equals
                                      // vertices_visited)

  RouterStats& operator+=(const RouterStats& o) noexcept {
    connect_calls += o.connect_calls;
    accepted += o.accepted;
    rejected_terminal += o.rejected_terminal;
    rejected_no_path += o.rejected_no_path;
    disconnects += o.disconnects;
    vertices_visited += o.vertices_visited;
    path_vertices += o.path_vertices;
    claim_conflicts += o.claim_conflicts;
    search_retries += o.search_retries;
    rejected_contention += o.rejected_contention;
    overlay_conflicts += o.overlay_conflicts;
    wave_epochs += o.wave_epochs;
    bottom_up_levels += o.bottom_up_levels;
    visits_forward += o.visits_forward;
    visits_backward += o.visits_backward;
    return *this;
  }

  /// Counter delta (all fields are monotone), for before/after snapshots.
  RouterStats& operator-=(const RouterStats& o) noexcept {
    connect_calls -= o.connect_calls;
    accepted -= o.accepted;
    rejected_terminal -= o.rejected_terminal;
    rejected_no_path -= o.rejected_no_path;
    disconnects -= o.disconnects;
    vertices_visited -= o.vertices_visited;
    path_vertices -= o.path_vertices;
    claim_conflicts -= o.claim_conflicts;
    search_retries -= o.search_retries;
    rejected_contention -= o.rejected_contention;
    overlay_conflicts -= o.overlay_conflicts;
    wave_epochs -= o.wave_epochs;
    bottom_up_levels -= o.bottom_up_levels;
    visits_forward -= o.visits_forward;
    visits_backward -= o.visits_backward;
    return *this;
  }
};

/// Per-request verdict of a wave-routed window (connect_wave). Mapped 1:1
/// onto svc::RejectReason by the engines — a batch cannot be classified by
/// counter-diffing (several requests share one stats block).
enum class WaveReject : std::uint8_t {
  kNone = 0,     // routed; WaveItem::call is live
  kTerminal,     // input/output slot busy or blocked
  kNoPath,       // no idle path exists (final verdict from a solo search)
  kContention,   // concurrent claim/overlay retry budget exhausted
};

/// One request of an admission window handed to connect_wave(); resolved in
/// place. `in`/`out` are terminal indices exactly as for connect().
struct WaveItem {
  std::uint32_t in = 0;
  std::uint32_t out = 0;
  std::uint32_t call = static_cast<std::uint32_t>(-1);  // router CallId
  std::uint32_t path_length = 0;                        // vertices, if routed
  WaveReject reject = WaveReject::kNone;
};

class GreedyRouter {
 public:
  /// `blocked` marks statically unusable vertices (e.g. faulty); may be
  /// empty. `blocked_edges` likewise for switches. The network must outlive
  /// the router. All scratch state is allocated here, once.
  explicit GreedyRouter(const graph::Network& net,
                        std::vector<std::uint8_t> blocked = {},
                        std::vector<std::uint8_t> blocked_edges = {});

  /// Call handle; valid until disconnect.
  using CallId = std::uint32_t;
  static constexpr CallId kNoCall = static_cast<CallId>(-1);

  /// Connects input index `in` to output index `out` (indices into the
  /// network's terminal lists). Returns kNoCall if either terminal is busy/
  /// blocked or no idle path exists. Allocation-free.
  CallId connect(std::uint32_t in, std::uint32_t out);

  /// Routes a whole admission window as multi-source search WAVES instead
  /// of n independent searches (ftcs/search.hpp wave_search). Items resolve
  /// in place; the admitted/rejected books match routing the window
  /// per-request in window order:
  ///   - terminals are tentatively HELD from the round a request enters its
  ///     first wave; a window-mate wanting the same slot waits (defers)
  ///     until the holder settles (-> kTerminal) or rejects (-> slot free),
  ///     exactly the verdict sequential routing would give it;
  ///   - settles commit in window order; a settle that clashes with an
  ///     earlier settle's vertices (labels raced on the shared sweep) is
  ///     DEMOTED into the next wave — only that request re-runs;
  ///   - a wave that settles nothing routes its head request with the
  ///     plain single-pair search (progress guarantee: >= 1 resolution per
  ///     round, so a window of n needs at most n rounds); that solo verdict
  ///     is final (kNoPath on a dead search, like connect()).
  /// Counts one wave_epochs per wave. Allocation-free after construction.
  void connect_wave(WaveItem* items, std::size_t n);

  /// Releases a call and frees its path. Allocation-free.
  void disconnect(CallId call);

  /// Hitless growth: rebinds the router to the grown network `net`, carrying
  /// every live call across. `vmap` maps each old vertex id to its grown id
  /// (the graph::GrownNetwork contract: injective, edge ids stable, terminal
  /// indices prefix-stable). All vertex-indexed state — busy/blocked masks,
  /// the overlay registries, the successor array, call heads — is remapped
  /// through vmap; edge-indexed state extends in place at its stable ids;
  /// terminal slots extend with idle tail entries. Call ids survive
  /// unchanged (slot tables are never reordered), so existing handles stay
  /// valid. QUIESCENT ONLY: no connect/disconnect in flight — the same
  /// contract as kill_vertex(). The new network must outlive the router.
  void grow(const graph::Network& net, std::span<const graph::VertexId> vmap);

  [[nodiscard]] bool input_idle(std::uint32_t in) const;
  [[nodiscard]] bool output_idle(std::uint32_t out) const;
  [[nodiscard]] std::size_t input_count() const { return in_busy_.size(); }
  [[nodiscard]] std::size_t output_count() const { return out_busy_.size(); }
  [[nodiscard]] std::size_t active_calls() const noexcept { return active_; }

  /// Vertices of a call's path, input first (cold path: materializes from
  /// the successor array).
  [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const;
  /// Path length in vertices, O(1).
  [[nodiscard]] std::size_t path_length(CallId call) const {
    return calls_[call].length;
  }

  // ----------------------------------------------------------------------
  // Liveness overlay (runtime fault plane). Unlike the static `blocked` /
  // `blocked_edges` construction masks, these flip while the router serves
  // traffic. Semantics follow §6: the fault unit is the switch (edge); a
  // vertex dies when the fault plane decides its incident switches make it
  // unusable. The overlay folds into the hot-path state — a dead vertex
  // holds its own busy bit, a failed switch its blocked_edges_ bit — so
  // connect() pays nothing for the capability until a fault exists.
  //
  // Preconditions (the svc::Exchange fault plane upholds them):
  //   - kill_vertex(v): no active call traverses v (tear victims down
  //     first); idempotent on an already-dead vertex.
  //   - revive_vertex(v) / repair_edge(e): only meaningful for components
  //     the fault plane killed; statically blocked state is never released.

  /// Marks switch `e` failed: no future path may use it. Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a runtime switch failure. A statically blocked edge stays
  /// blocked. Idempotent.
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` STUCK ON (closed failure, §2): the contact is welded
  /// conducting, so the search crosses it as a zero-cost forced hop — in
  /// both directions — instead of claiming it as a switching element. The
  /// runtime analogue of contraction; the CSR graph is never mutated.
  /// Occupancy still applies to the hop's endpoints (the merged electrical
  /// node carries at most one call). An open-failed or statically blocked
  /// switch cannot be contracted into service: the blocked mask wins.
  /// Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state (the switch is repaired to normal). Calls
  /// that crossed the weld AGAINST the edge direction are now electrically
  /// severed — reconciling them is the fault plane's job
  /// (svc::Exchange::repair sweeps victims). Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and claims its busy bit (unless already blocked/busy).
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex, releasing the busy bit iff the fault plane
  /// claimed it.
  void revive_vertex(graph::VertexId v);

  [[nodiscard]] bool vertex_dead(graph::VertexId v) const {
    return !dead_.empty() && dead_.test(v);
  }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const {
    return !dead_edges_.empty() && dead_edges_.test(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const {
    return !contracted_edges_.empty() && contracted_edges_.test(e);
  }
  /// Usable = neither statically blocked nor runtime-failed.
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const {
    return blocked_edges_.empty() || !blocked_edges_.test(e);
  }

  [[nodiscard]] bool is_busy(graph::VertexId v) const { return busy_.test(v); }
  /// Busy mask as bytes (cold path: expands the packed bitset).
  [[nodiscard]] std::vector<std::uint8_t> busy_mask() const {
    return busy_.to_bytes();
  }
  /// Total vertices traversed by active calls (path-length accounting).
  [[nodiscard]] std::size_t busy_vertices() const noexcept { return busy_count_; }

  [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RouterStats{}; }

 private:
  struct Call {
    std::uint32_t in = 0, out = 0;
    graph::VertexId head = graph::kNoVertex;  // kNoVertex = slot free
    std::uint32_t length = 0;                 // vertices on the path
  };

  /// Sizes the overlay bitsets on the first fault event (off the hot path).
  void ensure_overlay();
  /// Runs the single-pair search and merges its DirStats.
  [[nodiscard]] graph::VertexId search_one(graph::VertexId src,
                                           graph::VertexId dst);
  /// Threads `path` (src..dst order, already all-idle) through the
  /// successor array, marks it busy and allocates the call slot.
  CallId settle_path(std::uint32_t in, std::uint32_t out,
                     const std::vector<graph::VertexId>& path);

  const graph::Network* net_;
  util::Bitset blocked_;        // static vertex faults
  util::Bitset blocked_edges_;  // unusable switches: static | runtime-failed
  util::Bitset busy_;           // blocked | dead | on an active path
  // Liveness overlay registries, sized lazily by the first fault event:
  util::Bitset dead_;           // vertices killed by the fault plane
  util::Bitset fault_claimed_;  // dead vertices whose busy bit WE set (vs
                                // vertices that were already statically busy)
  util::Bitset dead_edges_;     // runtime switch failures (repairable)
  util::Bitset contracted_edges_;  // stuck-on switches: free forced hops
  std::size_t contracted_count_ = 0;  // outstanding welds: gates the
                                      // contraction search variant
  util::Bitset static_edges_;   // construction-time mask, guards repair_edge
  std::vector<std::uint8_t> in_busy_, out_busy_;

  // Bidirectional BFS scratch, sized to vertex_count at construction
  // (shared search implementation: ftcs/search.hpp).
  detail::SearchScratch scratch_;

  // Active-path storage: path_next_[v] = successor of v on its call's path.
  std::vector<graph::VertexId> path_next_;

  std::vector<Call> calls_;        // capacity reserved: min(#in, #out) + 1
  std::vector<CallId> free_slots_; // capacity reserved likewise
  std::size_t active_ = 0;
  std::size_t busy_count_ = 0;
  RouterStats stats_;

  // connect_wave scratch, reserved at construction (window <= call bound):
  std::vector<graph::VertexId> wave_src_, wave_dst_;  // active wave pairs
  std::vector<graph::VertexId> wave_meet_;            // per-request meets
  std::vector<std::uint32_t> wave_total_;             // per-request lengths
  std::vector<std::uint32_t> wave_slot_;   // wave slot -> window item index
  std::vector<graph::VertexId> wave_path_; // settle walk buffer
  std::vector<std::uint8_t> wave_admitted_;  // item holds its terminals
  std::vector<std::uint8_t> in_hold_, out_hold_;  // tentative terminal holds
                                                  // (live only inside
                                                  // connect_wave rounds)
};

}  // namespace ftcs::core
