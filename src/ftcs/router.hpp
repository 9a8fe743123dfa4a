// Greedy circuit-switching router (§4, third observation: "because the
// contained network is strictly nonblocking, routing can be performed by a
// greedy application of a standard path-finding algorithm").
//
// ONE router, core::Router, serves a network's calls. The router owns the
// network's busy state (plain util::Bitset busy bits, byte terminal slots),
// its one fault state (the liveness overlay below), its one search scratch,
// and its one call table, path-record arena and stats block: a call is
// named by its slot in that table. Every entry is serialized: one thread at
// a time drives the router (svc::Exchange holds that contract for its
// callers).
//
// A connect settles the first idle path a depth-first search finds, its
// first hop started in a plane chosen by the output (ftcs/search.hpp); on a
// strictly nonblocking (surviving) network this never fails for a request
// between idle terminals. The path is shortest wherever every input->output
// path has the same length (Cantor, crossbar, the §6 FT network), not in
// general.
//
// connect(in, out):
//   1. TERMINAL CHECK — a dead or busy terminal is rejected
//      (rejected_terminal). A terminal vertex occupied as an intermediate
//      hop of another call cannot anchor a new path (a vertex carries at
//      most one call: two calls would share its busy bit, and the first
//      hangup would free it under the second) → rejected_no_path.
//   2. SEARCH — the reach-guided depth-first search (ftcs/search.hpp) on
//      the router's scratch, guided by the router's one ReachIndex
//      (rebuilt by grow()): its cones filter the children, and its plane
//      table picks the slot the first hop starts at
//      (ReachIndex::first_hop(in, out)). No idle path → rejected_no_path.
//   3. SETTLE — the terminal slots and the path's busy bits are set, the
//      path is copied into one record in the record store, the call table
//      names the record, and, once the owner map exists, each path vertex's
//      entry names the call (see call_at). disconnect() reads the record
//      back and resets its busy bits: no per-vertex store besides the bits.
//
// Liveness overlay: the router's only fault state, whether the faults come
// from a sampled fault::FaultInstance applied once or from the runtime
// fault plane. Semantics follow §6: the fault unit is the switch (edge); a
// vertex dies when the caller decides its incident switches make it
// unusable. A dead vertex holds its own busy bit, so searches avoid it
// with no extra state. A failed switch is a
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
//   - kill_vertex needs the calls through the vertex torn down first.
//     svc::Exchange flips a switch, then asks call_at() for the calls
//     through the switch's two endpoints and tears down those
//     path_carried() rejects (a weld's repair severs calls that crossed it
//     against its direction).
//   - A failed switch beats a weld: a switch both failed and contracted
//     carries nothing.
//
// Hot-path design: connect() performs NO heap allocation.
//   - visited state is one bit per vertex, zeroed word by word by the
//     search that set it; the search stack (vertex_count frames, allocated
//     untouched) is the found path, which the settle reads in place; each
//     frame prefetches its children's reach-set ids and CSR offset rows;
//   - busy / overlay vertex and edge state live in packed bitsets, 64
//     vertices per cache word;
//   - the router keeps its calls' paths as [call id, capacity,
//     vertices...] records in one bump arena of V + 2 x (max calls) words:
//     a settle writes one record (a single copy of the path) and a hangup
//     reads it back, one or two cache lines, with no pointer chase. A freed
//     slot keeps its record, and free slots are reused newest first, so a
//     settle usually rewrites a record still in cache; only a path longer
//     than the slot's record is appended. A full arena compacts its live
//     records in address order, trimmed to their paths; then the new path
//     always fits, because the live paths and the new one are
//     vertex-disjoint, so together they hold at most V vertices. Weld
//     reverse hops make paths longer than the stage count, so no fixed
//     stride per call would do;
//   - the vertex -> call owner map behind call_at() (4-byte entries, one
//     call slot each) exists only once the fault plane has asked: a router
//     that never faults neither builds nor writes it.
//
// The Exchange's batched plane commits its windows through connect(), one
// request at a time in window order (svc/README.md, "Batched drain").
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ftcs/reach_index.hpp"
#include "ftcs/search.hpp"
#include "graph/digraph.hpp"
#include "util/bitset.hpp"
#include "util/stat_fields.hpp"

namespace ftcs::core {

/// Counter block filled by the router; reset with reset_stats().
/// Mergeable: operator+= aggregates per-exchange blocks (svc::Federation)
/// and per-network blocks (bench_routing) into one summary; operator-=
/// takes before/after deltas. Every counter is a row of fields()
/// (util/stat_fields.hpp).
struct RouterStats {
  std::uint64_t connect_calls = 0;     // connect() invocations
  std::uint64_t accepted = 0;          // calls that settled a path
  std::uint64_t rejected_terminal = 0; // busy/dead endpoint, no search run
  std::uint64_t rejected_no_path = 0;  // search exhausted without reaching dst
  std::uint64_t disconnects = 0;
  std::uint64_t vertices_visited = 0;  // vertices marked across all searches
  std::uint64_t path_vertices = 0;     // total length of settled paths
  // RETIRED, always 0 and outside the table (never merged or exported): the
  // multi-source wave search and the bottom-up BFS sweep they counted are
  // gone, and so is the CAS claim whose lost races claim_conflicts counted.
  // Kept because the exchange benchmark still reads them.
  std::uint64_t claim_conflicts = 0;
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
                  (RouterStats::fields().size() + 3) * sizeof(std::uint64_t),
              "every RouterStats counter is a fields() row (3 retired)");

class Router {
 public:
  /// Call handle, the call's slot in the call table; valid until
  /// disconnect.
  using CallId = std::uint32_t;
  static constexpr CallId kNoCall = static_cast<CallId>(-1);

  /// Router over a healthy network; faults are applied through the
  /// liveness overlay (kill_vertex, fail_edge, contract_edge). The network
  /// must outlive the router. All scratch is allocated here.
  explicit Router(const graph::Network& net);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes in->out (header comment: terminal check, search, settle).
  /// Returns kNoCall on a busy or dead terminal or no idle path (the
  /// stats counters say which). Allocation-free.
  CallId connect(std::uint32_t in, std::uint32_t out);
  /// Releases a live call. Allocation-free.
  void disconnect(CallId call);

  /// Vertices of a call's path, input first: a view of the call's record,
  /// valid until the next connect (which may compact the record store) or
  /// grow().
  [[nodiscard]] std::span<const graph::VertexId> path(CallId call) const {
    const Call& c = calls_->table[call];
    return {calls_->records.data() + c.at, c.length};
  }
  /// The same, copied (cold path).
  [[nodiscard]] std::vector<graph::VertexId> path_of(CallId call) const {
    const auto p = path(call);
    return {p.begin(), p.end()};
  }
  /// Path length in vertices, O(1).
  [[nodiscard]] std::size_t path_length(CallId call) const {
    return calls_->table[call].length;
  }
  /// Ids of the active calls (cold path).
  [[nodiscard]] std::vector<CallId> active_call_ids() const;

  /// Hitless growth: rebinds the router to the grown network `net`,
  /// carrying every live call across. `net` must extend the current
  /// network append-only (graph::NetworkDelta): old vertex ids, edge ids
  /// and terminal indices keep their meaning. Vertex-, edge- and
  /// terminal-indexed state extends at the same ids with idle, healthy
  /// tail entries; path records and the call table are untouched, so
  /// every live path and handle stays valid as it is. The search scratch
  /// and the record store are rebuilt here at the grown size. The new
  /// network must outlive the router.
  void grow(const graph::Network& net);

  // ---------------------------------------------------- liveness overlay

  /// Marks switch `e` failed: no later path may use it. Idempotent.
  void fail_edge(graph::EdgeId e);
  /// Clears a switch failure. Idempotent.
  void repair_edge(graph::EdgeId e);
  /// Marks switch `e` STUCK ON (closed failure): the search may cross it in
  /// both directions, and out-of-cone children that reach its head stay in
  /// the search (one walk over the head's static ancestors). A failed
  /// switch cannot be contracted into service. Idempotent.
  void contract_edge(graph::EdgeId e);
  /// Clears a stuck-on state (and walks the head's ancestors back down).
  /// Calls that crossed the weld AGAINST the edge direction are now severed
  /// — the fault plane reaps them. Idempotent.
  void uncontract_edge(graph::EdgeId e);
  /// Marks `v` dead and takes its busy bit. A dead terminal reads busy and
  /// is refused at admission (rejected_terminal). No active call may run
  /// through v. Idempotent.
  void kill_vertex(graph::VertexId v);
  /// Revives a dead vertex and releases its busy bit. Idempotent.
  void revive_vertex(graph::VertexId v);
  /// The call whose path holds `v` (a vertex carries at most one), or
  /// kNoCall. Reads v's owner-map entry and confirms that the
  /// named call is live and its record holds v: O(path length). The first
  /// query builds the map from the live records; from then on every settle
  /// writes its path's entries, so a router never asked allocates and
  /// writes nothing for it.
  [[nodiscard]] CallId call_at(graph::VertexId v);

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
  [[nodiscard]] std::uint32_t weld_reach(graph::VertexId v) const {
    return weld_reach_.empty() ? 0 : weld_reach_[v];
  }
  /// The hop rule: true iff every hop of `path` is carried by a forward
  /// switch that has not failed, or by a weld that has not failed crossed
  /// against its direction. The fault plane's victim check asks it.
  [[nodiscard]] bool path_carried(std::span<const graph::VertexId> path) const;

  /// Idle = no call holds the terminal and it is not dead.
  [[nodiscard]] bool input_idle(std::uint32_t in) const {
    return !in_busy_[in] && !dead_.test(net_->inputs[in]);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const {
    return !out_busy_[out] && !dead_.test(net_->outputs[out]);
  }
  [[nodiscard]] bool is_busy(graph::VertexId v) const { return busy_.test(v); }
  /// Busy mask as bytes (cold path: expands the packed bitset).
  [[nodiscard]] std::vector<std::uint8_t> busy_mask() const {
    return busy_.to_bytes();
  }

  [[nodiscard]] const RouterStats& stats() const noexcept {
    return calls_->stats;
  }
  void reset_stats() noexcept { calls_->stats = RouterStats{}; }
  [[nodiscard]] std::size_t active_calls() const noexcept {
    return calls_->active;
  }
  /// Total vertices held by the active calls.
  [[nodiscard]] std::size_t busy_vertices() const noexcept {
    return calls_->busy_count;
  }

 private:
  struct Call {
    static constexpr std::uint32_t kNoRecord = static_cast<std::uint32_t>(-1);
    std::uint32_t in = 0, out = 0;
    // The path's first vertex in the record store; a free slot keeps its
    // last record for reuse, or kNoRecord.
    std::uint32_t at = kNoRecord;
    std::uint32_t length = 0;  // vertices on the path; 0 = slot free
  };

  /// Builds the record store and the call table reserves at the current
  /// network size; the construction and grow() call it. Live records are
  /// kept.
  void prepare_calls();
  /// Step 2 for in->out on the scratch: true iff it found an idle path
  /// (then the scratch's path()).
  bool find(std::uint32_t in, std::uint32_t out);
  /// Step 3 for the path the search left in the scratch, whose vertices
  /// and terminal slots connect() has taken: the call's slot and record.
  CallId record(std::uint32_t in, std::uint32_t out);
  /// Writes the scratch's path as call `id`'s record: into the slot's
  /// last record when it is long enough, else appended (compacting first
  /// when the store is full). Returns where the vertices start.
  std::uint32_t write_record(CallId id);
  /// Moves the live records to the front of the store, in address order,
  /// each trimmed to its path, and drops every other record.
  void compact();
  /// Sizes the weld-ancestor counts and the walk's flags at the network's
  /// vertex count, all zero.
  void clear_weld_counts();
  /// Adds `delta` to the weld-ancestor count of `head` and of every vertex
  /// that reaches it in the static graph, skipping the vertices that reach
  /// every output: one backward walk over in-edges.
  void count_weld(graph::VertexId head, int delta);
  /// Points owner_[v] at call `id` for every vertex of the call's path.
  void own_path(CallId id);
  /// Sizes the owner map at the network's vertex count and fills it from
  /// the live records.
  void build_owner_map();

  const graph::Network* net_;
  util::Bitset busy_;  // dead | on an active path
  // The liveness overlay.
  util::Bitset dead_edges_;        // failed switches
  util::Bitset contracted_edges_;  // stuck-on switches: two-way hops
  std::size_t failed_ = 0, welded_ = 0;  // outstanding: the overlay gates
  util::Bitset dead_;                    // killed vertices
  std::vector<std::uint8_t> in_busy_, out_busy_;  // terminal slots, bytes
  // Owner map: owner_[v] = the last call settled through v, or kNoCall;
  // stale once that call hangs up (call_at() checks). Empty until the
  // first call_at().
  std::vector<std::uint32_t> owner_;
  ReachIndex reach_;  // search guide, read-only between grow()s
  // Weld-ancestor counts (weld_reach()), and the walk's visited flags and
  // queue; all empty until the first contract_edge.
  std::vector<std::uint32_t> weld_reach_;
  std::vector<std::uint8_t> walk_seen_;
  std::vector<graph::VertexId> walk_queue_;
  detail::SearchScratch scratch_;  // the one search's
  // The call state: one separately allocated, cache-line aligned block,
  // allocated by the constructor between the terminal slots and the search
  // scratch. Held by value (with or without alignas(64) on the Router), it
  // shifts the heap layout of a torn down and rebuilt cantor-k9 exchange
  // so that glibc trims the freed heap on every rebuild and the next build
  // re-faults it: perfbench's search-k9 setup_s read +33% and +38%, all of
  // it page faults in the network build.
  struct alignas(64) Calls {
    // Record store: [call id, capacity, vertices...] per record, bump
    // allocated from top. A record belongs to its slot while the slot
    // points at it (a slot that outgrew a record left it behind), and is
    // live while that slot is.
    std::vector<std::uint32_t> records;
    std::uint32_t top = 0;
    std::vector<Call> table;
    std::vector<CallId> free_slots;
    std::size_t active = 0;
    std::size_t busy_count = 0;
    RouterStats stats;
  };
  std::unique_ptr<Calls> calls_;
};

}  // namespace ftcs::core
