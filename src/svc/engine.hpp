// Routing backend behind the Exchange facade.
//
// The low-level router, core::Router (ftcs/router.hpp), stays public;
// Engine is the narrow seam the Exchange serves calls through: a virtual
// base over one adapter. An Engine speaks sessions, the router's shards
// (per-session call tables over one busy state); every entry is serialized,
// one thread at a time. Rejections come back as the shared
// svc::RejectReason — the adapter classifies them from the router's
// RouterStats counters, so there is exactly one source of truth for what a
// rejection was.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "ftcs/router.hpp"
#include "graph/digraph.hpp"
#include "svc/call.hpp"

namespace ftcs::svc {

class Engine {
 public:
  /// Raw per-session call id of the underlying router; reused after
  /// disconnect (which is why the Exchange wraps it in a generation-tagged
  /// CallId).
  using RawCall = std::uint32_t;
  static constexpr RawCall kNoRawCall = static_cast<RawCall>(-1);

  struct Connect {
    RawCall call = kNoRawCall;
    RejectReason reject = RejectReason::kNone;
    std::uint32_t path_length = 0;
  };

  virtual ~Engine() = default;

  [[nodiscard]] virtual unsigned sessions() const noexcept = 0;
  /// Routes in->out on `session`. reject is kNone, kTerminalBusy or
  /// kNoPath.
  virtual Connect connect(unsigned session, std::uint32_t in,
                          std::uint32_t out) = 0;
  virtual void disconnect(unsigned session, RawCall call) = 0;
  /// The call's vertices, input first: a view of the router's record,
  /// valid until `session`'s next connect (or grow()).
  [[nodiscard]] virtual std::span<const graph::VertexId> path_of(
      unsigned session, RawCall call) const = 0;

  // Aggregates over every session.
  [[nodiscard]] virtual core::RouterStats stats() const = 0;
  virtual void reset_stats() = 0;
  [[nodiscard]] virtual std::size_t active_calls() const = 0;
  [[nodiscard]] virtual std::size_t busy_vertices() const = 0;

  [[nodiscard]] virtual bool input_idle(std::uint32_t in) const = 0;
  [[nodiscard]] virtual bool output_idle(std::uint32_t out) const = 0;

  // Liveness overlay (runtime fault plane) — forwarded to the router's
  // overlay primitives.
  virtual void fail_edge(graph::EdgeId e) = 0;
  virtual void repair_edge(graph::EdgeId e) = 0;
  /// Stuck-on (closed failure): the switch becomes a weld conducting both
  /// ways; uncontract restores it to a normal switch.
  virtual void contract_edge(graph::EdgeId e) = 0;
  virtual void uncontract_edge(graph::EdgeId e) = 0;
  virtual void kill_vertex(graph::VertexId v) = 0;
  virtual void revive_vertex(graph::VertexId v) = 0;
  /// The overlay's switch state, read back: the fault plane keeps no copy.
  [[nodiscard]] virtual bool edge_failed(graph::EdgeId e) const = 0;
  [[nodiscard]] virtual bool edge_contracted(graph::EdgeId e) const = 0;
  [[nodiscard]] virtual std::size_t failed_edge_count() const = 0;
  [[nodiscard]] virtual std::size_t contracted_edge_count() const = 0;
  /// The call whose path holds vertex `v`, as {session, raw}; raw ==
  /// kNoRawCall when `v` carries none (core::Router::call_at): the fault
  /// plane's candidate lookup.
  [[nodiscard]] virtual core::CallRef call_at(graph::VertexId v) = 0;
  /// True iff the overlay still carries every hop of `path` (the router's
  /// one hop rule, core::Router::path_carried).
  [[nodiscard]] virtual bool path_carried(
      std::span<const graph::VertexId> path) const = 0;

  /// Hitless growth: rebinds the backend to `net`, an append-only
  /// extension of its network (core::Router::grow: every live call, path
  /// and raw call id survives as it is). The new network must outlive the
  /// engine.
  virtual void grow(const graph::Network& net) = 0;
};

/// Engine construction knobs. Defaults build a one-session engine over a
/// healthy network.
struct EngineOptions {
  /// Session count (router shards); 0 means 1.
  unsigned sessions = 1;
};

/// Builds the backend over `net` (which must outlive the engine).
[[nodiscard]] std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                                  EngineOptions opts);

}  // namespace ftcs::svc
