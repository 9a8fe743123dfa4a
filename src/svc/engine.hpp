// Pluggable routing backend behind the Exchange facade.
//
// The low-level router, core::Router<Store> (ftcs/router.hpp), stays public;
// Engine is the narrow seam the Exchange serves calls through: a virtual
// base over one templated adapter, instantiated for the router's two busy
// stores and selected at construction by Backend. An Engine speaks
// sessions: connect/disconnect on session s must be externally serialized
// per session, distinct sessions may run concurrently (the greedy backend
// has exactly one session). settle() is the owner's entry: its caller
// holds every session, as for the fault plane's mutators. Rejections come
// back as the shared
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

enum class Backend : std::uint8_t {
  kGreedy,      // one session on the solo store (fastest for one thread)
  kConcurrent,  // N sessions on the shared store: CAS-claimed connects
};

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
  /// Routes in->out on `session`. reject is kNone, kTerminalBusy, kNoPath
  /// or kContention.
  virtual Connect connect(unsigned session, std::uint32_t in,
                          std::uint32_t out) = 0;
  /// QUIESCENT ONLY (the caller holds every session): routes in->out on
  /// `session` with plain writes (core::Router's settle). reject is kNone,
  /// kTerminalBusy or kNoPath.
  virtual Connect settle(unsigned session, std::uint32_t in,
                         std::uint32_t out) = 0;
  virtual void disconnect(unsigned session, RawCall call) = 0;
  /// The call's vertices, input first: a view of the router's record,
  /// valid until `session`'s next connect (or grow()).
  [[nodiscard]] virtual std::span<const graph::VertexId> path_of(
      unsigned session, RawCall call) const = 0;

  // Quiescent aggregates (exact when no connects/disconnects are in flight).
  [[nodiscard]] virtual core::RouterStats stats() const = 0;
  virtual void reset_stats() = 0;
  [[nodiscard]] virtual std::size_t active_calls() const = 0;
  [[nodiscard]] virtual std::size_t busy_vertices() const = 0;

  [[nodiscard]] virtual bool input_idle(std::uint32_t in) const = 0;
  [[nodiscard]] virtual bool output_idle(std::uint32_t out) const = 0;

  // Liveness overlay (runtime fault plane) — forwarded to the router's
  // overlay primitives. Every mutator is QUIESCENT ONLY (ftcs/router.hpp):
  // no call may be in flight on any session. Exchange::inject/repair uphold
  // that by holding every session, like drain().
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
  /// kNoRawCall when `v` carries none (core::Router::call_at). QUIESCENT
  /// ONLY, like kill_vertex: the fault plane's candidate lookup.
  [[nodiscard]] virtual core::CallRef call_at(graph::VertexId v) = 0;
  /// True iff the overlay still carries every hop of `path` (the router's
  /// one hop rule, core::Router::path_carried).
  [[nodiscard]] virtual bool path_carried(
      std::span<const graph::VertexId> path) const = 0;

  /// Hitless growth: rebinds the backend to `net`, an append-only
  /// extension of its network (core::Router::grow: every live call, path
  /// and raw call id survives as it is). QUIESCENT ONLY: the caller holds
  /// every session, as for drain()/kill_vertex. The new network must
  /// outlive the engine.
  virtual void grow(const graph::Network& net) = 0;
};

/// Backend construction knobs, gathered in one options struct so new knobs
/// compose without a positional overload. Defaults build a one-session
/// greedy backend over a healthy network.
struct EngineOptions {
  Backend backend = Backend::kGreedy;
  /// Session count; clamped to 1 for the greedy backend, and 0 means 1.
  unsigned sessions = 1;
};

/// Builds the backend over `net` (which must outlive the engine).
[[nodiscard]] std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                                  EngineOptions opts);

}  // namespace ftcs::svc
