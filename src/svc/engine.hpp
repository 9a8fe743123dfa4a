// Pluggable routing backend behind the Exchange facade.
//
// Both low-level routers stay public (GreedyRouter for one thread,
// ConcurrentRouter for sharded sessions); Engine is the narrow seam the
// Exchange serves calls through, selected at construction. An Engine speaks
// sessions: connect/disconnect on session s must be externally serialized
// per session, distinct sessions may run concurrently (the greedy backend
// has exactly one session). Rejections come back as the shared
// svc::RejectReason — the adapters classify them from the routers'
// RouterStats counters, so there is exactly one source of truth for what a
// rejection was.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ftcs/router.hpp"
#include "graph/digraph.hpp"
#include "svc/call.hpp"

namespace ftcs::svc {

enum class Backend : std::uint8_t {
  kGreedy,      // single GreedyRouter session (fastest for one thread)
  kConcurrent,  // N ConcurrentRouter::Worker sessions, CAS-claimed paths
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
  virtual void disconnect(unsigned session, RawCall call) = 0;
  [[nodiscard]] virtual std::vector<graph::VertexId> path_of(
      unsigned session, RawCall call) = 0;

  // Quiescent aggregates (exact when no connects/disconnects are in flight).
  [[nodiscard]] virtual core::RouterStats stats() const = 0;
  virtual void reset_stats() = 0;
  [[nodiscard]] virtual std::size_t active_calls() const = 0;
  [[nodiscard]] virtual std::size_t busy_vertices() const = 0;

  [[nodiscard]] virtual bool input_idle(std::uint32_t in) const = 0;
  [[nodiscard]] virtual bool output_idle(std::uint32_t out) const = 0;

  // Liveness overlay (runtime fault plane) — forwarded to the backing
  // router's overlay primitives; see their headers for the mutation
  // contracts (Exchange::inject/repair uphold them by holding every
  // session, like drain()).
  virtual void fail_edge(graph::EdgeId e) = 0;
  virtual void repair_edge(graph::EdgeId e) = 0;
  /// Stuck-on (closed failure): the switch becomes a weld conducting both
  /// ways; uncontract restores it to a normal switch.
  virtual void contract_edge(graph::EdgeId e) = 0;
  virtual void uncontract_edge(graph::EdgeId e) = 0;
  virtual void kill_vertex(graph::VertexId v) = 0;
  virtual void revive_vertex(graph::VertexId v) = 0;
  [[nodiscard]] virtual bool vertex_dead(graph::VertexId v) const = 0;
  [[nodiscard]] virtual bool edge_usable(graph::EdgeId e) const = 0;
  [[nodiscard]] virtual bool edge_contracted(graph::EdgeId e) const = 0;

  /// Hitless growth: rebinds the backend to the grown network, remapping
  /// every live call and all vertex/edge-indexed state through `vmap` (see
  /// the routers' grow() contracts — raw call ids survive). QUIESCENT ONLY:
  /// the caller holds every session, as for drain()/kill_vertex. The new
  /// network must outlive the engine.
  virtual void grow(const graph::Network& net,
                    std::span<const graph::VertexId> vmap) = 0;
};

/// Backend construction knobs, gathered in one options struct so new knobs
/// compose without a positional overload. Defaults build a one-session
/// greedy backend with no static faults.
struct EngineOptions {
  Backend backend = Backend::kGreedy;
  /// Session count; clamped to 1 for the greedy backend, and 0 means 1.
  unsigned sessions = 1;
  /// Static fault masks, consumed by the backend (as in the routers).
  std::vector<std::uint8_t> blocked;
  std::vector<std::uint8_t> blocked_edges;
};

/// Builds the backend over `net` (which must outlive the engine).
[[nodiscard]] std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                                  EngineOptions opts);

}  // namespace ftcs::svc
