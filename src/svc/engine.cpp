#include "svc/engine.hpp"

#include <utility>

namespace ftcs::svc {
namespace {

/// Which rejection counter a failed connect() bumped. The router already
/// classifies every rejection exactly once in its RouterStats block, so
/// diffing the counters around the call is the authoritative answer — no
/// second bookkeeping that could drift from the engine's. Only the two
/// discriminating counters are snapshotted (this sits on the connect hot
/// path).
struct RejectSnapshot {
  std::uint64_t terminal, contention;
  explicit RejectSnapshot(const core::RouterStats& s) noexcept
      : terminal(s.rejected_terminal), contention(s.rejected_contention) {}
  [[nodiscard]] RejectReason classify(const core::RouterStats& after)
      const noexcept {
    if (after.rejected_terminal > terminal) return RejectReason::kTerminalBusy;
    if (after.rejected_contention > contention) return RejectReason::kContention;
    return RejectReason::kNoPath;
  }
};

/// The one adapter: the Engine seam over a core::Router on either store.
/// Backend::kGreedy picks the solo store, Backend::kConcurrent the shared
/// one; everything else is the router's.
template <class Store>
class RouterEngine final : public Engine {
 public:
  template <class... Args>
  explicit RouterEngine(const graph::Network& net, Args&&... args)
      : router_(net, std::forward<Args>(args)...) {}

  [[nodiscard]] unsigned sessions() const noexcept override {
    return router_.session_count();
  }

  Connect connect(unsigned session, std::uint32_t in,
                  std::uint32_t out) override {
    auto& s = router_.session(session);
    const RejectSnapshot before(s.stats());
    const auto call = s.connect(in, out);
    if (call == core::Router<Store>::kNoCall)
      return {kNoRawCall, before.classify(s.stats()), 0};
    return {call, RejectReason::kNone,
            static_cast<std::uint32_t>(s.path_length(call))};
  }

  Connect settle(unsigned session, std::uint32_t in,
                 std::uint32_t out) override {
    auto& s = router_.session(session);
    const RejectSnapshot before(s.stats());
    const auto call = s.settle(in, out);
    if (call == core::Router<Store>::kNoCall)
      return {kNoRawCall, before.classify(s.stats()), 0};
    return {call, RejectReason::kNone,
            static_cast<std::uint32_t>(s.path_length(call))};
  }

  void disconnect(unsigned session, RawCall call) override {
    router_.session(session).disconnect(call);
  }

  [[nodiscard]] std::span<const graph::VertexId> path_of(
      unsigned session, RawCall call) const override {
    return router_.session(session).path(call);
  }

  [[nodiscard]] core::RouterStats stats() const override {
    return router_.stats();
  }
  void reset_stats() override { router_.reset_stats(); }
  [[nodiscard]] std::size_t active_calls() const override {
    return router_.active_calls();
  }
  [[nodiscard]] std::size_t busy_vertices() const override {
    return router_.busy_vertices();
  }
  [[nodiscard]] bool input_idle(std::uint32_t in) const override {
    return router_.input_idle(in);
  }
  [[nodiscard]] bool output_idle(std::uint32_t out) const override {
    return router_.output_idle(out);
  }

  void fail_edge(graph::EdgeId e) override { router_.fail_edge(e); }
  void repair_edge(graph::EdgeId e) override { router_.repair_edge(e); }
  void contract_edge(graph::EdgeId e) override { router_.contract_edge(e); }
  void uncontract_edge(graph::EdgeId e) override {
    router_.uncontract_edge(e);
  }
  void kill_vertex(graph::VertexId v) override { router_.kill_vertex(v); }
  void revive_vertex(graph::VertexId v) override { router_.revive_vertex(v); }
  [[nodiscard]] bool edge_failed(graph::EdgeId e) const override {
    return router_.edge_failed(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const override {
    return router_.edge_contracted(e);
  }
  [[nodiscard]] std::size_t failed_edge_count() const override {
    return router_.failed_edge_count();
  }
  [[nodiscard]] std::size_t contracted_edge_count() const override {
    return router_.contracted_edge_count();
  }
  [[nodiscard]] core::CallRef call_at(graph::VertexId v) override {
    return router_.call_at(v);
  }
  [[nodiscard]] bool path_carried(
      std::span<const graph::VertexId> path) const override {
    return router_.path_carried(path);
  }

  void grow(const graph::Network& net) override { router_.grow(net); }

 private:
  core::Router<Store> router_;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                    EngineOptions opts) {
  if (opts.backend == Backend::kGreedy)
    return std::make_unique<RouterEngine<core::SoloStore>>(net);
  return std::make_unique<RouterEngine<core::SharedStore>>(net, opts.sessions);
}

}  // namespace ftcs::svc
