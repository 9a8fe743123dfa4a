#include "svc/engine.hpp"

namespace ftcs::svc {
namespace {

/// The one adapter: the Engine seam over a core::Router.
class RouterEngine final : public Engine {
 public:
  RouterEngine(const graph::Network& net, unsigned sessions)
      : router_(net, sessions) {}

  [[nodiscard]] unsigned sessions() const noexcept override {
    return router_.session_count();
  }

  Connect connect(unsigned session, std::uint32_t in,
                  std::uint32_t out) override {
    auto& s = router_.session(session);
    // The router classifies every rejection exactly once in its
    // RouterStats block, so the terminal counter read around the call is
    // the authoritative answer: no second bookkeeping to drift.
    const std::uint64_t terminal = s.stats().rejected_terminal;
    const auto call = s.connect(in, out);
    if (call == core::Router::kNoCall)
      return {kNoRawCall,
              s.stats().rejected_terminal > terminal
                  ? RejectReason::kTerminalBusy
                  : RejectReason::kNoPath,
              0};
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
  core::Router router_;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                    EngineOptions opts) {
  return std::make_unique<RouterEngine>(net, opts.sessions);
}

}  // namespace ftcs::svc
