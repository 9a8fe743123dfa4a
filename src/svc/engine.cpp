#include "svc/engine.hpp"

#include "ftcs/concurrent_router.hpp"

namespace ftcs::svc {
namespace {

/// Which rejection counter a failed connect() bumped. Both routers already
/// classify every rejection exactly once in their RouterStats block, so
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

/// Wave verdicts are reported per-request by the routers (no counter
/// diffing needed — a batch bumps many counters at once, so RejectSnapshot
/// cannot attribute them).
RejectReason to_reject(core::WaveReject r) noexcept {
  switch (r) {
    case core::WaveReject::kTerminal:
      return RejectReason::kTerminalBusy;
    case core::WaveReject::kContention:
      return RejectReason::kContention;
    case core::WaveReject::kNoPath:
      return RejectReason::kNoPath;
    case core::WaveReject::kNone:
      break;
  }
  return RejectReason::kNone;
}

class GreedyEngine final : public Engine {
 public:
  GreedyEngine(const graph::Network& net, std::vector<std::uint8_t> blocked,
               std::vector<std::uint8_t> blocked_edges)
      : router_(net, std::move(blocked), std::move(blocked_edges)) {}

  [[nodiscard]] unsigned sessions() const noexcept override { return 1; }

  Connect connect(unsigned, std::uint32_t in, std::uint32_t out) override {
    const RejectSnapshot before(router_.stats());
    const auto call = router_.connect(in, out);
    if (call == core::GreedyRouter::kNoCall)
      return {kNoRawCall, before.classify(router_.stats()), 0};
    return {call, RejectReason::kNone,
            static_cast<std::uint32_t>(router_.path_length(call))};
  }

  void connect_wave(unsigned, WaveEntry* entries, std::size_t n) override {
    wave_buf_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      wave_buf_[i].in = entries[i].in;
      wave_buf_[i].out = entries[i].out;
    }
    router_.connect_wave(wave_buf_.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const core::WaveItem& it = wave_buf_[i];
      entries[i].result =
          it.call == core::GreedyRouter::kNoCall
              ? Connect{kNoRawCall, to_reject(it.reject), 0}
              : Connect{it.call, RejectReason::kNone, it.path_length};
    }
  }

  void disconnect(unsigned, RawCall call) override { router_.disconnect(call); }

  [[nodiscard]] std::vector<graph::VertexId> path_of(unsigned,
                                                     RawCall call) override {
    return router_.path_of(call);
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
  [[nodiscard]] bool vertex_dead(graph::VertexId v) const override {
    return router_.vertex_dead(v);
  }
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const override {
    return router_.edge_usable(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const override {
    return router_.edge_contracted(e);
  }

  void grow(const graph::Network& net,
            std::span<const graph::VertexId> vmap) override {
    router_.grow(net, vmap);
  }

 private:
  core::GreedyRouter router_;
  std::vector<core::WaveItem> wave_buf_;  // single session: no sharing
};

class ConcurrentEngine final : public Engine {
 public:
  ConcurrentEngine(const graph::Network& net, unsigned sessions,
                   std::vector<std::uint8_t> blocked,
                   std::vector<std::uint8_t> blocked_edges)
      : router_(net, sessions, std::move(blocked), std::move(blocked_edges)),
        wave_buf_(router_.worker_count()) {}

  [[nodiscard]] unsigned sessions() const noexcept override {
    return router_.worker_count();
  }

  Connect connect(unsigned session, std::uint32_t in,
                  std::uint32_t out) override {
    auto& worker = router_.worker(session);
    const RejectSnapshot before(worker.stats());
    const auto call = worker.connect(in, out);
    if (call == core::ConcurrentRouter::kNoCall)
      return {kNoRawCall, before.classify(worker.stats()), 0};
    return {call, RejectReason::kNone,
            static_cast<std::uint32_t>(worker.path_length(call))};
  }

  void connect_wave(unsigned session, WaveEntry* entries,
                    std::size_t n) override {
    auto& buf = wave_buf_[session].items;  // per-session: run concurrently
    buf.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i].in = entries[i].in;
      buf[i].out = entries[i].out;
    }
    router_.worker(session).connect_wave(buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const core::WaveItem& it = buf[i];
      entries[i].result =
          it.call == core::ConcurrentRouter::kNoCall
              ? Connect{kNoRawCall, to_reject(it.reject), 0}
              : Connect{it.call, RejectReason::kNone, it.path_length};
    }
  }

  void disconnect(unsigned session, RawCall call) override {
    router_.worker(session).disconnect(call);
  }

  [[nodiscard]] std::vector<graph::VertexId> path_of(unsigned session,
                                                     RawCall call) override {
    return router_.worker(session).path_of(call);
  }

  [[nodiscard]] core::RouterStats stats() const override {
    return router_.stats();
  }
  void reset_stats() override {
    for (unsigned w = 0; w < router_.worker_count(); ++w)
      router_.worker(w).reset_stats();
  }
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
  [[nodiscard]] bool vertex_dead(graph::VertexId v) const override {
    return router_.vertex_dead(v);
  }
  [[nodiscard]] bool edge_usable(graph::EdgeId e) const override {
    return router_.edge_usable(e);
  }
  [[nodiscard]] bool edge_contracted(graph::EdgeId e) const override {
    return router_.edge_contracted(e);
  }

  void grow(const graph::Network& net,
            std::span<const graph::VertexId> vmap) override {
    router_.grow(net, vmap);
  }

 private:
  // One wave buffer per session, cache-line aligned: sessions resize and
  // fill their buffers concurrently during drain, and unpadded vector
  // headers would false-share lines across neighbouring sessions.
  struct alignas(util::kCacheLineBytes) SessionWaveBuf {
    std::vector<core::WaveItem> items;
  };

  core::ConcurrentRouter router_;
  std::vector<SessionWaveBuf> wave_buf_;  // one per session
};

}  // namespace

std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                    EngineOptions opts) {
  if (opts.backend == Backend::kGreedy)
    return std::make_unique<GreedyEngine>(net, std::move(opts.blocked),
                                          std::move(opts.blocked_edges));
  return std::make_unique<ConcurrentEngine>(
      net, opts.sessions == 0 ? 1 : opts.sessions, std::move(opts.blocked),
      std::move(opts.blocked_edges));
}

}  // namespace ftcs::svc
