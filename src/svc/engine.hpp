// RETIRED: svc::Exchange calls core::Router (ftcs/router.hpp) directly. This
// header keeps only the names the exchange benchmark's search-k9 replay
// compiles against; nothing else may include it (CI checks).
#pragma once

#include <cstdint>
#include <memory>

#include "ftcs/router.hpp"
#include "svc/call.hpp"

namespace ftcs::svc {

/// RETIRED: one core::Router with the old seam's connect verdicts.
class Engine {
 public:
  using RawCall = core::Router::CallId;
  static constexpr RawCall kNoRawCall = core::Router::kNoCall;
  struct Connect {
    RawCall call = kNoRawCall;
    RejectReason reject = RejectReason::kNone;
    std::uint32_t path_length = 0;
  };
  explicit Engine(const graph::Network& net) : r_(net) {}
  // The session index is RETIRED and ignored: the router has one call table.
  Connect connect(unsigned, std::uint32_t in, std::uint32_t out) {
    // RETIRED copy of Exchange::outcome_of's classification.
    const std::uint64_t terminal = r_.stats().rejected_terminal;
    const RawCall c = r_.connect(in, out);
    if (c != kNoRawCall)
      return {c, RejectReason::kNone, std::uint32_t(r_.path_length(c))};
    return {c, r_.stats().rejected_terminal > terminal
                   ? RejectReason::kTerminalBusy : RejectReason::kNoPath, 0};
  }
  void disconnect(unsigned, RawCall c) { r_.disconnect(c); }
  [[nodiscard]] core::RouterStats stats() const { return r_.stats(); }
 private:
  core::Router r_;
};
struct EngineOptions {};  // RETIRED: no options are left
inline std::unique_ptr<Engine> make_engine(const graph::Network& net,
                                           EngineOptions) {
  return std::make_unique<Engine>(net);
}
}  // namespace ftcs::svc
