// A fault event that is certain to kill a call, for the racing storm
// tests: a seeded storm may hit no held call at all, and then the victim
// re-admission goes unexercised in that run. The batched plane under a
// fault storm is covered by TrafficFaults.BatchedPlaneSurvivesTheSameStorm
// (tests/test_fault_plane.cpp, ctest label tsan).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/schedule.hpp"
#include "svc/exchange.hpp"

namespace ftcs::test {

/// Places a call of its own on `ex`, then fails and repairs the first
/// switch on its path, so the fault plane kills at least that call and
/// re-admits it. Runs on the thread that serializes the exchange, with no
/// switch down. Rerouted survivors are appended
/// to `strays` for the caller to hang up.
inline void kill_a_call(svc::Exchange& ex, std::vector<svc::Outcome>& strays) {
  const graph::CsrGraph& g = ex.network().g;
  const auto n = static_cast<std::uint32_t>(ex.input_count());
  for (std::uint32_t in = 0; in < n; ++in) {
    const svc::Outcome o = ex.call({in, in, 0, 0});
    if (!o.connected()) continue;
    const std::vector<graph::VertexId> path = ex.path_of(o.id);
    ASSERT_GE(path.size(), 2u);
    const auto eids = g.out_edges(path[0]);
    const auto tgts = g.out_targets(path[0]);
    std::size_t slot = 0;
    while (slot < tgts.size() && tgts[slot] != path[1]) ++slot;
    ASSERT_LT(slot, tgts.size()) << "the first hop is not a forward switch";
    const graph::EdgeId e = eids[slot];
    const svc::FaultImpact hit =
        ex.apply({0.0, e, fault::FaultEvent::Kind::kFail});
    EXPECT_GE(hit.calls_killed(), 1u) << "the failed switch killed no call";
    for (const svc::Outcome& re : hit.reroutes)
      if (re.connected()) strays.push_back(re);
    ex.apply({0.0, e, fault::FaultEvent::Kind::kRepair});
    return;
  }
  ADD_FAILURE() << "no idle terminal pair connected";
}

}  // namespace ftcs::test
