// svc::Federation — shard map, intra fast path, two-phase inter-shard setup
// with reverse-order abort, trunk-group selection (least-loaded + AIMD
// penalty), the composed fault planes (trunk edge faults, member faults with
// half-call reconciliation), the batched plane, and exact book balance after
// abort/fault storms on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

FederationConfig fed_cfg(Backend backend, std::uint32_t subscribers = 0) {
  FederationConfig cfg;
  cfg.backend = backend;
  cfg.sessions = backend == Backend::kConcurrent ? 2 : 1;
  cfg.subscribers = subscribers;
  return cfg;
}

/// Sums claimed lines across every trunk group.
std::size_t total_occupancy(const Federation& fed) {
  std::size_t n = 0;
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g)
    n += fed.trunk_group(g).occupancy();
  return n;
}

TEST(FederationShardMap, PortDealingBalancesMeshQuotas) {
  const auto net = networks::build_cantor({4, 0});  // 16 ports per member
  const unsigned kShards = 4;
  Federation fed(net, kShards, fed_cfg(Backend::kGreedy));
  // Default split: 3/4 subscribers, remainder trunk ports.
  EXPECT_EQ(fed.subscribers_per_member(), 12u);
  EXPECT_EQ(fed.input_count(), 48u);
  // Shard map round-trips.
  for (std::uint32_t g = 0; g < fed.input_count(); ++g) {
    EXPECT_EQ(fed.global_of(fed.shard_of(g), fed.local_of(g)), g);
    EXPECT_LT(fed.shard_of(g), kShards);
    EXPECT_LT(fed.local_of(g), fed.subscribers_per_member());
  }
  // Every member sends AND receives exactly `pool` = 4 lines; every trunk
  // port is used exactly once per member per direction.
  std::vector<std::size_t> egress_lines(kShards, 0), ingress_lines(kShards, 0);
  std::vector<std::set<std::uint32_t>> egress_ports(kShards),
      ingress_ports(kShards);
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g) {
    const TrunkGroup& tg = fed.trunk_group(g);
    EXPECT_NE(tg.from(), tg.to());
    EXPECT_GT(tg.capacity(), 0u);
    EXPECT_EQ(tg.usable(), tg.capacity());
    for (std::uint32_t l = 0; l < tg.capacity(); ++l) {
      const TrunkLine& ln = tg.line(l);
      EXPECT_GE(ln.egress_port, fed.subscribers_per_member());
      EXPECT_LT(ln.egress_port, 16u);
      EXPECT_GE(ln.ingress_port, fed.subscribers_per_member());
      EXPECT_LT(ln.ingress_port, 16u);
      EXPECT_TRUE(egress_ports[tg.from()].insert(ln.egress_port).second)
          << "egress port reused within member " << tg.from();
      EXPECT_TRUE(ingress_ports[tg.to()].insert(ln.ingress_port).second)
          << "ingress port reused within member " << tg.to();
      ++egress_lines[tg.from()];
      ++ingress_lines[tg.to()];
    }
  }
  for (unsigned m = 0; m < kShards; ++m) {
    EXPECT_EQ(egress_lines[m], 4u) << "member " << m;
    EXPECT_EQ(ingress_lines[m], 4u) << "member " << m;
  }
  // Mesh: every ordered pair has at least one direct group.
  for (unsigned a = 0; a < kShards; ++a) {
    for (unsigned b = 0; b < kShards; ++b) {
      if (a != b) {
        EXPECT_FALSE(fed.groups_between(a, b).empty());
      }
    }
  }
}

TEST(FederationShardMap, RingTopologyTrunksOnlyNeighbours) {
  const auto net = networks::build_cantor({4, 0});
  FederationConfig cfg = fed_cfg(Backend::kGreedy);
  cfg.topology = FederationConfig::Topology::kRing;
  Federation fed(net, 6, cfg);
  for (unsigned a = 0; a < 6; ++a) {
    for (unsigned b = 0; b < 6; ++b) {
      if (a == b) continue;
      const bool neighbour = b == (a + 1) % 6 || b == (a + 5) % 6;
      EXPECT_EQ(!fed.groups_between(a, b).empty(), neighbour)
          << a << " -> " << b;
    }
  }
  // Non-adjacent inter-shard call: no direct trunks -> typed kTrunkBusy at
  // the trunk stage (hierarchical multi-hop routing is future work).
  const FedOutcome o = fed.call(
      {fed.global_of(0, 0), fed.global_of(3, 0), 0, 5});
  EXPECT_EQ(o.reject, RejectReason::kTrunkBusy);
  EXPECT_EQ(o.stage, FedStage::kTrunk);
}

TEST(FederationCalls, IntraFastPathNeverTouchesFederationState) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const FedOutcome o = fed.call({0, 1, 0, 42});
  ASSERT_TRUE(o.connected());
  EXPECT_TRUE(o.id.valid());
  EXPECT_FALSE(o.id.inter());
  EXPECT_EQ(o.shard_in, 0u);
  EXPECT_EQ(o.shard_out, 0u);
  EXPECT_EQ(o.trunk_group, FedOutcome::kNoTrunkGroup);
  EXPECT_EQ(o.tag, 42u);
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.member(1).stats().router.connect_calls, 0u);
  EXPECT_EQ(fed.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.intra_calls, 1u);
  EXPECT_EQ(st.inter_calls, 0u);
  EXPECT_EQ(st.trunks.claims, 0u);
  EXPECT_EQ(st.members.hangups, 1u);
}

TEST(FederationCalls, InterCallLifecycleClaimsAndReleasesInOrder) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const std::uint32_t in = fed.global_of(0, 3), out = fed.global_of(1, 5);
  const FedOutcome o = fed.call({in, out, 0, 7});
  ASSERT_TRUE(o.connected());
  EXPECT_TRUE(o.id.inter());
  EXPECT_EQ(o.shard_in, 0u);
  EXPECT_EQ(o.shard_out, 1u);
  ASSERT_NE(o.trunk_group, FedOutcome::kNoTrunkGroup);
  EXPECT_EQ(fed.trunk_group(o.trunk_group).occupancy(), 1u);
  EXPECT_GT(o.path_length, 0u);
  EXPECT_EQ(fed.active_inter_calls(), 1u);
  EXPECT_EQ(fed.member(0).active_calls(), 1u);
  EXPECT_EQ(fed.member(1).active_calls(), 1u);
  EXPECT_FALSE(fed.input_idle(in));
  EXPECT_FALSE(fed.output_idle(out));

  EXPECT_EQ(fed.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_TRUE(fed.input_idle(in));
  EXPECT_TRUE(fed.output_idle(out));
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.inter_calls, 1u);
  EXPECT_EQ(st.inter_connected, 1u);
  EXPECT_EQ(st.half_calls_routed, 2u);
  EXPECT_EQ(st.inter_hangups, 1u);
  EXPECT_EQ(st.trunks.claims, 1u);
  EXPECT_EQ(st.trunks.releases, 1u);
  // Double hangup of the retired slot is a typed stale-handle error.
  EXPECT_EQ(fed.hangup(o.id), RejectReason::kStaleHandle);
  EXPECT_EQ(fed.stats().handle_errors, 1u);
}

TEST(FederationCalls, HandleSafetyNullForeignAndBadTerminal) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed_a(net, 2, fed_cfg(Backend::kGreedy));
  Federation fed_b(net, 2, fed_cfg(Backend::kGreedy));
  EXPECT_EQ(fed_a.hangup(FedCallId{}), RejectReason::kStaleHandle);
  const FedOutcome o = fed_b.call(
      {fed_b.global_of(0, 0), fed_b.global_of(1, 0), 0, 0});
  ASSERT_TRUE(o.connected());
  EXPECT_EQ(fed_a.hangup(o.id), RejectReason::kForeignHandle);
  EXPECT_EQ(fed_a.stats().handle_errors, 2u);
  EXPECT_EQ(fed_b.hangup(o.id), RejectReason::kNone);
  // Out-of-range global terminal: no home member in the shard map.
  const FedOutcome bad = fed_a.call(
      {static_cast<std::uint32_t>(fed_a.input_count()), 0, 0, 0});
  EXPECT_EQ(bad.reject, RejectReason::kBadSession);
}

/// Drives typed per-stage aborts: each failure point must release every
/// prior claim (trunk line, ingress half), on both engines.
void run_two_phase_abort_paths(Backend backend) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(backend));
  const std::uint32_t subs = fed.subscribers_per_member();

  // INGRESS abort: caller's input is already busy -> member typed reject,
  // stage kIngress, the just-claimed trunk line released.
  const FedOutcome hold_in = fed.call({0, 1, 0, 0});
  ASSERT_TRUE(hold_in.connected());
  const FedOutcome a = fed.call({0, fed.global_of(1, 0), 0, 1});
  EXPECT_EQ(a.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(a.stage, FedStage::kIngress);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.stats().ingress_aborts, 1u);
  EXPECT_EQ(fed.hangup(hold_in.id), RejectReason::kNone);

  // EGRESS abort: callee's output busy -> ingress half torn down again,
  // trunk released, stage kEgress.
  const FedOutcome hold_out = fed.call(
      {fed.global_of(1, 2), fed.global_of(1, 3), 0, 0});
  ASSERT_TRUE(hold_out.connected());
  const std::size_t m0_before = fed.member(0).active_calls();
  const FedOutcome b = fed.call({fed.global_of(0, 4), fed.global_of(1, 3), 0, 2});
  EXPECT_EQ(b.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(b.stage, FedStage::kEgress);
  EXPECT_EQ(fed.member(0).active_calls(), m0_before);  // ingress rolled back
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.stats().egress_aborts, 1u);
  EXPECT_EQ(fed.hangup(hold_out.id), RejectReason::kNone);

  // TRUNK abort: exhaust every 0->1 line, next inter call bounces at the
  // trunk stage without touching either member.
  std::vector<FedCallId> held;
  std::uint32_t next_in = 0, next_out = 0;
  for (;;) {
    const FedOutcome o = fed.call(
        {fed.global_of(0, next_in++), fed.global_of(1, next_out++), 0, 9});
    ASSERT_LT(next_in, subs) << "ran out of subscribers before trunk lines";
    if (!o.connected()) {
      EXPECT_EQ(o.reject, RejectReason::kTrunkBusy);
      EXPECT_EQ(o.stage, FedStage::kTrunk);
      break;
    }
    held.push_back(o.id);
  }
  EXPECT_GE(fed.stats().trunk_rejects, 1u);
  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
}

TEST(FederationTwoPhase, AbortPathsReleaseEverythingGreedy) {
  run_two_phase_abort_paths(Backend::kGreedy);
}
TEST(FederationTwoPhase, AbortPathsReleaseEverythingConcurrent) {
  run_two_phase_abort_paths(Backend::kConcurrent);
}

/// A storm of forced failures at every setup stage; afterwards every book
/// balances to exactly zero (busy popcount, trunk occupancy, slot books).
void run_abort_storm(Backend backend) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 4, fed_cfg(backend));
  const std::uint32_t subs = fed.subscribers_per_member();
  util::Xoshiro256 rng(util::derive_seed(92, backend == Backend::kGreedy));
  std::vector<FedCallId> held;
  for (int round = 0; round < 2000; ++round) {
    const auto in = static_cast<std::uint32_t>(rng.below(fed.input_count()));
    const auto out = static_cast<std::uint32_t>(rng.below(fed.input_count()));
    const FedOutcome o = fed.call({in, out, 0, static_cast<std::uint64_t>(round)});
    if (o.connected()) {
      held.push_back(o.id);
    } else {
      // Typed, staged failure; nothing may leak.
      EXPECT_NE(o.reject, RejectReason::kNone);
      if (o.stage == FedStage::kTrunk) {
        EXPECT_EQ(o.reject, RejectReason::kTrunkBusy);
      }
    }
    // Churn: randomly drop a third of held calls.
    for (std::size_t k = 0; k < held.size();) {
      if (rng.below(3) == 0) {
        EXPECT_EQ(fed.hangup(held[k]), RejectReason::kNone);
        held[k] = held.back();
        held.pop_back();
      } else {
        ++k;
      }
    }
  }
  const FederationStats mid = fed.stats();
  EXPECT_GT(mid.inter_connected, 0u);
  EXPECT_GT(mid.ingress_aborts + mid.egress_aborts + mid.trunk_rejects, 0u);
  // Live books match the held set.
  EXPECT_EQ(fed.active_inter_calls(), total_occupancy(fed));
  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
  // Exact zero balance.
  EXPECT_EQ(fed.active_calls(), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.trunks.claims, st.trunks.releases);
  // Every accepted member half/intra call got exactly one hangup — the
  // two-phase aborts included (the rolled-back ingress halves).
  EXPECT_EQ(st.members.router.accepted, st.members.hangups);
  for (std::uint32_t g = 0; g < subs; ++g) {
    EXPECT_TRUE(fed.input_idle(g));
    EXPECT_TRUE(fed.output_idle(g));
  }
}

TEST(FederationTwoPhase, AbortStormBooksBalanceGreedy) {
  run_abort_storm(Backend::kGreedy);
}
TEST(FederationTwoPhase, AbortStormBooksBalanceConcurrent) {
  run_abort_storm(Backend::kConcurrent);
}

TEST(TrunkGroupUnit, RotatingClaimAndAimdPenalty) {
  TrunkGroup g(0, 0, 1, {{12, 12}, {13, 13}, {14, 14}});
  EXPECT_EQ(g.capacity(), 3u);
  EXPECT_EQ(g.score(), 0u);
  // Rotating first-free scan: consecutive claims walk the lines.
  const auto a = g.claim(), b = g.claim(), c = g.claim();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(*c, 2u);
  EXPECT_EQ(g.occupancy(), 3u);
  // Full group: claim fails, penalty inflates multiplicatively.
  EXPECT_FALSE(g.claim().has_value());
  const std::uint32_t p1 = g.penalty();
  EXPECT_GT(p1, 0u);
  EXPECT_FALSE(g.claim().has_value());
  EXPECT_GT(g.penalty(), p1);
  EXPECT_EQ(g.stats().rejects, 2u);
  // Release + successful claim decays the penalty additively.
  g.release(1);
  EXPECT_EQ(g.occupancy(), 2u);
  const std::uint32_t p2 = g.penalty();
  ASSERT_TRUE(g.claim().has_value());
  EXPECT_EQ(g.penalty(), p2 - 1);
  // Fault keeps the busy bit (kill-then-release discipline).
  EXPECT_TRUE(g.fault(0));       // line 0 carries a call
  EXPECT_FALSE(g.fault(0));      // idempotent
  EXPECT_EQ(g.usable(), 2u);
  EXPECT_TRUE(g.line_busy(0));
  g.release(0);
  EXPECT_FALSE(g.line_busy(0));
  // A faulted line is never claimed even when free.
  g.release(1);
  g.release(2);
  std::set<std::uint32_t> seen;
  while (auto l = g.claim()) seen.insert(*l);
  EXPECT_EQ(seen.count(0), 0u);
  EXPECT_EQ(seen.size(), 2u);
  g.repair(0);
  EXPECT_EQ(g.usable(), 3u);
  ASSERT_TRUE(g.claim().has_value());
}

TEST(TrunkSelection, LeastLoadedTiebreakSpreadsAcrossParallelGroups) {
  const auto net = networks::build_cantor({4, 0});
  FederationConfig cfg = fed_cfg(Backend::kGreedy);
  cfg.groups_per_peer = 2;  // split each peer quota into two parallel groups
  Federation fed(net, 2, cfg);
  const auto gids = fed.groups_between(0, 1);
  ASSERT_EQ(gids.size(), 2u);
  std::vector<FedCallId> held;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const FedOutcome o = fed.call(
        {fed.global_of(0, i), fed.global_of(1, i), 0, 0});
    ASSERT_TRUE(o.connected());
    held.push_back(o.id);
    // After each claim the two parallel groups differ by at most one line.
    const auto occ0 = fed.trunk_group(gids[0]).occupancy();
    const auto occ1 = fed.trunk_group(gids[1]).occupancy();
    EXPECT_LE(occ0 > occ1 ? occ0 - occ1 : occ1 - occ0, 1u);
  }
  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
}

TEST(FederationFaults, TrunkFaultTearsDownTypedAndReadmits) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const FedOutcome o = fed.call(
      {fed.global_of(0, 1), fed.global_of(1, 1), 0, 31});
  ASSERT_TRUE(o.connected());
  // Find the claimed line within the group.
  const TrunkGroup& tg = fed.trunk_group(o.trunk_group);
  std::uint32_t line = tg.capacity();
  for (std::uint32_t l = 0; l < tg.capacity(); ++l)
    if (tg.line_busy(l)) line = l;
  ASSERT_LT(line, tg.capacity());

  const TrunkFaultImpact imp = fed.fail_trunk(o.trunk_group, line);
  EXPECT_TRUE(imp.applied);
  EXPECT_TRUE(imp.was_busy);
  ASSERT_EQ(imp.killed.size(), 1u);
  EXPECT_EQ(imp.killed[0].reject, RejectReason::kFaulted);
  EXPECT_EQ(imp.killed[0].tag, 31u);
  EXPECT_TRUE(imp.killed[0].id == o.id);  // the owner's retained handle
  // Capacity is ample: the end-to-end re-admission carried on another line.
  ASSERT_EQ(imp.reroutes.size(), 1u);
  EXPECT_TRUE(imp.reroutes[0].connected());
  EXPECT_EQ(imp.reroute_succeeded, 1u);
  EXPECT_EQ(fed.active_inter_calls(), 1u);
  // The faulted line is out of the pool but no longer busy.
  EXPECT_TRUE(tg.line_faulted(line));
  EXPECT_FALSE(tg.line_busy(line));
  EXPECT_EQ(tg.usable(), tg.capacity() - 1);
  // The retained handle acks kFaulted once — informative, not misuse.
  EXPECT_EQ(fed.hangup(o.id), RejectReason::kFaulted);
  EXPECT_EQ(fed.stats().handle_errors, 0u);
  // The reroute's handle is the live one.
  EXPECT_EQ(fed.hangup(imp.reroutes[0].id), RejectReason::kNone);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.calls_killed_by_trunk_fault, 1u);
  EXPECT_EQ(st.trunks.faults, 1u);
  EXPECT_EQ(st.reroute_succeeded, 1u);
  // Repair restores the pool; the op is idempotent both ways.
  EXPECT_TRUE(fed.repair_trunk(o.trunk_group, line).applied);
  EXPECT_FALSE(fed.repair_trunk(o.trunk_group, line).applied);
  EXPECT_EQ(fed.trunk_group(o.trunk_group).usable(),
            fed.trunk_group(o.trunk_group).capacity());
  EXPECT_FALSE(fed.fail_trunk(o.trunk_group, line).was_busy);
  EXPECT_FALSE(fed.fail_trunk(o.trunk_group, line).applied);
}

/// Trunk-fault storm: every killed inter call gets a typed teardown of both
/// halves and a re-admission; books balance exactly afterwards.
void run_trunk_fault_storm(Backend backend) {
  const auto net = networks::build_cantor({5, 0});  // 32 ports per member
  Federation fed(net, 4, fed_cfg(backend));
  util::Xoshiro256 rng(util::derive_seed(1992, backend == Backend::kGreedy));
  // Bring up a population of inter calls, tracked by tag.
  std::map<std::uint64_t, FedCallId> live;
  std::uint64_t tag = 0;
  for (int i = 0; i < 200; ++i) {
    const auto sa = static_cast<std::uint32_t>(rng.below(4));
    auto sb = static_cast<std::uint32_t>(rng.below(4));
    if (sb == sa) sb = (sb + 1) % 4;
    const FedOutcome o =
        fed.call({fed.global_of(sa, static_cast<std::uint32_t>(rng.below(
                      fed.subscribers_per_member()))),
                  fed.global_of(sb, static_cast<std::uint32_t>(rng.below(
                      fed.subscribers_per_member()))),
                  0, tag});
    if (o.connected()) live.emplace(tag, o.id);
    ++tag;
  }
  ASSERT_GT(live.size(), 10u);
  const std::size_t before = live.size();

  // Storm: fail a line of every group (random), reconciling the tracked
  // handles from the impact reports.
  std::uint64_t killed_total = 0;
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g) {
    const auto line = static_cast<std::uint32_t>(
        rng.below(fed.trunk_group(g).capacity()));
    const TrunkFaultImpact imp = fed.fail_trunk(g, line);
    ASSERT_EQ(imp.killed.size(), imp.reroutes.size());
    killed_total += imp.killed.size();
    for (std::size_t i = 0; i < imp.killed.size(); ++i) {
      const FedOutcome& dead = imp.killed[i];
      EXPECT_EQ(dead.reject, RejectReason::kFaulted);
      const auto it = live.find(dead.tag);
      ASSERT_NE(it, live.end());
      EXPECT_TRUE(it->second == dead.id);
      // The retained handle now acks kFaulted (typed, informative).
      EXPECT_EQ(fed.hangup(it->second), RejectReason::kFaulted);
      live.erase(it);
      if (imp.reroutes[i].connected())
        live.emplace(imp.reroutes[i].tag, imp.reroutes[i].id);
    }
    EXPECT_EQ(imp.reroute_succeeded + imp.reroute_failed, imp.killed.size());
  }
  EXPECT_GT(killed_total, 0u);
  const FederationStats mid = fed.stats();
  EXPECT_EQ(mid.calls_killed_by_trunk_fault, killed_total);
  EXPECT_EQ(mid.reroute_succeeded + mid.reroute_failed, killed_total);
  EXPECT_EQ(fed.active_inter_calls(), live.size());
  EXPECT_EQ(total_occupancy(fed), live.size());
  (void)before;

  // Drain the survivors; everything balances to zero.
  for (const auto& [t, id] : live)
    EXPECT_EQ(fed.hangup(id), RejectReason::kNone) << "tag " << t;
  EXPECT_EQ(fed.active_calls(), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.trunks.claims, st.trunks.releases);
  EXPECT_EQ(st.trunks.faults, fed.trunk_group_count());
  EXPECT_EQ(st.handle_errors, 0u);
}

TEST(FederationFaults, TrunkFaultStormBooksBalanceGreedy) {
  run_trunk_fault_storm(Backend::kGreedy);
}
TEST(FederationFaults, TrunkFaultStormBooksBalanceConcurrent) {
  run_trunk_fault_storm(Backend::kConcurrent);
}

TEST(FederationFaults, MemberFaultAdoptsReroutedHalf) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const FedOutcome o = fed.call(
      {fed.global_of(0, 2), fed.global_of(1, 2), 0, 77});
  ASSERT_TRUE(o.connected());
  // Walk member 0's edges until one hits the ingress half's path. Cantor
  // path diversity lets the member reroute the half in place, so the
  // federation adopts the new half and the inter call SURVIVES.
  bool hit = false;
  for (graph::EdgeId e = 0; e < net.g.edge_count() && !hit; ++e) {
    fault::FaultEvent ev;
    ev.edge = e;
    ev.kind = fault::FaultEvent::Kind::kFail;
    const FedFaultImpact imp = fed.inject(0, ev);
    if (imp.halves_hit > 0) {
      hit = true;
      EXPECT_EQ(imp.halves_hit, 1u);
      EXPECT_EQ(imp.mates_adopted, 1u);
      EXPECT_EQ(imp.mates_torn_down, 0u);
      EXPECT_TRUE(imp.killed.empty());  // the federation-level call survived
    } else {
      ev.kind = fault::FaultEvent::Kind::kRepair;
      fed.repair(0, ev);
    }
  }
  ASSERT_TRUE(hit);
  EXPECT_EQ(fed.active_inter_calls(), 1u);
  EXPECT_EQ(fed.stats().mates_adopted, 1u);
  // The retained federation handle still works: the slot was re-bound.
  EXPECT_EQ(fed.hangup(o.id), RejectReason::kNone);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
}

TEST(FederationFaults, MemberFaultTearsDownMateWhenHalfUncarried) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const FedOutcome o = fed.call(
      {fed.global_of(0, 2), fed.global_of(1, 2), 0, 55});
  ASSERT_TRUE(o.connected());
  // Kill EVERY switch of member 0. Along the way the ingress half may be
  // adopted (member rerouted it) or torn down and re-admitted end-to-end;
  // we track the call's CURRENT handle through the impact reports. Once the
  // member is fully dead, a teardown's re-admission must fail typed, both
  // halves are gone, and the last retained handle acks kFaulted.
  FedCallId current = o.id;
  std::uint64_t torn = 0;
  for (graph::EdgeId e = 0; e < net.g.edge_count(); ++e) {
    fault::FaultEvent ev;
    ev.edge = e;
    ev.kind = fault::FaultEvent::Kind::kFail;
    const FedFaultImpact imp = fed.inject(0, ev);
    torn += imp.mates_torn_down;
    ASSERT_EQ(imp.killed.size(), imp.reroutes.size());
    for (std::size_t i = 0; i < imp.killed.size(); ++i) {
      EXPECT_EQ(imp.killed[i].reject, RejectReason::kFaulted);
      EXPECT_EQ(imp.killed[i].tag, 55u);  // re-admission preserves the tag
      EXPECT_TRUE(imp.killed[i].id == current);
      if (imp.reroutes[i].connected()) current = imp.reroutes[i].id;
    }
  }
  ASSERT_GE(torn, 1u);
  // Both halves are gone and every trunk line is free again.
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(fed.member(1).active_calls(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.hangup(current), RejectReason::kFaulted);  // typed ack
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.mates_torn_down, torn);
  EXPECT_GE(st.reroute_failed, 1u);  // the final re-admission had no routes
  EXPECT_EQ(st.handle_errors, 0u);
}

TEST(FederationBatched, MixedTrafficDrainsAndPolls) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  std::vector<Ticket> tickets;
  // Mixed window: intra shard 0, intra shard 1, inter both directions.
  tickets.push_back(fed.submit({fed.global_of(0, 0), fed.global_of(0, 1), 0, 0}));
  tickets.push_back(fed.submit({fed.global_of(1, 0), fed.global_of(1, 1), 0, 1}));
  tickets.push_back(fed.submit({fed.global_of(0, 2), fed.global_of(1, 2), 0, 2}));
  tickets.push_back(fed.submit({fed.global_of(1, 3), fed.global_of(0, 3), 0, 3}));
  EXPECT_EQ(fed.pending(), 4u);
  EXPECT_EQ(fed.drain(), 4u);
  EXPECT_EQ(fed.pending(), 0u);
  std::vector<FedCallId> held;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto o = fed.poll(tickets[i]);
    ASSERT_TRUE(o.has_value()) << "ticket " << i;
    ASSERT_TRUE(o->connected()) << "ticket " << i;
    EXPECT_EQ(o->tag, i);
    EXPECT_EQ(o->id.inter(), i >= 2);
    held.push_back(o->id);
    EXPECT_FALSE(fed.poll(tickets[i]).has_value());  // take-once
  }
  EXPECT_EQ(fed.active_inter_calls(), 2u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.intra_calls, 2u);
  EXPECT_EQ(st.inter_calls, 2u);
  EXPECT_EQ(st.inter_connected, 2u);
  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
  EXPECT_EQ(fed.busy_vertices(), 0u);

  // Callback flavour + out-of-range terminal through the batched plane.
  FedOutcome cb_out;
  int cb_calls = 0;
  fed.submit({static_cast<std::uint32_t>(fed.input_count()), 0, 0, 9},
             [&](const FedOutcome& o) {
               cb_out = o;
               ++cb_calls;
             });
  EXPECT_EQ(fed.drain_all(), 1u);
  EXPECT_EQ(cb_calls, 1);
  EXPECT_EQ(cb_out.reject, RejectReason::kBadSession);
  EXPECT_EQ(cb_out.tag, 9u);
}

TEST(FederationBatched, TrunkExhaustionBouncesTypedWithinEpoch) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  std::uint32_t lines_01 = 0;
  for (const auto g : fed.groups_between(0, 1))
    lines_01 += fed.trunk_group(g).capacity();
  ASSERT_GT(lines_01, 0u);
  // Submit more 0->1 inter calls than there are trunk lines.
  const std::uint32_t want = lines_01 + 3;
  ASSERT_LE(want, fed.subscribers_per_member());
  std::vector<Ticket> tickets;
  for (std::uint32_t i = 0; i < want; ++i)
    tickets.push_back(
        fed.submit({fed.global_of(0, i), fed.global_of(1, i), 0, i}));
  EXPECT_EQ(fed.drain(), want);
  std::uint32_t connected = 0, trunk_busy = 0;
  std::vector<FedCallId> held;
  for (const Ticket t : tickets) {
    const auto o = fed.poll(t);
    ASSERT_TRUE(o.has_value());
    if (o->connected()) {
      ++connected;
      held.push_back(o->id);
    } else {
      EXPECT_EQ(o->reject, RejectReason::kTrunkBusy);
      EXPECT_EQ(o->stage, FedStage::kTrunk);
      ++trunk_busy;
    }
  }
  EXPECT_EQ(connected, lines_01);
  EXPECT_EQ(trunk_busy, 3u);
  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
}

// The merge algebra of FederationStats is walked row by row in
// test_ops_plane.cpp (StatsTable.*); this checks the delta a scrape takes
// against a LIVE federation.
TEST(FederationStatsMerge, LiveDeltaCarriesTrunkAndHalfCallActivity) {
  // A scrape-style before/after difference carries exactly the interval's
  // trunk/half-call activity.
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2, fed_cfg(Backend::kGreedy));
  const FederationStats before = fed.stats();
  const FedOutcome o = fed.call(
      {fed.global_of(0, 0), fed.global_of(1, 0), 0, 0});
  ASSERT_TRUE(o.connected());
  EXPECT_EQ(fed.hangup(o.id), RejectReason::kNone);
  FederationStats delta = fed.stats();
  delta -= before;
  EXPECT_EQ(delta.inter_calls, 1u);
  EXPECT_EQ(delta.inter_connected, 1u);
  EXPECT_EQ(delta.half_calls_routed, 2u);
  EXPECT_EQ(delta.inter_hangups, 1u);
  EXPECT_EQ(delta.trunks.claims, 1u);
  EXPECT_EQ(delta.trunks.releases, 1u);
  EXPECT_EQ(delta.intra_calls, 0u);
}

}  // namespace
}  // namespace ftcs::svc
