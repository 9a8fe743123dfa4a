// svc::Federation — shard map, intra fast path, two-phase inter-shard setup
// with busy terminals refused before the trunk stage and reverse-order
// abort after it, trunk-line claims, the composed fault planes
// (trunk edge faults, member faults with half-call reconciliation), the
// batched plane, and exact book balance after abort/fault storms on two
// random streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "networks/cantor.hpp"
#include "networks/crossbar.hpp"
#include "svc/federation.hpp"
#include "util/prng.hpp"

namespace ftcs::svc {
namespace {

/// The two random streams each seeded test runs on.
constexpr std::uint64_t kStreams[] = {1, 0};

/// Sums claimed lines across every trunk group.
std::size_t total_occupancy(const Federation& fed) {
  std::size_t n = 0;
  for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g)
    n += fed.trunk_group(g).occupancy();
  return n;
}

TEST(FederationShardMap, EveryOrderedPairHasOneGroup) {
  for (const std::uint32_t k : {3u, 4u}) {
    const auto net = networks::build_cantor({k, 0});
    const auto ports = static_cast<std::uint32_t>(net.inputs.size());
    for (unsigned shards = 2; shards <= 8; ++shards) {
      SCOPED_TRACE(testing::Message() << "k" << k << " x " << shards);
      Federation fed(net, shards);
      // Default split: 3/4 subscribers, the remaining ports trunk lines.
      const std::uint32_t subs = fed.subscribers_per_member();
      const std::uint32_t pool = ports - subs;
      const std::uint32_t peers = shards - 1;
      EXPECT_EQ(subs, ports - ports / 4);
      EXPECT_EQ(fed.input_count(), std::size_t{subs} * shards);
      for (std::uint32_t g = 0; g < fed.input_count(); ++g) {
        EXPECT_EQ(fed.global_of(fed.shard_of(g), fed.local_of(g)), g);
        EXPECT_LT(fed.shard_of(g), shards);
        EXPECT_LT(fed.local_of(g), subs);
      }
      ASSERT_EQ(fed.trunk_group_count(), std::size_t{shards} * peers);
      std::set<std::uint32_t> ids;
      for (unsigned a = 0; a < shards; ++a) {
        for (unsigned b = 0; b < shards; ++b) {
          if (a == b) continue;
          const std::uint32_t g = fed.group_between(a, b);
          ASSERT_LT(g, fed.trunk_group_count());
          EXPECT_TRUE(ids.insert(g).second) << a << " -> " << b;
          const TrunkGroup& tg = fed.trunk_group(g);
          EXPECT_EQ(tg.id(), g);
          EXPECT_EQ(tg.from(), a);
          EXPECT_EQ(tg.to(), b);
          // Rotated dealing: the remainder lines go to a's nearest peers.
          const std::uint32_t j = (b + shards - a) % shards - 1;
          EXPECT_EQ(tg.capacity(), pool / peers + (j < pool % peers ? 1 : 0));
          EXPECT_EQ(tg.usable(), tg.capacity());
        }
      }
      // Every member sends and receives exactly `pool` lines, each trunk
      // port once per direction.
      std::vector<std::uint32_t> sent(shards, 0), received(shards, 0);
      std::vector<std::set<std::uint32_t>> egress(shards), ingress(shards);
      for (std::uint32_t g = 0; g < fed.trunk_group_count(); ++g) {
        const TrunkGroup& tg = fed.trunk_group(g);
        for (std::uint32_t l = 0; l < tg.capacity(); ++l) {
          const TrunkLine& ln = tg.line(l);
          EXPECT_GE(ln.egress_port, subs);
          EXPECT_LT(ln.egress_port, ports);
          EXPECT_GE(ln.ingress_port, subs);
          EXPECT_LT(ln.ingress_port, ports);
          EXPECT_TRUE(egress[tg.from()].insert(ln.egress_port).second);
          EXPECT_TRUE(ingress[tg.to()].insert(ln.ingress_port).second);
          ++sent[tg.from()];
          ++received[tg.to()];
        }
      }
      for (unsigned m = 0; m < shards; ++m) {
        EXPECT_EQ(sent[m], pool) << "member " << m;
        EXPECT_EQ(received[m], pool) << "member " << m;
      }
    }
  }
  // cantor-k3 has 2 trunk lines per member for 3 peers: one pair out of
  // shard 0 has a zero-line group, and a call over it is refused at the
  // trunk stage with nothing left behind.
  const auto net = networks::build_cantor({3, 0});
  Federation fed(net, 4);
  std::optional<std::uint32_t> dark;
  for (std::uint32_t b = 1; b < 4; ++b)
    if (fed.trunk_group(fed.group_between(0, b)).capacity() == 0) dark = b;
  ASSERT_TRUE(dark.has_value());
  const FedOutcome o =
      fed.call({fed.global_of(0, 0), fed.global_of(*dark, 0), 0, 5});
  EXPECT_EQ(o.reject, RejectReason::kTrunkBusy);
  EXPECT_EQ(o.stage, FedStage::kTrunk);
  EXPECT_EQ(fed.stats().trunk_rejects, 1u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(fed.busy_vertices(), 0u);
}

TEST(FederationCalls, IntraFastPathNeverTouchesFederationState) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  // Shard 0's twin: a raw exchange over the same network serves every
  // intra call of shard 0 too, in step.
  Exchange raw(net, {});
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
  const Outcome r = raw.call({0, 1, 0, 42});
  ASSERT_TRUE(r.connected());
  EXPECT_EQ(r.path_length, o.path_length);
  EXPECT_EQ(raw.hangup(r.id), RejectReason::kNone);

  // A seeded intra-only churn on shard 0, busy terminals included: the
  // federation gives the raw twin's verdict and path length call by call,
  // and its member 0 does the raw twin's search work.
  const std::uint32_t subs = fed.subscribers_per_member();
  util::Xoshiro256 rng(util::derive_seed(71, 0));
  struct Held {
    FedCallId fed;
    CallId raw;
  };
  std::vector<Held> held;
  std::uint64_t dials = 0;
  for (std::uint64_t op = 0; op < 3000; ++op) {
    if (!held.empty() && rng.below(4) == 0) {
      const auto i = rng.below(held.size());
      ASSERT_EQ(fed.hangup(held[i].fed), RejectReason::kNone);
      ASSERT_EQ(raw.hangup(held[i].raw), RejectReason::kNone);
      held[i] = held.back();
      held.pop_back();
      continue;
    }
    const auto in = static_cast<std::uint32_t>(rng.below(subs));
    const auto out = static_cast<std::uint32_t>(rng.below(subs));
    const FedOutcome f =
        fed.call({fed.global_of(0, in), fed.global_of(0, out), 0, op});
    const Outcome x = raw.call({in, out, 0, op});
    ++dials;
    ASSERT_EQ(f.reject, x.reject) << "op " << op;
    ASSERT_EQ(f.path_length, x.path_length) << "op " << op;
    EXPECT_FALSE(f.id.inter());
    EXPECT_EQ(f.shard_out, 0u);
    EXPECT_EQ(f.trunk_group, FedOutcome::kNoTrunkGroup);
    if (f.connected()) held.push_back({f.id, x.id});
  }
  EXPECT_GT(held.size(), 0u);
  EXPECT_EQ(fed.active_inter_calls(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  for (const Held& h : held) {
    EXPECT_EQ(fed.hangup(h.fed), RejectReason::kNone);
    EXPECT_EQ(raw.hangup(h.raw), RejectReason::kNone);
  }
  EXPECT_EQ(fed.busy_vertices(), 0u);
  const core::RouterStats fr = fed.member(0).stats().router;
  const core::RouterStats xr = raw.stats().router;
  EXPECT_EQ(fr.connect_calls, xr.connect_calls);
  EXPECT_EQ(fr.accepted, xr.accepted);
  EXPECT_EQ(fr.rejected_terminal, xr.rejected_terminal);
  EXPECT_EQ(fr.vertices_visited, xr.vertices_visited);
  EXPECT_EQ(fr.path_vertices, xr.path_vertices);
  EXPECT_GT(xr.rejected_terminal, 0u);
  // Nothing federation-wide moved, and member 1 did no work.
  const FederationStats end = fed.stats();
  EXPECT_EQ(end.intra_calls, 1u + dials);
  EXPECT_EQ(end.inter_calls, 0u);
  EXPECT_EQ(end.half_calls_routed, 0u);
  EXPECT_EQ(end.trunks.claims, 0u);
  EXPECT_EQ(end.handle_errors, 0u);
  EXPECT_EQ(fed.member(1).stats().router.connect_calls, 0u);
  EXPECT_EQ(fed.member(1).stats().hangups, 0u);
}

TEST(FederationCalls, InterCallLifecycleClaimsAndReleasesInOrder) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
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
  Federation fed_a(net, 2);
  Federation fed_b(net, 2);
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
  EXPECT_EQ(bad.reject, RejectReason::kBadTerminal);
}

// A member fault aimed at a shard the federation does not have is a typed
// error, booked into the federation's handle_errors; no member moves.
TEST(FederationFaults, MemberEventOnNoShardIsATypedError) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  ASSERT_TRUE(fed.call({fed.global_of(0, 2), fed.global_of(1, 2), 0, 9})
                  .connected());
  const FederationStats before = fed.stats();
  fault::FaultEvent ev;
  ev.edge = 0;
  const FedFaultImpact inj = fed.inject(fed.shards(), ev);
  EXPECT_EQ(inj.member.reject, RejectReason::kBadSwitch);
  EXPECT_EQ(inj.member.event.edge, 0u);
  ev.kind = fault::FaultEvent::Kind::kRepair;
  const FedFaultImpact rep = fed.repair(fed.shards(), ev);
  EXPECT_EQ(rep.member.reject, RejectReason::kBadSwitch);
  for (const FedFaultImpact* imp : {&inj, &rep}) {
    EXPECT_TRUE(imp->member.killed.empty());
    EXPECT_TRUE(imp->killed.empty());
    EXPECT_EQ(imp->halves_hit, 0u);
  }
  const FederationStats after = fed.stats();
  EXPECT_EQ(after.handle_errors, before.handle_errors + 2);
  EXPECT_EQ(after.members.handle_errors, before.members.handle_errors);
  EXPECT_EQ(after.members.faults_injected, 0u);
  EXPECT_EQ(after.members.faults_repaired, 0u);
  EXPECT_EQ(fed.member(0).failed_switch_count(), 0u);
  EXPECT_EQ(fed.member(1).failed_switch_count(), 0u);
  EXPECT_EQ(fed.active_inter_calls(), 1u);
  // A bad switch on a real shard is the member's own typed error.
  ev.edge = static_cast<graph::EdgeId>(net.g.edge_count());
  EXPECT_EQ(fed.inject(1, ev).member.reject, RejectReason::kBadSwitch);
  EXPECT_EQ(fed.stats().members.handle_errors,
            before.members.handle_errors + 1);
}

// A trunk verb naming a group or line the federation does not have is a
// typed error, kBadSwitch, booked into the federation's handle_errors, and
// nothing else moves: not the line state, not the live inter call, and no
// other FederationStats row (member and trunk rows included). An
// idempotent repeat, by contrast, is a plain applied == false.
TEST(FederationFaults, TrunkVerbOnNoLineIsATypedError) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  ASSERT_TRUE(fed.call({fed.global_of(0, 2), fed.global_of(1, 2), 0, 9})
                  .connected());
  const FederationStats before = fed.stats();
  const auto groups = static_cast<std::uint32_t>(fed.trunk_group_count());
  const std::uint32_t lines = fed.trunk_group(0).capacity();
  std::uint64_t events = 0;
  for (const auto& [group, line] :
       {std::pair{groups, 0u}, std::pair{0u, lines}}) {
    for (const bool fail : {true, false}) {
      const TrunkFaultImpact imp =
          fail ? fed.fail_trunk(group, line) : fed.repair_trunk(group, line);
      EXPECT_EQ(imp.reject, RejectReason::kBadSwitch);
      EXPECT_EQ(imp.group, group);
      EXPECT_EQ(imp.line, line);
      EXPECT_FALSE(imp.applied);
      EXPECT_FALSE(imp.was_busy);
      EXPECT_EQ(imp.calls_killed(), 0u);
      EXPECT_TRUE(imp.reroutes.empty());
      EXPECT_EQ(fed.stats().handle_errors, before.handle_errors + ++events);
    }
  }
  const FederationStats after = fed.stats();
  for (const auto& f : FederationStats::fields()) {
    if (f.member != &FederationStats::handle_errors) {
      EXPECT_EQ(after.*f.member, before.*f.member) << f.name;
    }
  }
  for (const auto& f : ExchangeStats::fields())
    EXPECT_EQ(after.members.*f.member, before.members.*f.member) << f.name;
  for (const auto& f : core::RouterStats::fields())
    EXPECT_EQ(after.members.router.*f.member, before.members.router.*f.member)
        << f.name;
  for (const auto& f : TrunkGroupStats::fields())
    EXPECT_EQ(after.trunks.*f.member, before.trunks.*f.member) << f.name;
  EXPECT_EQ(fed.active_inter_calls(), 1u);
  // The last group and line are in range; a repeat is no misuse.
  EXPECT_EQ(fed.fail_trunk(groups - 1, lines - 1).reject, RejectReason::kNone);
  const TrunkFaultImpact again = fed.fail_trunk(groups - 1, lines - 1);
  EXPECT_EQ(again.reject, RejectReason::kNone);
  EXPECT_FALSE(again.applied);
  EXPECT_EQ(fed.repair_trunk(groups - 1, lines - 1).reject,
            RejectReason::kNone);
  EXPECT_EQ(fed.stats().handle_errors, before.handle_errors + events);
}

/// Drives typed per-stage refusals: a busy terminal is refused before the
/// trunk stage and a full trunk group before either half, so no stage
/// leaves a claim (trunk line, ingress half) behind.
TEST(FederationTwoPhase, AbortPathsReleaseEverything) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  const std::uint32_t subs = fed.subscribers_per_member();

  // INGRESS refusal: the caller's input is already busy -> kTerminalBusy
  // at stage kIngress, before any trunk line is claimed.
  const FedOutcome hold_in = fed.call({0, 1, 0, 0});
  ASSERT_TRUE(hold_in.connected());
  const FedOutcome a = fed.call({0, fed.global_of(1, 0), 0, 1});
  EXPECT_EQ(a.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(a.stage, FedStage::kIngress);
  EXPECT_EQ(total_occupancy(fed), 0u);
  EXPECT_EQ(fed.stats().ingress_aborts, 1u);
  EXPECT_EQ(fed.hangup(hold_in.id), RejectReason::kNone);

  // EGRESS refusal: the callee's output is busy -> kTerminalBusy at stage
  // kEgress, before the trunk claim and the ingress half.
  const FedOutcome hold_out = fed.call(
      {fed.global_of(1, 2), fed.global_of(1, 3), 0, 0});
  ASSERT_TRUE(hold_out.connected());
  const std::size_t m0_before = fed.member(0).active_calls();
  const FedOutcome b = fed.call({fed.global_of(0, 4), fed.global_of(1, 3), 0, 2});
  EXPECT_EQ(b.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(b.stage, FedStage::kEgress);
  EXPECT_EQ(fed.member(0).active_calls(), m0_before);  // no ingress half
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

/// The books a busy-terminal refusal must leave alone: it reaches no member
/// and claims no trunk line.
struct SetupWork {
  std::uint64_t claims, half_calls, m0_connects, m1_connects, m0_terminal,
      m1_terminal;
  std::size_t occupancy;
  explicit SetupWork(const Federation& fed)
      : claims(fed.stats().trunks.claims),
        half_calls(fed.stats().half_calls_routed),
        m0_connects(fed.member(0).stats().router.connect_calls),
        m1_connects(fed.member(1).stats().router.connect_calls),
        m0_terminal(fed.member(0).stats().router.rejected_terminal),
        m1_terminal(fed.member(1).stats().router.rejected_terminal),
        occupancy(total_occupancy(fed)) {}
  bool operator==(const SetupWork&) const = default;
};

TEST(FederationTwoPhase, BusyTerminalIsRefusedBeforeTheTrunkStage) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  // Caller g(0,0) and callee g(1,3) are busy on intra calls.
  const FedOutcome hold_in =
      fed.call({fed.global_of(0, 0), fed.global_of(0, 1), 0, 0});
  const FedOutcome hold_out =
      fed.call({fed.global_of(1, 2), fed.global_of(1, 3), 0, 0});
  ASSERT_TRUE(hold_in.connected());
  ASSERT_TRUE(hold_out.connected());

  const SetupWork before(fed);
  const FedOutcome caller_busy =
      fed.call({fed.global_of(0, 0), fed.global_of(1, 0), 0, 1});
  EXPECT_EQ(caller_busy.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(caller_busy.stage, FedStage::kIngress);
  EXPECT_TRUE(SetupWork(fed) == before) << "busy caller did setup work";
  const FedOutcome callee_busy =
      fed.call({fed.global_of(0, 4), fed.global_of(1, 3), 0, 2});
  EXPECT_EQ(callee_busy.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(callee_busy.stage, FedStage::kEgress);
  EXPECT_TRUE(SetupWork(fed) == before) << "busy callee did setup work";
  EXPECT_EQ(fed.stats().ingress_aborts, 1u);
  EXPECT_EQ(fed.stats().egress_aborts, 1u);

  // Exhaust the 0 -> 1 group with idle terminals.
  const std::uint32_t g = fed.group_between(0, 1);
  std::vector<FedCallId> held;
  std::uint32_t i = 0;
  for (; fed.trunk_group(g).occupancy() < fed.trunk_group(g).capacity(); ++i) {
    const FedOutcome o =
        fed.call({fed.global_of(0, 5 + i), fed.global_of(1, 4 + i), 0, 3});
    ASSERT_TRUE(o.connected()) << "line " << i;
    held.push_back(o.id);
  }
  // Behind the full group a busy terminal still reads kTerminalBusy at its
  // own stage; only a setup between idle terminals meets the trunk stage.
  const std::uint32_t idle_in = fed.global_of(0, 5 + i);
  const std::uint32_t idle_out = fed.global_of(1, 4 + i);
  const SetupWork full(fed);
  const FedOutcome busy_out = fed.call({idle_in, fed.global_of(1, 3), 0, 4});
  EXPECT_EQ(busy_out.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(busy_out.stage, FedStage::kEgress);
  const FedOutcome busy_in = fed.call({fed.global_of(0, 0), idle_out, 0, 5});
  EXPECT_EQ(busy_in.reject, RejectReason::kTerminalBusy);
  EXPECT_EQ(busy_in.stage, FedStage::kIngress);
  EXPECT_TRUE(SetupWork(fed) == full);
  const FedOutcome trunk = fed.call({idle_in, idle_out, 0, 6});
  EXPECT_EQ(trunk.reject, RejectReason::kTrunkBusy);
  EXPECT_EQ(trunk.stage, FedStage::kTrunk);

  for (const FedCallId id : held) EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
  EXPECT_EQ(fed.hangup(hold_in.id), RejectReason::kNone);
  EXPECT_EQ(fed.hangup(hold_out.id), RejectReason::kNone);
  EXPECT_EQ(fed.busy_vertices(), 0u);
  EXPECT_EQ(total_occupancy(fed), 0u);
  const FederationStats st = fed.stats();
  EXPECT_EQ(st.ingress_aborts, 2u);
  EXPECT_EQ(st.egress_aborts, 2u);
  EXPECT_EQ(st.trunk_rejects, 1u);
  EXPECT_EQ(st.inter_calls, st.inter_connected + st.trunk_rejects +
                                st.ingress_aborts + st.egress_aborts);
}

/// A storm of forced failures at every setup stage; afterwards every book
/// balances to exactly zero (busy popcount, trunk occupancy, slot books).
void run_abort_storm(std::uint64_t stream) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 4);
  const std::uint32_t subs = fed.subscribers_per_member();
  util::Xoshiro256 rng(util::derive_seed(92, stream));
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
  // Every accepted member half/intra call got exactly one hangup — an
  // ingress half rolled back by a failed egress half included.
  EXPECT_EQ(st.members.router.accepted, st.members.hangups);
  // Every inter setup ended exactly one way.
  EXPECT_EQ(st.inter_calls, st.inter_connected + st.trunk_rejects +
                                st.ingress_aborts + st.egress_aborts);
  for (std::uint32_t g = 0; g < subs; ++g) {
    EXPECT_TRUE(fed.input_idle(g));
    EXPECT_TRUE(fed.output_idle(g));
  }
}

TEST(FederationTwoPhase, AbortStormBooksBalance) {
  for (const std::uint64_t stream : kStreams) {
    SCOPED_TRACE(stream);
    run_abort_storm(stream);
  }
}

TEST(TrunkGroupUnit, RotatingClaimFaultAndRepair) {
  TrunkGroup g(0, 0, 1, {{12, 12}, {13, 13}, {14, 14}});
  EXPECT_EQ(g.capacity(), 3u);
  EXPECT_EQ(g.occupancy(), 0u);
  // Rotating first-free scan: consecutive claims walk the lines.
  const auto a = g.claim(), b = g.claim(), c = g.claim();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(*c, 2u);
  EXPECT_EQ(g.occupancy(), 3u);
  // Full group: every claim fails and is booked.
  EXPECT_FALSE(g.claim().has_value());
  EXPECT_FALSE(g.claim().has_value());
  EXPECT_EQ(g.stats().rejects, 2u);
  // A released line is the next one claimed.
  g.release(1);
  EXPECT_EQ(g.occupancy(), 2u);
  EXPECT_EQ(g.claim(), std::optional<std::uint32_t>{1});
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

TEST(FederationFaults, TrunkFaultTearsDownTypedAndReadmits) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
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
void run_trunk_fault_storm(std::uint64_t stream) {
  const auto net = networks::build_cantor({5, 0});  // 32 ports per member
  Federation fed(net, 4);
  util::Xoshiro256 rng(util::derive_seed(1992, stream));
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
  // Every inter setup, the re-admissions included, ended exactly one way.
  EXPECT_EQ(st.inter_calls, st.inter_connected + st.trunk_rejects +
                                st.ingress_aborts + st.egress_aborts);
}

TEST(FederationFaults, TrunkFaultStormBooksBalance) {
  for (const std::uint64_t stream : kStreams) {
    SCOPED_TRACE(stream);
    run_trunk_fault_storm(stream);
  }
}

TEST(FederationFaults, MemberFaultAdoptsReroutedHalf) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
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
  Federation fed(net, 2);
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
  Federation fed(net, 2);
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
  EXPECT_EQ(cb_out.reject, RejectReason::kBadTerminal);
  EXPECT_EQ(cb_out.tag, 9u);
}

TEST(FederationBatched, TrunkExhaustionBouncesTypedWithinEpoch) {
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
  const std::uint32_t lines_01 =
      fed.trunk_group(fed.group_between(0, 1)).capacity();
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

TEST(FederationBatched, FrontEndBooksCountRequests) {
  const auto net = networks::build_cantor({4, 0});
  for (const std::uint64_t stream : kStreams) {
    SCOPED_TRACE(stream);
    Federation fed(net, 3);
    util::Xoshiro256 rng(util::derive_seed(28, stream));
    const auto n = static_cast<std::uint32_t>(fed.input_count());
    std::uint64_t requests = 0, epochs = 0, served = 0;
    std::vector<FedCallId> held;
    const auto on_done = [&](const FedOutcome& o) {
      if (!o.connected()) return;
      ++served;
      held.push_back(o.id);
    };
    for (int round = 0; round < 12; ++round) {
      const auto burst = static_cast<std::uint32_t>(rng.below(9));
      for (std::uint32_t i = 0; i < burst; ++i) {
        CallRequest req;
        req.input = static_cast<std::uint32_t>(rng.below(n));
        req.output = static_cast<std::uint32_t>(rng.below(n));
        req.priority = static_cast<std::uint8_t>(rng.below(4));
        req.tag = requests++;
        fed.submit(req, on_done);
      }
      const std::size_t drained = fed.drain();
      EXPECT_EQ(drained, burst);
      if (drained > 0) ++epochs;
      EXPECT_EQ(fed.drain(), 0u);  // an empty drain is not an epoch
      if (round % 3 == 2) {
        for (const FedCallId id : held)
          EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
        held.clear();
      }
    }
    ASSERT_GT(epochs, 0u);
    const FederationStats st = fed.stats();
    EXPECT_EQ(st.members.submitted, requests);
    EXPECT_EQ(st.members.admitted, requests);
    EXPECT_EQ(st.members.completed, requests);
    EXPECT_EQ(st.members.epochs, epochs);
    EXPECT_EQ(st.intra_calls + st.inter_calls, requests);
    EXPECT_GE(st.members.queue_high_water, 1u);
    EXPECT_LE(st.members.queue_high_water, 8u);
    std::uint64_t booked_served = 0, booked = 0;
    for (const ops::ClassStats& c : st.members.classes) {
      booked_served += c.served;
      booked += c.served + c.rejected;
      EXPECT_EQ(c.setup.count(), c.served);
    }
    EXPECT_EQ(booked, requests);
    EXPECT_EQ(booked_served, served);
    for (const FedCallId id : held)
      EXPECT_EQ(fed.hangup(id), RejectReason::kNone);
    EXPECT_EQ(fed.busy_vertices(), 0u);
    fed.reset_stats();
    EXPECT_EQ(fed.stats().members.submitted, 0u);
  }
}

// The two batched planes share one front end: a 1-shard federation (every
// port a subscriber, so every call is intra) and a default Exchange over
// the same network, driven by one seeded stream of mixed-priority submits
// (callbacks and pollable tickets), drains and hangups, return the same
// verdict per ticket and keep the same front-end rows.
TEST(FederationBatched, FrontEndBooksMatchTheExchange) {
  const auto net = networks::build_cantor({4, 0});
  for (const std::uint64_t stream : kStreams) {
    SCOPED_TRACE(stream);
    Federation fed(net, 1);
    Exchange ex(net);
    ASSERT_EQ(fed.input_count(), ex.input_count());
    util::Xoshiro256 rng(util::derive_seed(35, stream));
    const auto n = static_cast<std::uint32_t>(ex.input_count());
    std::vector<Outcome> ex_done;
    std::vector<FedOutcome> fed_done;
    std::vector<std::pair<CallId, FedCallId>> held;
    std::vector<Ticket> polled;  // pollable tickets not yet answered
    std::uint64_t tag = 0;
    for (int round = 0; round < 40; ++round) {
      const auto burst = static_cast<std::uint32_t>(rng.below(10));
      for (std::uint32_t i = 0; i < burst; ++i) {
        CallRequest req;
        req.input = static_cast<std::uint32_t>(rng.below(n));
        req.output = static_cast<std::uint32_t>(rng.below(n));
        req.priority = static_cast<std::uint8_t>(rng.below(5));
        req.tag = tag++;
        if (rng.below(2) == 0) {
          const Ticket t = ex.submit(req);
          EXPECT_EQ(fed.submit(req), t);
          polled.push_back(t);
        } else {
          const Ticket t = ex.submit(
              req, [&ex_done](const Outcome& o) { ex_done.push_back(o); });
          EXPECT_EQ(fed.submit(req, [&fed_done](const FedOutcome& o) {
                      fed_done.push_back(o);
                    }),
                    t);
        }
      }
      EXPECT_EQ(ex.pending(), fed.pending());
      if (rng.below(3) != 0) {  // some rounds leave the queue for the next
        EXPECT_EQ(ex.drain(), fed.drain());
      }
      std::vector<Ticket> queued;
      for (const Ticket t : polled) {
        const std::optional<Outcome> a = ex.poll(t);
        const std::optional<FedOutcome> b = fed.poll(t);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a) {
          queued.push_back(t);
          continue;
        }
        EXPECT_EQ(a->reject, b->reject);
        EXPECT_EQ(a->tag, b->tag);
        if (a->connected()) held.emplace_back(a->id, b->id);
      }
      polled = std::move(queued);
      ASSERT_EQ(ex_done.size(), fed_done.size());
      for (std::size_t i = 0; i < ex_done.size(); ++i) {
        EXPECT_EQ(ex_done[i].reject, fed_done[i].reject);
        EXPECT_EQ(ex_done[i].tag, fed_done[i].tag);
        if (ex_done[i].connected())
          held.emplace_back(ex_done[i].id, fed_done[i].id);
      }
      ex_done.clear();
      fed_done.clear();
      for (std::size_t drop = held.size() / 3; drop > 0; --drop) {
        const auto idx = static_cast<std::size_t>(rng.below(held.size()));
        EXPECT_EQ(ex.hangup(held[idx].first), RejectReason::kNone);
        EXPECT_EQ(fed.hangup(held[idx].second), RejectReason::kNone);
        held[idx] = held.back();
        held.pop_back();
      }
    }
    EXPECT_EQ(ex.drain_all(), fed.drain_all());
    for (const Ticket t : polled) {
      const std::optional<Outcome> a = ex.poll(t);
      const std::optional<FedOutcome> b = fed.poll(t);
      ASSERT_TRUE(a.has_value() && b.has_value());
      EXPECT_EQ(a->reject, b->reject);
      EXPECT_EQ(a->tag, b->tag);
    }
    const ExchangeStats a = ex.stats();
    const ExchangeStats b = fed.stats().members;
    EXPECT_EQ(a.submitted, tag);
    EXPECT_GT(a.epochs, 0u);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.deferred, b.deferred);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.queue_high_water, b.queue_high_water);
    for (std::size_t c = 0; c < ops::kQosClasses; ++c) {
      SCOPED_TRACE(c);
      EXPECT_EQ(a.classes[c].served, b.classes[c].served);
      EXPECT_EQ(a.classes[c].rejected, b.classes[c].rejected);
      EXPECT_EQ(a.classes[c].setup.count(), b.classes[c].setup.count());
    }
  }
}

// Trunk faults and member faults re-admit their victims through call(): a
// queued backlog is left as it was, and the next drain serves all of it.
TEST(FederationBatched, BacklogSurvivesTrunkAndMemberFaults) {
  const auto net = networks::build_cantor({5, 0});
  Federation fed(net, 2);
  const FedOutcome inter =
      fed.call({fed.global_of(0, 1), fed.global_of(1, 1), 0, 41});
  ASSERT_TRUE(inter.connected());
  const FedOutcome intra =
      fed.call({fed.global_of(0, 2), fed.global_of(0, 3), 0, 42});
  ASSERT_TRUE(intra.connected());
  constexpr std::uint32_t kBacklog = 10;
  for (std::uint32_t i = 0; i < kBacklog; ++i)
    fed.submit({fed.global_of(0, 8 + i), fed.global_of(i % 2, 8 + i), 0, i});
  const FederationStats before = fed.stats();

  // A trunk fault under the inter call.
  const TrunkGroup& tg = fed.trunk_group(inter.trunk_group);
  std::uint32_t line = tg.capacity();
  for (std::uint32_t l = 0; l < tg.capacity(); ++l)
    if (tg.line_busy(l)) line = l;
  ASSERT_LT(line, tg.capacity());
  const TrunkFaultImpact trunk = fed.fail_trunk(inter.trunk_group, line);
  ASSERT_EQ(trunk.killed.size(), 1u);
  ASSERT_TRUE(trunk.reroutes[0].connected());
  EXPECT_EQ(trunk.reroutes[0].tag, 41u);
  EXPECT_EQ(fed.pending(), kBacklog);

  // Member 0's switches in turn until one kills a call (the intra call or
  // the re-admitted inter call's ingress half).
  bool hit = false;
  for (graph::EdgeId e = 0; e < net.g.edge_count() && !hit; ++e) {
    fault::FaultEvent ev;
    ev.edge = e;
    const FedFaultImpact imp = fed.inject(0, ev);
    hit = imp.member.calls_killed() > 0;
    ev.kind = fault::FaultEvent::Kind::kRepair;
    fed.repair(0, ev);
  }
  ASSERT_TRUE(hit);
  EXPECT_EQ(fed.pending(), kBacklog);

  const FederationStats after = fed.stats();
  EXPECT_EQ(after.members.submitted, before.members.submitted);
  EXPECT_EQ(after.members.admitted, before.members.admitted);
  EXPECT_EQ(after.members.epochs, before.members.epochs);
  EXPECT_EQ(after.members.submitted, kBacklog);
  EXPECT_EQ(after.members.admitted, 0u);

  EXPECT_EQ(fed.drain_all(), kBacklog);
  EXPECT_EQ(fed.stats().members.epochs, 1u);
  EXPECT_EQ(fed.stats().members.completed, kBacklog);
}

// The merge algebra of FederationStats is walked row by row in
// test_ops_plane.cpp (StatsTable.*); this checks the delta a scrape takes
// against a LIVE federation.
TEST(FederationStatsMerge, LiveDeltaCarriesTrunkAndHalfCallActivity) {
  // A scrape-style before/after difference carries exactly the interval's
  // trunk/half-call activity.
  const auto net = networks::build_cantor({4, 0});
  Federation fed(net, 2);
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
