#include <gtest/gtest.h>

#include "fault/fault_instance.hpp"
#include "fault/fault_model.hpp"
#include "fault/repair.hpp"
#include "networks/crossbar.hpp"

namespace ftcs::fault {
namespace {

TEST(FaultModel, Validation) {
  EXPECT_NO_THROW(FaultModel::symmetric(0.1).validate());
  EXPECT_THROW((FaultModel{-0.1, 0.0}.validate()), std::invalid_argument);
  EXPECT_THROW((FaultModel{0.6, 0.6}.validate()), std::invalid_argument);
  EXPECT_DOUBLE_EQ(FaultModel::symmetric(0.2).total(), 0.4);
  EXPECT_DOUBLE_EQ(FaultModel::none().total(), 0.0);
}

TEST(Sampling, DeterministicInSeed) {
  const auto m = FaultModel::symmetric(0.05);
  const auto a = sample_failures(m, 10000, 7);
  const auto b = sample_failures(m, 10000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_EQ(a[i].state, b[i].state);
  }
  const auto c = sample_failures(m, 10000, 8);
  EXPECT_NE(a.size(), c.size());  // overwhelmingly likely
}

TEST(Sampling, RateMatchesModel) {
  const auto m = FaultModel{0.02, 0.01};
  std::size_t opens = 0, closes = 0;
  const std::size_t edges = 20000, reps = 25;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& f : sample_failures(m, edges, 100 + r)) {
      if (f.state == SwitchState::kOpenFail) ++opens;
      else ++closes;
    }
  }
  const double total = static_cast<double>(edges) * reps;
  EXPECT_NEAR(opens / total, 0.02, 0.002);
  EXPECT_NEAR(closes / total, 0.01, 0.0015);
}

TEST(Sampling, SortedAndInRange) {
  const auto fails = sample_failures(FaultModel::symmetric(0.1), 5000, 3);
  for (std::size_t i = 0; i < fails.size(); ++i) {
    EXPECT_LT(fails[i].edge, 5000u);
    if (i) {
      EXPECT_LT(fails[i - 1].edge, fails[i].edge);
    }
  }
}

TEST(Sampling, ZeroRateEmpty) {
  EXPECT_TRUE(sample_failures(FaultModel::none(), 1000, 1).empty());
}

// A failure probability so small that the skip gap passes 2^64 fails no
// switch (the gap once wrapped to 0 and failed every one).
TEST(Sampling, VanishingRateFailsNoSwitch) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    EXPECT_TRUE(sample_failures({1e-300, 0.0}, 1000, seed).empty()) << seed;
}

TEST(Sampling, DenseStatesAgreeWithSparse) {
  const auto m = FaultModel::symmetric(0.05);
  const auto sparse = sample_failures(m, 2000, 11);
  const auto dense = sample_states(m, 2000, 11);
  std::size_t failed = 0;
  for (std::size_t e = 0; e < dense.size(); ++e)
    if (dense[e] != SwitchState::kNormal) ++failed;
  EXPECT_EQ(failed, sparse.size());
  for (const auto& f : sparse) EXPECT_EQ(dense[f.edge], f.state);
}

graph::Network chain_net() {
  // 0 -> 1 -> 2 -> 3 with terminals 0 (input) and 3 (output).
  graph::NetworkBuilder nb;
  nb.g.add_vertices(4);
  nb.g.add_edge(0, 1);
  nb.g.add_edge(1, 2);
  nb.g.add_edge(2, 3);
  nb.inputs = {0};
  nb.outputs = {3};
  return nb.finalize();
}

TEST(FaultInstance, ExplicitFailuresIndexing) {
  const auto net = chain_net();
  FaultInstance inst(net, {{1, SwitchState::kOpenFail}});
  EXPECT_EQ(inst.state(0), SwitchState::kNormal);
  EXPECT_EQ(inst.state(1), SwitchState::kOpenFail);
  EXPECT_EQ(inst.open_count(), 1u);
  EXPECT_EQ(inst.closed_count(), 0u);
  // Edge 1 = (1, 2): both endpoints faulty.
  EXPECT_TRUE(inst.is_faulty(1));
  EXPECT_TRUE(inst.is_faulty(2));
  EXPECT_FALSE(inst.is_faulty(0));
  EXPECT_EQ(inst.faulty_vertex_count(), 2u);
}

TEST(FaultInstance, ClosedFailureContracts) {
  const auto net = chain_net();
  FaultInstance inst(net, {{0, SwitchState::kClosedFail},
                           {1, SwitchState::kClosedFail},
                           {2, SwitchState::kClosedFail}});
  EXPECT_TRUE(inst.terminals_shorted());
  const auto pair = inst.shorted_terminal_pair();
  ASSERT_TRUE(pair.has_value());
}

TEST(FaultInstance, PartialClosedChainNoShort) {
  const auto net = chain_net();
  FaultInstance inst(net, {{0, SwitchState::kClosedFail},
                           {2, SwitchState::kClosedFail}});
  EXPECT_FALSE(inst.terminals_shorted());
}

TEST(FaultInstance, OpenFailuresNeverShort) {
  const auto net = chain_net();
  FaultInstance inst(net, {{0, SwitchState::kOpenFail},
                           {1, SwitchState::kOpenFail},
                           {2, SwitchState::kOpenFail}});
  EXPECT_FALSE(inst.terminals_shorted());
}

TEST(FaultInstance, NoFailures) {
  const auto net = chain_net();
  FaultInstance inst(net, FaultModel::none(), 1);
  EXPECT_EQ(inst.faulty_vertex_count(), 0u);
  EXPECT_FALSE(inst.terminals_shorted());
}

TEST(Repair, DiscardRemovesFaultyVertices) {
  const auto net = chain_net();
  FaultInstance inst(net, {{1, SwitchState::kOpenFail}});
  const auto repaired = repair_by_discard(inst);
  EXPECT_EQ(repaired.discarded_vertices, 2u);
  EXPECT_EQ(repaired.net.g.vertex_count(), 2u);
  EXPECT_EQ(repaired.surviving_inputs, 1u);
  EXPECT_EQ(repaired.surviving_outputs, 1u);
  // Only normal edges survive (none here: both incident edges lost a vertex).
  EXPECT_EQ(repaired.net.g.edge_count(), 0u);
}

TEST(Repair, SurvivingEdgesAreNormal) {
  const auto net = networks::build_crossbar(8);
  const auto model = FaultModel::symmetric(0.02);
  FaultInstance inst(net, model, 99);
  const auto repaired = repair_by_discard(inst);
  // Every surviving edge maps back to a normal edge: verify via state() by
  // reconstructing — all faulty-endpoint edges were dropped by construction.
  EXPECT_LE(repaired.net.g.edge_count(), net.g.edge_count());
  EXPECT_EQ(repaired.net.g.vertex_count() + repaired.discarded_vertices,
            net.g.vertex_count());
}

TEST(Repair, NeighborsVariantDiscardsMore) {
  const auto net = networks::build_crossbar(8);
  FaultInstance inst(net, FaultModel::symmetric(0.02), 7);
  const auto basic = repair_by_discard(inst);
  const auto strict = repair_by_discard_with_neighbors(inst);
  EXPECT_GE(strict.discarded_vertices, basic.discarded_vertices);
  const auto mask = faulty_with_neighbors(inst);
  std::size_t count = 0;
  for (auto f : mask) count += f;
  EXPECT_EQ(count, strict.discarded_vertices);
}

TEST(FaultInstance, NonTerminalMaskClearsTerminals) {
  const auto net = chain_net();
  FaultInstance inst(net, {{0, SwitchState::kOpenFail},
                           {2, SwitchState::kClosedFail}});
  // All four vertices are incident to a failed edge...
  EXPECT_EQ(inst.faulty_vertex_count(), 4u);
  // ...but the paper's mask exempts the terminals 0 and 3.
  const auto mask = inst.faulty_non_terminal_mask();
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);
  EXPECT_EQ(mask[2], 1);
  EXPECT_EQ(mask[3], 0);
}

TEST(FaultInstance, FailedEdgeMask) {
  const auto net = chain_net();
  FaultInstance inst(net, {{1, SwitchState::kOpenFail}});
  const auto mask = inst.failed_edge_mask();
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 1);
  EXPECT_EQ(mask[2], 0);
}

TEST(Repair, CleanInstanceKeepsEverything) {
  const auto net = chain_net();
  FaultInstance inst(net, FaultModel::none(), 5);
  const auto repaired = repair_by_discard(inst);
  EXPECT_EQ(repaired.discarded_vertices, 0u);
  EXPECT_EQ(repaired.net.g.edge_count(), net.g.edge_count());
}

}  // namespace
}  // namespace ftcs::fault
