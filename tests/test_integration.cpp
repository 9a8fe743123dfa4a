// End-to-end scenarios crossing all modules: build 𝒩̂, inject faults,
// verify the §6 criterion, repair by discard, and route real traffic on the
// surviving network.
#include <gtest/gtest.h>

#include <numeric>

#include "fault/fault_instance.hpp"
#include "fault/repair.hpp"
#include "ftcs/ft_network.hpp"
#include "ftcs/majority_access.hpp"
#include "ftcs/monte_carlo.hpp"
#include "ftcs/router.hpp"
#include "ftcs/traffic.hpp"
#include "ftcs/verify.hpp"
#include "graph/algorithms.hpp"
#include "networks/cantor.hpp"
#include "util/prng.hpp"

namespace ftcs::core {
namespace {

class FtPipelineTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FtPipelineTest, FaultRepairRouteRoundTrip) {
  const std::uint32_t nu = GetParam();
  const auto ft = build_ft_network(FtParams::sim(nu, 8, 6, 1, 1000 + nu));
  const auto model = fault::FaultModel::symmetric(5e-4);
  fault::FaultInstance instance(ft.net, model, 17);

  // The §6 criterion.
  const auto trial = theorem2_trial(ft, model, 17);
  ASSERT_TRUE(trial.success());

  // Route a full random permutation greedily over the damaged network.
  const auto faulty = instance.faulty_non_terminal_mask();
  util::Xoshiro256 rng(99);
  std::vector<std::uint32_t> perm(ft.n());
  std::iota(perm.begin(), perm.end(), 0u);
  util::shuffle(perm, rng);
  const auto paths =
      route_permutation_greedy(ft.net, perm, 50, 5,
                               std::vector<std::uint8_t>(faulty.begin(), faulty.end()));
  ASSERT_TRUE(paths.has_value()) << "full permutation unroutable at nu=" << nu;
  EXPECT_EQ(validate_routing(ft.net, perm, *paths), "");
  // Paths only use non-faulty internal vertices.
  for (const auto& p : *paths)
    for (graph::VertexId v : p) EXPECT_FALSE(faulty[v]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FtPipelineTest, ::testing::Values(1u, 2u));

TEST(Integration, RepairedNetworkMatchesMaskSemantics) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 7));
  fault::FaultInstance instance(ft.net, fault::FaultModel::symmetric(2e-3), 3);
  const auto repaired = fault::repair_by_discard(instance);
  // The repaired network's surviving terminal counts agree with the mask
  // view used by the verifiers (every failed edge has an internal endpoint,
  // so discarded terminals can only come from terminal-incident failures).
  EXPECT_EQ(repaired.net.g.vertex_count() + repaired.discarded_vertices,
            ft.net.g.vertex_count());
  EXPECT_EQ(repaired.discarded_vertices, instance.faulty_vertex_count());
}

TEST(Integration, TrafficOnDamagedFtNetwork) {
  const auto ft = build_ft_network(FtParams::sim(2, 8, 6, 1, 8));
  fault::FaultInstance instance(ft.net, fault::FaultModel::symmetric(1e-3), 5);
  ASSERT_TRUE(theorem2_trial(ft, fault::FaultModel::symmetric(1e-3), 5).success());

  svc::Exchange exchange(ft.net);
  for (const fault::Failure& f : instance.failures())
    exchange.inject({0.0, f.edge, fault::FaultEvent::Kind::kFail});
  TrafficParams p;
  p.arrival_rate = 1.0;
  p.mean_holding = 2.0;
  p.sim_time = 500;
  p.seed = 11;
  const auto report = simulate_traffic(exchange, p);
  EXPECT_GT(report.carried, 100u);
  // Majority access held, so the surviving network is strictly nonblocking
  // and greedy routing must never block.
  EXPECT_EQ(report.blocked, 0u);
  EXPECT_EQ(report.blocked, report.service.router.rejected_no_path +
                                report.service.router.rejected_contention);
}

struct SampledRow {
  const char* what;
  const graph::Network* net;
  double eps;
  unsigned sessions;      // > 1: the shared store's batched plane
  double epoch_interval;  // 0: the immediate plane
  std::size_t offered, carried, blocked;
  std::uint64_t visits;
};

// A sampled fault instance (fault seed 1) applied to a fresh exchange as
// one open-failure inject per failed switch, then seeded traffic. The
// injects kill exactly the instance's faulty_non_terminal_mask() and fail
// its failed_edge_mask() (§6 discard), and the books are pinned exactly,
// blocking rows included.
TEST(Integration, SampledFaultsServeExactBooks) {
  const auto ft = build_ft_network(FtParams::sim(2, 8, 6, 1, 8));
  const auto k6 = networks::build_cantor({6, 0});
  const SampledRow rows[] = {
      {"ft-nu2 solo", &ft.net, 1e-3, 1, 0.0, 3649, 3649, 0, 29291},
      {"cantor-k6 solo", &k6, 3e-2, 1, 0.0, 6406, 6086, 320, 307479},
      {"cantor-k6 batched x2", &k6, 3e-2, 2, 0.5, 5751, 5457, 294, 278800},
  };
  for (const SampledRow& row : rows) {
    const fault::FaultInstance inst(*row.net,
                                    fault::FaultModel::symmetric(row.eps), 1);
    svc::ExchangeConfig cfg;
    if (row.sessions > 1) {
      cfg.backend = svc::Backend::kConcurrent;
      cfg.sessions = row.sessions;
    }
    svc::Exchange ex(*row.net, std::move(cfg));
    for (const fault::Failure& f : inst.failures())
      ex.inject({0.0, f.edge, fault::FaultEvent::Kind::kFail});
    EXPECT_EQ(ex.failed_switch_count(), inst.failures().size()) << row.what;
    TrafficParams p;
    p.arrival_rate = 8.0;
    p.mean_holding = 3.0;
    p.sim_time = 800.0;
    p.seed = 101;
    p.epoch_interval = row.epoch_interval;
    const TrafficReport r = simulate_traffic(ex, p);
    EXPECT_EQ(r.offered, row.offered) << row.what;
    EXPECT_EQ(r.carried, row.carried) << row.what;
    EXPECT_EQ(r.blocked, row.blocked) << row.what;
    EXPECT_EQ(r.service.router.vertices_visited, row.visits) << row.what;
    // The run's books are a delta: the setup injects are not in them.
    EXPECT_EQ(r.faults_injected, 0u) << row.what;
  }
}

TEST(Integration, ChurnOnDamagedFtNetworkNeverBlocks) {
  const auto ft = build_ft_network(FtParams::sim(2, 8, 6, 1, 12));
  fault::FaultInstance instance(ft.net, fault::FaultModel::symmetric(5e-4), 21);
  ASSERT_TRUE(theorem2_trial(ft, fault::FaultModel::symmetric(5e-4), 21).success());
  const auto faulty = instance.faulty_non_terminal_mask();
  const auto churn = nonblocking_churn(
      ft.net, 600, 3, std::vector<std::uint8_t>(faulty.begin(), faulty.end()));
  EXPECT_GT(churn.connects, 100u);
  EXPECT_EQ(churn.failures, 0u);
}

TEST(Integration, SuperconcentratorPropertySpotCheckOnFt) {
  // The containment chain of §2-§3: a nonblocking network is rearrangeable
  // is a superconcentrator — spot-check the weakest property directly on a
  // clean 𝒩̂ instance.
  const auto ft = build_ft_network(FtParams::sim(1, 4, 6, 1, 13));
  EXPECT_EQ(superconcentrator_violations(ft.net, 30, 9), 0u);
}

TEST(Integration, MirrorNetworkIsAlsoMajorityAccess) {
  // Corollary 2 via the graph transform: the mirror image built explicitly
  // agrees with the backward check on the original.
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 14));
  fault::FaultInstance instance(ft.net, fault::FaultModel::symmetric(1e-3), 2);
  const auto faulty = instance.faulty_non_terminal_mask();
  const auto m = graph::mirror(ft.net);
  const auto via_mirror = check_majority_access(m, faulty);
  const auto via_backward = check_majority_access_mirror(ft.net, faulty);
  EXPECT_EQ(via_mirror.majority, via_backward.majority);
  EXPECT_EQ(via_mirror.min_access, via_backward.min_access);
}

}  // namespace
}  // namespace ftcs::core
