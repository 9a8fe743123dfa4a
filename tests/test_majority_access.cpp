#include <gtest/gtest.h>

#include "fault/fault_instance.hpp"
#include "ftcs/router.hpp"
#include "graph/algorithms.hpp"
#include "graph/transform.hpp"
#include "ftcs/majority_access.hpp"
#include "networks/crossbar.hpp"

namespace ftcs::core {
namespace {

TEST(MajorityAccess, CleanCrossbarFullAccess) {
  const auto net = networks::build_crossbar(6);
  const auto report = check_majority_access(net, {});
  EXPECT_TRUE(report.majority);
  EXPECT_EQ(report.idle_inputs, 6u);
  EXPECT_EQ(report.min_access, 6u);
  EXPECT_EQ(report.required, 4u);
}

TEST(MajorityAccess, FaultyOutputsReduceAccess) {
  const auto net = networks::build_crossbar(6);
  std::vector<std::uint8_t> faulty(net.g.vertex_count(), 0);
  // Mark 3 of 6 outputs faulty: access drops to 3 < required 4.
  for (int o = 0; o < 3; ++o) faulty[net.outputs[o]] = 1;
  const auto report = check_majority_access(net, faulty);
  EXPECT_FALSE(report.majority);
  EXPECT_EQ(report.min_access, 3u);
}

TEST(MajorityAccess, ExactlyHalfIsNotMajority) {
  const auto net = networks::build_crossbar(4);
  std::vector<std::uint8_t> faulty(net.g.vertex_count(), 0);
  faulty[net.outputs[0]] = 1;
  faulty[net.outputs[1]] = 1;
  const auto report = check_majority_access(net, faulty);
  EXPECT_EQ(report.min_access, 2u);
  EXPECT_EQ(report.required, 3u);
  EXPECT_FALSE(report.majority);  // strictly more than half needed
}

TEST(MajorityAccess, BusyVerticesBlockAccess) {
  const auto net = networks::build_crossbar(4);
  std::vector<std::uint8_t> busy(net.g.vertex_count(), 0);
  busy[net.inputs[0]] = 1;   // input 0 busy -> not counted as idle
  busy[net.outputs[0]] = 1;  // one output busy for everyone
  const auto report = check_majority_access(net, {}, busy);
  EXPECT_EQ(report.idle_inputs, 3u);
  EXPECT_EQ(report.min_access, 3u);
  EXPECT_TRUE(report.majority);
}

TEST(MajorityAccess, FaultyInputSkipped) {
  const auto net = networks::build_crossbar(4);
  std::vector<std::uint8_t> faulty(net.g.vertex_count(), 0);
  faulty[net.inputs[2]] = 1;
  const auto report = check_majority_access(net, faulty);
  EXPECT_EQ(report.idle_inputs, 3u);
  EXPECT_EQ(report.access_counts[2], SIZE_MAX);
}

TEST(MajorityAccess, MirrorEqualsForwardOnSymmetricNet) {
  const auto net = networks::build_crossbar(5);
  std::vector<std::uint8_t> faulty(net.g.vertex_count(), 0);
  faulty[net.outputs[0]] = 1;
  const auto fwd = check_majority_access(net, faulty);
  const auto bwd = check_majority_access_mirror(net, faulty);
  // Forward: inputs see 4 of 5 outputs. Backward: idle outputs see all 5
  // inputs. Both majority.
  EXPECT_TRUE(fwd.majority);
  EXPECT_TRUE(bwd.majority);
  EXPECT_EQ(bwd.idle_inputs, 4u);
  EXPECT_EQ(bwd.min_access, 5u);
}

TEST(MajorityAccess, NoIdleInputsVacuouslyMajor) {
  const auto net = networks::build_crossbar(2);
  std::vector<std::uint8_t> busy(net.g.vertex_count(), 0);
  busy[net.inputs[0]] = 1;
  busy[net.inputs[1]] = 1;
  const auto report = check_majority_access(net, {}, busy);
  EXPECT_EQ(report.idle_inputs, 0u);
  EXPECT_TRUE(report.majority);
}

TEST(GridAccess, CleanGridReachesAllRows) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 10));
  const auto access = grid_access(ft, 0, {});
  EXPECT_EQ(access.rows, ft.params.grid_rows());
  EXPECT_EQ(access.accessible, access.rows);
  EXPECT_TRUE(access.majority());
}

TEST(GridAccess, FaultyInputZeroAccess) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 11));
  std::vector<std::uint8_t> faulty(ft.net.g.vertex_count(), 0);
  faulty[ft.net.inputs[0]] = 1;
  const auto access = grid_access(ft, 0, faulty);
  EXPECT_EQ(access.accessible, 0u);
  EXPECT_FALSE(access.majority());
}

TEST(GridAccess, FaultColumnCutsAccess) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 12));
  std::vector<std::uint8_t> faulty(ft.net.g.vertex_count(), 0);
  // Kill the entire first column of grid 0: nothing reachable beyond.
  for (graph::VertexId v : ft.grid_columns[0][0]) faulty[v] = 1;
  const auto access = grid_access(ft, 0, faulty);
  EXPECT_EQ(access.accessible, 0u);
}

TEST(GridAccess, PartialFaultsDegradeGracefully) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 13));
  std::vector<std::uint8_t> faulty(ft.net.g.vertex_count(), 0);
  // Disable a quarter of the first column's rows.
  const auto& col0 = ft.grid_columns[0][0];
  for (std::size_t i = 0; i < col0.size() / 4; ++i) faulty[col0[i]] = 1;
  const auto access = grid_access(ft, 0, faulty);
  // The wrap-around diagonals recover all rows within `rows` columns; with
  // only 2 columns, at least the unfaulted rows' successors are reachable.
  EXPECT_GE(access.accessible, access.rows / 2);
  EXPECT_TRUE(access.majority());
}

TEST(MajorityAccess, FtNetworkCleanInstance) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 14));
  const auto fwd = check_majority_access(ft.net, {});
  EXPECT_TRUE(fwd.majority);
  EXPECT_EQ(fwd.min_access, ft.n());
  const auto bwd = check_majority_access_mirror(ft.net, {});
  EXPECT_TRUE(bwd.majority);
}

TEST(FtMajorityAccess, CenterStageIsCoreMiddle) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 16));
  EXPECT_EQ(ft.center_stage.size(), ft.params.stage_width());
  for (graph::VertexId v : ft.center_stage)
    EXPECT_EQ(ft.net.stage[v], 2 * 2);  // stage 2*nu of N-hat (mid-depth)
}

TEST(FtMajorityAccess, CleanNetworkFullCenterAccess) {
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 17));
  const auto report = ft_majority_access(ft, {});
  EXPECT_TRUE(report.majority());
  EXPECT_EQ(report.forward.min_access, ft.center_stage.size());
  EXPECT_EQ(report.backward.min_access, ft.center_stage.size());
}

TEST(FtMajorityAccess, BusyPathsLeaveMajorityIntact) {
  // Lemma 6's point: established calls consume one center vertex each, so
  // center-stage majority access survives maximal load (n << width/2).
  const auto ft = build_ft_network(FtParams::sim(2, 4, 6, 1, 18));
  Router router(ft.net);
  for (std::uint32_t i = 0; i < ft.n() / 2; ++i)
    ASSERT_NE(router.connect(i, i), Router::kNoCall);
  const auto report = ft_majority_access(ft, {}, router.busy_mask());
  EXPECT_TRUE(report.majority());
  EXPECT_GT(report.forward.min_access, ft.center_stage.size() / 2);
}

TEST(FtMajorityAccess, MajorityImpliesSharedCenterVertex) {
  // The containment argument: fwd majority + bwd majority => any idle
  // input/output pair shares an idle center vertex (pigeonhole).
  const auto ft = build_ft_network(FtParams::sim(2, 8, 6, 1, 19));
  fault::FaultInstance inst(ft.net, fault::FaultModel::symmetric(2e-3), 4);
  const auto faulty = inst.faulty_non_terminal_mask();
  const auto report = ft_majority_access(ft, faulty);
  ASSERT_TRUE(report.majority());
  // Pigeonhole check made explicit for input 0 / output 0.
  std::vector<std::uint8_t> is_center(ft.net.g.vertex_count(), 0);
  for (auto v : ft.center_stage) is_center[v] = 1;
  const graph::VertexId in0[1] = {ft.net.inputs[0]};
  const auto dist_fwd = graph::bfs_directed(ft.net.g, in0, faulty);
  const auto mirror_net = graph::mirror(ft.net);
  const graph::VertexId out0[1] = {ft.net.outputs[0]};
  const auto dist_bwd = graph::bfs_directed(mirror_net.g, out0, faulty);
  std::size_t common = 0;
  for (auto v : ft.center_stage)
    if (dist_fwd[v] != graph::kUnreachable && dist_bwd[v] != graph::kUnreachable)
      ++common;
  EXPECT_GT(common, 0u);
}

TEST(MajorityAccess, FtNetworkUnderModerateFaults) {
  const auto ft = build_ft_network(FtParams::sim(2, 8, 6, 1, 15));
  const auto model = fault::FaultModel::symmetric(1e-4);
  fault::FaultInstance inst(ft.net, model, 99);
  const auto fwd = check_majority_access(ft.net, inst.faulty_vertices());
  EXPECT_TRUE(fwd.majority);
}

}  // namespace
}  // namespace ftcs::core
