// util/cpu_topology.hpp pins: sysfs discovery on fake trees, affinity plan
// shapes (spread/compact), the degrade-to-none contract, and the ThreadPool
// pinning plumbing (apply + auto-degrade + unpin).
//
// All discovery tests run against fake sysfs trees written under the test
// temp dir — the injectable `sysfs_cpu_root` exists exactly for this — so
// they are deterministic on any host, including the 1-core CI runners where
// real pinning always degrades.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/cpu_topology.hpp"
#include "util/thread_pool.hpp"

namespace ftcs::util {
namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& p, const std::string& text) {
  fs::create_directories(p.parent_path());
  std::ofstream f(p);
  f << text;
}

/// Writes one cpu entry of a fake sysfs tree: topology ids plus the
/// `node<K>` directory entry discovery scans for.
void add_cpu(const fs::path& root, unsigned id, int core_id, int package,
             int node) {
  const fs::path dir = root / ("cpu" + std::to_string(id));
  write_file(dir / "topology" / "core_id", std::to_string(core_id) + "\n");
  write_file(dir / "topology" / "physical_package_id",
             std::to_string(package) + "\n");
  fs::create_directories(dir / ("node" + std::to_string(node)));
}

fs::path fresh_root(const char* name) {
  const fs::path root = fs::path(testing::TempDir()) / name;
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

/// Hand-built topology for plan tests: `cores` primaries per node over
/// `nodes` nodes, cpu ids dense node-major.
CpuTopology make_topo(unsigned nodes, unsigned cores_per_node) {
  CpuTopology topo;
  unsigned id = 0;
  for (unsigned n = 0; n < nodes; ++n)
    for (unsigned c = 0; c < cores_per_node; ++c, ++id)
      topo.cpus.push_back({id, static_cast<int>(id), static_cast<int>(n), false});
  topo.core_count = nodes * cores_per_node;
  topo.node_count = nodes;
  topo.from_sysfs = true;
  return topo;
}

TEST(CpuTopology, DiscoverTwoNodeTree) {
  const auto root = fresh_root("topo_two_node");
  write_file(root / "online", "0-7\n");
  // Two packages; core_id restarts at 0 on the second package, which is
  // exactly the multi-socket aliasing the (package, core_id) key resolves.
  for (unsigned id = 0; id < 4; ++id) add_cpu(root, id, static_cast<int>(id), 0, 0);
  for (unsigned id = 4; id < 8; ++id)
    add_cpu(root, id, static_cast<int>(id - 4), 1, 1);

  const auto topo = CpuTopology::discover(root.string());
  EXPECT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.cpus.size(), 8u);
  EXPECT_EQ(topo.core_count, 8u);
  EXPECT_EQ(topo.node_count, 2u);
  for (const auto& c : topo.cpus) EXPECT_FALSE(c.smt_secondary);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(7), 1);
  EXPECT_EQ(topo.node_of(99), -1);
}

TEST(CpuTopology, DiscoverMarksSmtSecondaries) {
  const auto root = fresh_root("topo_smt");
  write_file(root / "online", "0-3\n");
  // cpu0/cpu2 share core 0, cpu1/cpu3 share core 1; first-seen is primary.
  add_cpu(root, 0, 0, 0, 0);
  add_cpu(root, 1, 1, 0, 0);
  add_cpu(root, 2, 0, 0, 0);
  add_cpu(root, 3, 1, 0, 0);

  const auto topo = CpuTopology::discover(root.string());
  ASSERT_EQ(topo.cpus.size(), 4u);
  EXPECT_EQ(topo.core_count, 2u);
  EXPECT_EQ(topo.node_count, 1u);
  EXPECT_FALSE(topo.cpus[0].smt_secondary);
  EXPECT_FALSE(topo.cpus[1].smt_secondary);
  EXPECT_TRUE(topo.cpus[2].smt_secondary);
  EXPECT_TRUE(topo.cpus[3].smt_secondary);
  EXPECT_EQ(topo.cpus[0].core, topo.cpus[2].core);
  EXPECT_EQ(topo.cpus[1].core, topo.cpus[3].core);
}

TEST(CpuTopology, MalformedOrMissingTreeFallsBackFlat) {
  const auto root = fresh_root("topo_bad");
  write_file(root / "online", "zero-seven\n");
  const auto bad = CpuTopology::discover(root.string());
  EXPECT_FALSE(bad.from_sysfs);
  EXPECT_GE(bad.core_count, 1u);
  EXPECT_EQ(bad.node_count, 1u);

  const auto missing = CpuTopology::discover((root / "nope").string());
  EXPECT_FALSE(missing.from_sysfs);
  EXPECT_GE(missing.cpus.size(), 1u);
}

TEST(CpuTopology, PolicyStringsRoundTrip) {
  for (const auto p : {AffinityPolicy::kNone, AffinityPolicy::kSpread,
                       AffinityPolicy::kCompact}) {
    AffinityPolicy back = AffinityPolicy::kNone;
    ASSERT_TRUE(affinity_from_string(to_string(p), back));
    EXPECT_EQ(back, p);
  }
  AffinityPolicy out;
  EXPECT_FALSE(affinity_from_string("numa", out));
}

TEST(AffinityPlan, SpreadRoundRobinsNodes) {
  const auto topo = make_topo(2, 4);  // node0: 0-3, node1: 4-7
  const auto plan = plan_affinity(topo, 4, AffinityPolicy::kSpread);
  if (!pinning_supported()) {
    EXPECT_TRUE(plan.empty());
    return;
  }
  EXPECT_EQ(plan, (std::vector<unsigned>{0, 4, 1, 5}));
}

TEST(AffinityPlan, CompactFillsNodeByNode) {
  const auto topo = make_topo(2, 4);
  const auto plan = plan_affinity(topo, 4, AffinityPolicy::kCompact);
  if (!pinning_supported()) {
    EXPECT_TRUE(plan.empty());
    return;
  }
  EXPECT_EQ(plan, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(AffinityPlan, SkipsSmtSecondaries) {
  auto topo = make_topo(1, 2);  // primaries 0, 1
  topo.cpus.push_back({2, 0, 0, true});
  topo.cpus.push_back({3, 1, 0, true});
  const auto plan = plan_affinity(topo, 2, AffinityPolicy::kCompact);
  if (!pinning_supported()) {
    EXPECT_TRUE(plan.empty());
    return;
  }
  EXPECT_EQ(plan, (std::vector<unsigned>{0, 1}));
}

TEST(AffinityPlan, DegradesToEmpty) {
  const auto topo = make_topo(2, 2);  // 4 physical cores
  EXPECT_TRUE(plan_affinity(topo, 4, AffinityPolicy::kNone).empty());
  EXPECT_TRUE(plan_affinity(topo, 0, AffinityPolicy::kSpread).empty());
  // Oversubscription (more workers than physical cores) must degrade — the
  // CI-runner contract.
  EXPECT_TRUE(plan_affinity(topo, 5, AffinityPolicy::kSpread).empty());
  EXPECT_TRUE(plan_affinity(topo, 5, AffinityPolicy::kCompact).empty());
}

TEST(ThreadPoolAffinity, OversubscribedRequestDegradesToNone) {
  ThreadPool pool(4);
  const auto topo = make_topo(1, 2);  // 2 cores < 4 workers
  EXPECT_EQ(pool.apply_affinity(AffinityPolicy::kSpread, topo),
            AffinityPolicy::kNone);
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kNone);
  // Degraded pool still serves work.
  std::atomic<int> hits{0};
  pool.run(64, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolAffinity, AppliesPlanAndUnpins) {
  if (!pinning_supported()) GTEST_SKIP() << "no sched_setaffinity here";
  ThreadPool pool(2);
  const auto topo = make_topo(2, 2);  // spread plan: cpu0 (node0), cpu2 (node1)
  EXPECT_EQ(pool.apply_affinity(AffinityPolicy::kSpread, topo),
            AffinityPolicy::kSpread);
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kSpread);

  // The fake topology's cpu ids need not exist on this host, so the pin
  // syscall may fail — the pool must still run correctly either way.
  std::atomic<int> hits{0};
  pool.run(128, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 128);

  // kNone unpins.
  EXPECT_EQ(pool.apply_affinity(AffinityPolicy::kNone, topo),
            AffinityPolicy::kNone);
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kNone);
  pool.run(16, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 144);
}

TEST(ThreadPoolAffinity, RepeatedReapplicationIsStable) {
  ThreadPool pool(2);
  const auto topo = make_topo(1, 4);
  for (int round = 0; round < 3; ++round) {
    pool.apply_affinity(AffinityPolicy::kCompact, topo);
    std::atomic<int> hits{0};
    pool.run(32, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 32);
    pool.apply_affinity(AffinityPolicy::kNone, topo);
  }
  EXPECT_EQ(pool.affinity(), AffinityPolicy::kNone);
}

}  // namespace
}  // namespace ftcs::util
