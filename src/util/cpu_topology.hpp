// CPU topology discovery and affinity planning.
//
// Reads the Linux sysfs CPU tree (cores, SMT siblings, NUMA nodes) so the
// serving plane can pin pool workers to explicit CPUs (a pinned worker's
// allocations first-touch near it). Discovery takes the sysfs root as a
// parameter so tests can point it at a fake tree; every parse failure
// degrades to a flat single-node topology built from hardware_concurrency —
// never an error. Planning is separated from pinning: plan_affinity() turns
// (topology, worker count, policy) into an explicit cpu-per-worker list and
// returns an EMPTY plan whenever the request cannot be honored (policy none,
// more workers than physical cores — the 1-2 core CI case — or a platform
// without sched_setaffinity), which callers treat as "run unpinned".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ftcs::util {

/// Alignment for hot concurrent state. 64 bytes covers x86 and most arm64;
/// we deliberately do not use std::hardware_destructive_interference_size
/// because its value may differ between TUs compiled with different tuning
/// flags, changing struct layout across the ABI.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Worker-pinning policy for ThreadPool.
///  kNone    — leave threads wherever the scheduler puts them.
///  kSpread  — one worker per physical core, round-robin across NUMA nodes
///             (maximizes cache + memory bandwidth per worker).
///  kCompact — fill one node's cores before spilling to the next
///             (minimizes cross-node traffic for shared state).
enum class AffinityPolicy : std::uint8_t { kNone, kSpread, kCompact };

[[nodiscard]] const char* to_string(AffinityPolicy p) noexcept;
/// Parses "none" / "spread" / "compact". Returns false on anything else.
bool affinity_from_string(std::string_view s, AffinityPolicy& out) noexcept;

struct CpuTopology {
  struct Cpu {
    unsigned id = 0;             ///< kernel cpu number
    int core = 0;                ///< dense physical-core index
    int node = 0;                ///< NUMA node
    bool smt_secondary = false;  ///< not the first cpu seen on its core
  };

  std::vector<Cpu> cpus;   ///< online cpus, ascending kernel id
  unsigned core_count = 0; ///< distinct physical cores
  unsigned node_count = 1; ///< distinct NUMA nodes (>= 1)
  bool from_sysfs = false; ///< false: hardware_concurrency fallback

  /// Reads `<root>/online`, `<root>/cpuN/topology/{core_id,
  /// physical_package_id}` and the `<root>/cpuN/node<K>` links. Any missing
  /// piece falls back gracefully (flat cores, node 0).
  static CpuTopology discover(
      const std::string& sysfs_cpu_root = "/sys/devices/system/cpu");

  /// NUMA node of kernel cpu `id`, or -1 if the cpu is not in this topology.
  [[nodiscard]] int node_of(unsigned id) const noexcept;
};

/// Cpu id per worker under `policy`, or an empty vector when pinning should
/// degrade to none: policy is kNone, workers == 0, or workers exceed the
/// physical core count (pinning two workers onto one core's SMT pair is a
/// throughput loss for this workload, so small CI boxes run unpinned).
[[nodiscard]] std::vector<unsigned> plan_affinity(const CpuTopology& topo,
                                                  unsigned workers,
                                                  AffinityPolicy policy);

/// True when this platform can actually pin threads (Linux).
[[nodiscard]] bool pinning_supported() noexcept;

/// Pins the calling thread to `cpu`. Returns false if unsupported or the
/// syscall failed; the thread is left unpinned in that case.
bool pin_current_thread(unsigned cpu) noexcept;

/// Clears any pin on the calling thread (restores the full cpu mask).
bool unpin_current_thread() noexcept;

}  // namespace ftcs::util
