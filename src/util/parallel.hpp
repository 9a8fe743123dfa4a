// Thread-parallel building blocks for Monte Carlo experiments.
//
// All three helpers dispatch onto the persistent util::ThreadPool
// (thread_pool.hpp) — batches no longer pay a thread-spawn per call. The chunk partition is a pure function of
// (total, threads), so per-chunk accumulators merged in chunk order are
// bit-identical across runs and pool sizes; bodies must key any randomness
// on the global trial index, never on the executing thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ftcs::util {

/// Number of worker threads to use (respects FTCS_THREADS env var,
/// otherwise hardware_concurrency, at least 1).
[[nodiscard]] unsigned worker_count() noexcept;

/// Run body(i) for i in [begin, end) across worker threads.
/// body must be safe to call concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Run body(thread_index, begin, end) on contiguous chunks — useful when the
/// body wants per-thread accumulators merged by the caller afterwards.
void parallel_chunks(
    std::size_t total, unsigned threads,
    const std::function<void(unsigned thread, std::size_t begin, std::size_t end)>& body);

/// Count successes of trial(i) over n trials in parallel; trial must be
/// deterministic given i (derive per-trial RNG seeds from i).
[[nodiscard]] std::uint64_t parallel_count(
    std::size_t n, const std::function<bool(std::size_t)>& trial);

}  // namespace ftcs::util
