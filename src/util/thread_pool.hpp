// Persistent thread pool for fixed-size batches.
//
// Replaces the spawn-per-batch model that parallel.cpp used: Monte Carlo
// drivers submit thousands of batches per bench run, and thread creation
// (~50us each) dominated short batches. One pool now outlives all batches;
// workers park on a condvar between them, so an idle pool costs nothing.
//
// Every caller submits a few equal tasks at once (one chunk per worker, or
// one drain session each), so a batch is just a shared index: run(n, task)
// lists the batch, and every executor claims indices with one atomic
// increment until none is left. The calling thread claims indices too, so
// run() wakes at most n - 1 parked workers and a one-task batch runs on the
// caller without waking anyone. run() returns when all n tasks are done. A
// pool of size 0 runs batches inline, and a run() issued from INSIDE a pool
// worker executes inline serially: nested parallelism is not fanned out,
// which keeps the pool deadlock-free by construction.
//
// Determinism: run(n, task) promises nothing about which thread executes
// which index — callers needing reproducible results must key all state on
// the task index (the parallel_* wrappers' contract already requires this).
//
// Affinity: apply_affinity(policy) plans one cpu per worker over the
// discovered topology (util/cpu_topology.hpp) and has each worker pin
// ITSELF between batches — pinning on the worker thread means any memory
// the worker touches afterwards (lazily built router scratch) is
// first-touch allocated on the pinned cpu's node. The call returns the
// policy actually in effect: it degrades to kNone whenever the plan is
// unsatisfiable (more workers than physical cores, non-Linux platform), so
// 1-2 core CI runners transparently run unpinned.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "util/cpu_topology.hpp"

namespace ftcs::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is valid: run() degrades to inline serial).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, sized from worker_count() (FTCS_THREADS env var,
  /// else hardware_concurrency) at first use. All parallel_* helpers and
  /// benches share it.
  static ThreadPool& global();

  [[nodiscard]] unsigned thread_count() const noexcept;

  /// True iff a run() issued from this thread can hand tasks to workers:
  /// the pool has some, and this thread is not one of them.
  [[nodiscard]] bool can_fan_out() const noexcept;

  /// Runs task(i) for i in [0, count); returns when every task finished.
  /// The caller helps execute. Safe to call concurrently from multiple
  /// external threads; re-entrant calls from pool workers run inline.
  /// `task` must not throw.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Pins live workers per `policy` over the host topology (or an explicit
  /// one, for tests). Blocks until every worker has re-pinned. Returns the
  /// policy actually in effect — kNone when the plan degenerates (see
  /// plan_affinity). Passing kNone unpins all workers.
  AffinityPolicy apply_affinity(AffinityPolicy policy);
  AffinityPolicy apply_affinity(AffinityPolicy policy, const CpuTopology& topo);

  /// Policy currently in effect (post-degrade).
  [[nodiscard]] AffinityPolicy affinity() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftcs::util
