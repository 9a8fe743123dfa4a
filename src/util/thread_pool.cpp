#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace ftcs::util {

namespace {

// Set while a thread is executing inside a pool worker loop; run() checks it
// to degrade nested submissions to inline execution instead of deadlocking
// on a full pool.
thread_local bool t_inside_pool_worker = false;

}  // namespace

struct ThreadPool::Impl {
  // One batch per run() call, on the submitter's stack. The submitter
  // returns only once `remaining` is 0 and the batch is off `open`, so an
  // executor may touch a batch while it holds the mutex or an unfinished
  // index of it, never otherwise.
  struct Batch {
    const std::function<void(std::size_t)>* fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::atomic<std::size_t> remaining;  // indices not yet finished
  };

  const unsigned threads;
  std::mutex m;
  std::condition_variable work_cv;  // parked workers
  std::condition_variable done_cv;  // submitters and appliers
  std::vector<Batch*> open;  // batches with indices left to claim, oldest first
  bool stop = false;

  // Affinity plan, guarded by m. A pin_epoch bump publishes a new plan; each
  // worker pins itself at the top of its loop and acks, and the applier
  // blocks until every worker has acked the current epoch — so when
  // apply_affinity() returns, all workers run on their planned cpus and
  // later allocations first-touch there.
  std::vector<unsigned> pin_plan;  // cpu per worker; empty = unpinned
  AffinityPolicy policy{AffinityPolicy::kNone};
  std::uint64_t pin_epoch = 0;
  unsigned pin_acks = 0;

  std::vector<std::thread> workers;  // last: the members above outlive them

  explicit Impl(unsigned n) : threads(n) {
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
      workers.emplace_back([this, w] { worker_loop(w); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    work_cv.notify_all();
    for (auto& w : workers) w.join();
  }

  /// Claims an index of the oldest open batch; m must be held. A batch
  /// leaves `open` once its last index is claimed.
  Batch* claim(std::size_t& i) {
    while (!open.empty()) {
      Batch* b = open.front();
      i = b->next.fetch_add(1, std::memory_order_relaxed);
      if (i + 1 >= b->count) open.erase(open.begin());
      if (i < b->count) return b;
    }
    return nullptr;
  }

  /// Runs index `i` of `b`, then claims and runs b's further indices until
  /// none is left. Each claim happens before the previous index counts as
  /// finished, so the batch is alive for it.
  void execute(Batch& b, std::size_t i) {
    for (;;) {
      (*b.fn)(i);
      const std::size_t j = b.next.fetch_add(1, std::memory_order_relaxed);
      const bool more = j < b.count;  // read b before finishing i
      if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last index: b may be gone now, so touch only pool state. The lock
        // pairs with the submitter's predicate check, so the notify cannot
        // slip between that check and its sleep.
        { std::lock_guard<std::mutex> lk(m); }
        done_cv.notify_all();
        return;
      }
      if (!more) return;
      i = j;
    }
  }

  void worker_loop(unsigned w) {
    t_inside_pool_worker = true;
    std::uint64_t applied = 0;
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      work_cv.wait(lk, [&] {
        return stop || !open.empty() || applied != pin_epoch;
      });
      if (applied != pin_epoch) {
        // Pinning on the worker's own thread means what it allocates
        // afterwards is first-touched on the pinned cpu's node.
        applied = pin_epoch;
        if (w < pin_plan.size())
          pin_current_thread(pin_plan[w]);
        else
          unpin_current_thread();
        if (++pin_acks == threads) done_cv.notify_all();
        continue;
      }
      std::size_t i = 0;
      if (Batch* b = claim(i)) {
        lk.unlock();
        execute(*b, i);
        lk.lock();
      } else if (stop) {
        return;
      }
    }
  }

  AffinityPolicy apply_affinity(AffinityPolicy requested,
                                const CpuTopology& topo) {
    std::vector<unsigned> plan = plan_affinity(topo, threads, requested);
    const AffinityPolicy effective =
        plan.empty() ? AffinityPolicy::kNone : requested;
    std::unique_lock<std::mutex> lk(m);
    pin_plan = std::move(plan);
    policy = effective;
    pin_acks = 0;
    ++pin_epoch;
    work_cv.notify_all();
    done_cv.wait(lk, [this] { return pin_acks == threads; });
    return effective;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count <= 1 || threads == 0 || t_inside_pool_worker) {
      // One task, no workers, or a nested submission: inline serial.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    Batch b{&fn, count, {}, {count}};
    {
      std::lock_guard<std::mutex> lk(m);
      open.push_back(&b);
    }
    // The submitter claims indices too, so it needs at most count - 1
    // helpers.
    const std::size_t helpers = std::min<std::size_t>(count - 1, threads);
    for (std::size_t k = 0; k < helpers; ++k) work_cv.notify_one();

    const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i < count) execute(b, i);
    std::unique_lock<std::mutex> lk(m);
    done_cv.wait(lk, [&b] {
      return b.remaining.load(std::memory_order_acquire) == 0;
    });
    // Still listed when this thread claimed the last index itself.
    std::erase(open, &b);
  }
};

ThreadPool::ThreadPool(unsigned threads)
    : impl_(std::make_unique<Impl>(threads)) {}

ThreadPool::~ThreadPool() = default;

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(worker_count());
  return pool;
}

unsigned ThreadPool::thread_count() const noexcept { return impl_->threads; }

bool ThreadPool::can_fan_out() const noexcept {
  return impl_->threads > 0 && !t_inside_pool_worker;
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  impl_->run(count, task);
}

AffinityPolicy ThreadPool::apply_affinity(AffinityPolicy policy) {
  return apply_affinity(policy, CpuTopology::discover());
}

AffinityPolicy ThreadPool::apply_affinity(AffinityPolicy policy,
                                          const CpuTopology& topo) {
  return impl_->apply_affinity(policy, topo);
}

AffinityPolicy ThreadPool::affinity() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->policy;
}

}  // namespace ftcs::util
