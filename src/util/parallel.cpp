#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <thread>

#include "util/thread_pool.hpp"

namespace ftcs::util {

namespace {
// Largest FTCS_THREADS value worker_count() accepts.
constexpr unsigned kMaxFtcsThreads = 256;
}  // namespace

unsigned worker_count() noexcept {
  if (const char* env = std::getenv("FTCS_THREADS")) {
    // The whole value must be one decimal count: "4x", "-1", " 4" and an
    // overflowing run of digits all fall through to the hardware count.
    const std::string_view s(env);
    unsigned v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec == std::errc{} && end == s.data() + s.size() && v >= 1 &&
        v <= kMaxFtcsThreads)
      return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

void parallel_chunks(
    std::size_t total, unsigned threads,
    const std::function<void(unsigned, std::size_t, std::size_t)>& body) {
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(
      std::max<std::size_t>(total, 1))));
  if (threads == 1 || total <= 1) {
    body(0, 0, total);
    return;
  }
  // The chunk partition depends only on (total, threads) — NOT on pool size
  // or scheduling — so per-chunk accumulators merged in chunk order give
  // bit-identical results run-to-run regardless of which worker executes
  // which chunk.
  const std::size_t chunk = (total + threads - 1) / threads;
  const unsigned used = static_cast<unsigned>((total + chunk - 1) / chunk);
  ThreadPool::global().run(used, [&](std::size_t t) {
    const std::size_t begin = std::min(total, t * chunk);
    const std::size_t end = std::min(total, begin + chunk);
    if (begin < end) body(static_cast<unsigned>(t), begin, end);
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  parallel_chunks(end - begin, worker_count(),
                  [&](unsigned, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) body(begin + i);
                  });
}

std::uint64_t parallel_count(std::size_t n,
                             const std::function<bool(std::size_t)>& trial) {
  std::atomic<std::uint64_t> hits{0};
  parallel_chunks(n, worker_count(),
                  [&](unsigned, std::size_t lo, std::size_t hi) {
                    std::uint64_t local = 0;
                    for (std::size_t i = lo; i < hi; ++i)
                      if (trial(i)) ++local;
                    hits.fetch_add(local, std::memory_order_relaxed);
                  });
  return hits.load();
}

}  // namespace ftcs::util
