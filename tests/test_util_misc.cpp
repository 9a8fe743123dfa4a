#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ftcs::util {
namespace {

TEST(Parallel, CountMatchesSerial) {
  const auto count = parallel_count(1000, [](std::size_t i) { return i % 3 == 0; });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < 1000; ++i)
    if (i % 3 == 0) ++expected;
  EXPECT_EQ(count, expected);
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> touched(500);
  parallel_for(0, 500, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(Parallel, ForWithOffset) {
  std::atomic<std::size_t> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + ... + 19
}

TEST(Parallel, ChunksPartitionTotal) {
  std::atomic<std::size_t> covered{0};
  parallel_chunks(1000, 7, [&](unsigned, std::size_t lo, std::size_t hi) {
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(covered.load(), 1000u);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, WorkerCountPositive) { EXPECT_GE(worker_count(), 1u); }

// FTCS_THREADS counts only as a whole decimal integer in [1, 256]; anything
// else falls back to the hardware count. Only worker_count() is asked, so
// no tested value ever sizes a pool.
TEST(Parallel, WorkerCountRejectsMalformedOrHugeFtcsThreads) {
  std::optional<std::string> saved;
  if (const char* env = std::getenv("FTCS_THREADS")) saved = env;
  ASSERT_EQ(unsetenv("FTCS_THREADS"), 0);
  const unsigned fallback = worker_count();
  EXPECT_GE(fallback, 1u);
  for (const auto& [value, expected] :
       {std::pair<const char*, unsigned>{"1", 1}, {"17", 17}, {"256", 256}}) {
    ASSERT_EQ(setenv("FTCS_THREADS", value, 1), 0);
    EXPECT_EQ(worker_count(), expected) << "FTCS_THREADS=\"" << value << '"';
  }
  for (const char* value : {"", "0", "-1", "+4", " 4", "4 ", "4x", "x4", "1.5",
                            "0x10", "257", "4294967297", "99999999999"}) {
    ASSERT_EQ(setenv("FTCS_THREADS", value, 1), 0);
    EXPECT_EQ(worker_count(), fallback) << "FTCS_THREADS=\"" << value << '"';
  }
  if (saved)
    ASSERT_EQ(setenv("FTCS_THREADS", saved->c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("FTCS_THREADS"), 0);
}

TEST(Parallel, ChunkPartitionIsPureFunctionOfTotalAndThreads) {
  // The bit-identical contract of the parallel_* helpers: chunk boundaries
  // depend only on (total, threads), never on the pool or scheduling.
  std::mutex m;
  std::vector<std::array<std::size_t, 3>> seen;
  parallel_chunks(1000, 7, [&](unsigned t, std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lk(m);
    seen.push_back({t, lo, hi});
  });
  std::sort(seen.begin(), seen.end());
  const std::size_t chunk = (1000 + 6) / 7;  // 143
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t][0], t);
    EXPECT_EQ(seen[t][1], t * chunk);
    EXPECT_EQ(seen[t][2], std::min<std::size_t>(1000, t * chunk + chunk));
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySequentialBatchesReuseWorkers) {
  // Exercises the park/wake cycle: each batch must wake parked workers and
  // complete; a lost wakeup would hang this test.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 300; ++batch)
    pool.run(5, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1500u);
}

TEST(ThreadPool, NestedRunFromWorkerExecutesInline) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ThreadPool, ConcurrentExternalSubmittersShareThePool) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s)
    submitters.emplace_back([&] {
      for (int batch = 0; batch < 50; ++batch)
        pool.run(7, [&](std::size_t) { total.fetch_add(1); });
    });
  for (auto& th : submitters) th.join();
  EXPECT_EQ(total.load(), 4u * 50u * 7u);
}

TEST(ThreadPool, ZeroWorkersDegradesToInline) {
  ThreadPool pool(0);
  std::size_t sum = 0;  // non-atomic on purpose: must run on this thread
  pool.run(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPool, SingleTaskRunsOnTheCaller) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  pool.run(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ConstructRunDestroyRepeatedly) {
  // Shutdown right after batches close, and batches whose last index lands
  // on a worker just before the pool goes away.
  std::size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(3);
    std::atomic<std::size_t> hits{0};
    for (const std::size_t count : {2u, 3u, 7u})
      pool.run(count, [&](std::size_t) { hits.fetch_add(1); });
    total += hits.load();
  }
  EXPECT_EQ(total, 200u * 12u);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 2.5);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "x"});
  std::ostringstream os;
  t.write_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatSig, Ranges) {
  EXPECT_EQ(format_sig(0.0), "0");
  EXPECT_EQ(format_sig(1.0), "1");
  EXPECT_EQ(format_sig(0.5), "0.5");
  EXPECT_NE(format_sig(1e-9).find("e"), std::string::npos);
  EXPECT_NE(format_sig(3.14159, 3), format_sig(3.14159, 5));
}

}  // namespace
}  // namespace ftcs::util
