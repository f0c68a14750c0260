#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

namespace anyseq::parallel {
namespace {

TEST(RunWorkers, AllWorkerIdsObserved) {
  std::mutex m;
  std::set<int> ids;
  run_workers(4, [&](int tid) {
    std::lock_guard lock(m);
    ids.insert(tid);
  });
  EXPECT_EQ(ids, (std::set<int>{0, 1, 2, 3}));
}

TEST(RunWorkers, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  run_workers(1, [&](int) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, RunsAllJobs) {
  thread_pool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.run([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  thread_pool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  thread_pool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](index_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  thread_pool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](index_t) { ++count; });
  pool.parallel_for(9, 3, [&](index_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  thread_pool pool(4);
  std::atomic<long long> sum{0};
  pool.parallel_for(1, 10001, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 10000LL * 10001 / 2);
}

TEST(ThreadPool, NestedJobsDoNotDeadlock) {
  thread_pool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i)
    pool.run([&] {
      pool.run([&] { ++count; });
      ++count;
    });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ParallelForFromEveryWorkerAtOnceCompletes) {
  // A service batch runs on a pool worker and may fan out through the
  // same pool.  With every worker inside parallel_for at once, no worker
  // is free to run queued chunk jobs, so the nested loops run inline.
  constexpr int kWorkers = 4;
  thread_pool pool(kWorkers);
  std::atomic<int> entered{0};
  std::atomic<long long> sum{0};
  for (int w = 0; w < kWorkers; ++w)
    pool.run([&] {
      // Hold every worker until all of them are inside a job.
      ++entered;
      while (entered.load() < kWorkers) std::this_thread::yield();
      pool.parallel_for(0, 100, [&](index_t i) { sum += i; });
    });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), kWorkers * 4950LL);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(thread_pool::global().size(), 1);
}

}  // namespace
}  // namespace anyseq::parallel
