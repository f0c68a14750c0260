#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace anyseq::parallel {
namespace {

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

/// Spin until `flag` is set or `deadline` passes (a regression then
/// fails its expectations instead of hanging the suite).
void await(const std::atomic<bool>& flag,
           std::chrono::steady_clock::time_point deadline) {
  while (!flag.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

std::chrono::steady_clock::time_point ten_seconds_from_now() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(10);
}

TEST(ThreadPool, ParallelForCallerClaimsChunks) {
  // Each pool worker holds its first chunk until the caller has run one:
  // the caller must claim chunks itself instead of sleeping on the jobs.
  thread_pool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> hits{0}, on_caller{0};
  const auto deadline = ten_seconds_from_now();
  pool.parallel_for(
      0, 8,
      [&](index_t) {
        if (std::this_thread::get_id() == caller) {
          ++on_caller;
          caller_ran = true;
        } else {
          await(caller_ran, deadline);
        }
        ++hits;
      },
      /*chunks_per_thread=*/4);
  EXPECT_EQ(hits.load(), 8);
  EXPECT_GE(on_caller.load(), 1);
}

TEST(ThreadPool, ParallelForDoesNotWaitForAJobNoWorkerStarted) {
  // The only worker is busy, so the loop's one job stays queued; the
  // caller runs both chunks and withdraws it instead of waiting.
  thread_pool pool(1);
  std::atomic<bool> release{false}, blocker_done{false};
  const auto deadline = ten_seconds_from_now();
  pool.run([&] {
    await(release, deadline);
    blocker_done = true;
  });
  std::atomic<int> hits{0};
  pool.parallel_for(0, 2, [&](index_t) { ++hits; }, /*chunks_per_thread=*/2);
  EXPECT_FALSE(blocker_done.load());
  release = true;
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 2);
}

TEST(ThreadPool, WithdrawnJobsLeaveNoSlotBehind) {
  // Loops back to back behind a busy worker: every job each loop queues
  // is withdrawn, and withdrawn jobs must not pile up in the ring.
  thread_pool pool(1);
  std::atomic<bool> release{false};
  pool.run([&] { await(release, ten_seconds_from_now()); });
  const auto cap = pool.ring_capacity();
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i)
    pool.parallel_for(0, 2, [&](index_t) { ++hits; },
                      /*chunks_per_thread=*/2);
  EXPECT_EQ(pool.ring_capacity(), cap);
  release = true;
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 200);
}

TEST(ThreadPool, ParallelForRethrowsTheCallersExceptionAfterTheJobs) {
  // The caller's first chunk throws; the held workers then finish the
  // other seven before the exception leaves parallel_for.
  thread_pool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> hits{0};
  const auto deadline = ten_seconds_from_now();
  EXPECT_THROW(pool.parallel_for(
                   0, 8,
                   [&](index_t) {
                     if (std::this_thread::get_id() == caller) {
                       caller_ran = true;
                       throw std::runtime_error("caller chunk");
                     }
                     await(caller_ran, deadline);
                     ++hits;
                   },
                   /*chunks_per_thread=*/4),
               std::runtime_error);
  EXPECT_EQ(hits.load(), 7);
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
