#include "parallel/work_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace anyseq::parallel {
namespace {

TEST(MpmcQueue, FifoOrderSingleThread) {
  mpmc_queue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(MpmcQueue, PopAfterCloseDrainsThenEmpty) {
  mpmc_queue<int> q;
  q.push(1);
  q.close();
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, TryPopNTakesAtMostN) {
  mpmc_queue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

TEST(MpmcQueue, PopNBlocksUntilItemOrClose) {
  mpmc_queue<int> q;
  std::vector<int> out;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(7);
  });
  EXPECT_EQ(q.pop_n(out, 3), 1u);
  EXPECT_EQ(out[0], 7);
  producer.join();
}

TEST(MpmcQueue, CloseWakesConsumerBlockedInPopN) {
  // The service batcher's shutdown path: a consumer parked in pop_n on
  // an empty queue must wake on close() and report zero items.
  mpmc_queue<int> q;
  std::vector<int> out;
  std::thread consumer([&] { EXPECT_EQ(q.pop_n(out, 8), 0u); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(out.empty());
}

TEST(MpmcQueue, CloseWakesEveryBlockedPopN) {
  mpmc_queue<int> q;
  constexpr int kConsumers = 4;
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      std::vector<int> out;
      EXPECT_EQ(q.pop_n(out, 4), 0u);
      ++woke;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), kConsumers);
}

TEST(MpmcQueue, PopNDrainsRemainderAfterClose) {
  mpmc_queue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  q.close();
  std::vector<int> out;
  EXPECT_EQ(q.pop_n(out, 3), 3u);
  EXPECT_EQ(q.pop_n(out, 3), 2u);
  EXPECT_EQ(q.pop_n(out, 3), 0u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MpmcQueue, ConcurrentPushManyTryPopNDeliversChunksInOrder) {
  // The batcher's ingest pattern: producers publish whole chunks with
  // push_many while consumers grab bounded runs with try_pop_n/pop_n.
  // Every item must arrive exactly once and per-producer FIFO order
  // must survive the races.
  mpmc_queue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPer = 4000;
  constexpr int kTotal = kProducers * kPer;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      std::vector<int> chunk;
      int next = 0;
      std::size_t chunk_len = 1;
      while (next < kPer) {
        chunk.clear();
        for (std::size_t k = 0; k < chunk_len && next < kPer; ++k)
          chunk.push_back(p * kPer + next++);
        q.push_many(chunk);
        chunk_len = chunk_len % 7 + 1;  // vary 1..7
      }
    });
  std::mutex seen_mutex;
  std::vector<std::vector<int>> seen(kProducers);
  std::atomic<int> taken{0};
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&, c] {
      std::vector<int> got;
      while (taken.load() < kTotal) {
        got.clear();
        const std::size_t n =
            c % 2 == 0 ? q.try_pop_n(got, 5) : q.pop_n(got, 5);
        if (n == 0) {
          if (q.closed()) break;
          std::this_thread::yield();
          continue;
        }
        taken.fetch_add(static_cast<int>(n));
        std::lock_guard lock(seen_mutex);
        for (const int v : got) seen[v / kPer].push_back(v);
        if (taken.load() >= kTotal) q.close();
      }
    });
  for (auto& t : threads) t.join();
  int total_seen = 0;
  for (int p = 0; p < kProducers; ++p) {
    total_seen += static_cast<int>(seen[p].size());
    // Exactly-once delivery: sorted, each producer's values are exactly
    // p*kPer .. p*kPer+kPer-1 (no loss, no duplication).
    std::vector<int> sorted = seen[p];
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), static_cast<std::size_t>(kPer));
    for (int i = 0; i < kPer; ++i) ASSERT_EQ(sorted[i], p * kPer + i);
  }
  EXPECT_EQ(total_seen, kTotal);
}

TEST(MpmcQueue, SingleConsumerSeesPerProducerFifoUnderPushMany) {
  // With one consumer the pop sequence is the queue order, so each
  // producer's items must appear strictly increasing even while chunked
  // push_many calls from 4 producers interleave.
  mpmc_queue<int> q;
  constexpr int kProducers = 4, kPer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      std::vector<int> chunk;
      int next = 0;
      std::size_t chunk_len = 3;
      while (next < kPer) {
        chunk.clear();
        for (std::size_t k = 0; k < chunk_len && next < kPer; ++k)
          chunk.push_back(p * kPer + next++);
        q.push_many(chunk);
        chunk_len = chunk_len % 5 + 1;
      }
    });
  std::vector<int> last(kProducers, -1);
  int taken = 0;
  std::vector<int> got;
  while (taken < kProducers * kPer) {
    got.clear();
    const std::size_t n = q.pop_n(got, 7);
    taken += static_cast<int>(n);
    for (const int v : got) {
      const int p = v / kPer;
      ASSERT_GT(v, last[p]) << "per-producer FIFO order violated";
      last[p] = v;
    }
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(last[p], p * kPer + kPer - 1);
}

TEST(MpmcQueue, PushManyEmptyIsANoOp) {
  mpmc_queue<int> q;
  q.push_many({});
  EXPECT_EQ(q.size(), 0u);
  q.push(1);
  q.push_many({});
  EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueue, ManyProducersManyConsumersDeliverEverything) {
  mpmc_queue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPer = 2500;
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPer; ++i) q.push(p * kPer + i);
    });
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        if (consumed.fetch_add(1) + 1 == kProducers * kPer) q.close();
      }
    });
  for (auto& t : threads) t.join();
  const long long n = kProducers * kPer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueue, BoundRingHoldsItsCapacityThenMigrates) {
  // The wavefront sizes its ring by the most tiles ever ready, so a
  // peak at or below the bound means the ring was never outgrown.
  std::vector<int> ring(4);
  mpmc_queue<int> q;
  q.bind(ring);
  for (int i = 0; i < 4; ++i) q.push(i);
  EXPECT_EQ(q.peak_size(), 4u);
  EXPECT_TRUE(q.uses_bound_storage());
  EXPECT_EQ(q.pop().value(), 0);
  q.push(4);
  EXPECT_TRUE(q.uses_bound_storage());  // wrapped, still 4 queued
  q.push(5);
  EXPECT_EQ(q.peak_size(), 5u);
  EXPECT_FALSE(q.uses_bound_storage());
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(TreiberStack, LifoOrderSingleThread) {
  treiber_stack<int> s(8);
  EXPECT_TRUE(s.empty());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.push(i));
  for (int i = 4; i >= 0; --i) EXPECT_EQ(s.try_pop().value(), i);
  EXPECT_FALSE(s.try_pop().has_value());
}

TEST(TreiberStack, CapacityExhaustionReportsFalse) {
  treiber_stack<int> s(2);
  EXPECT_TRUE(s.push(1));
  EXPECT_TRUE(s.push(2));
  EXPECT_FALSE(s.push(3));
  s.try_pop();
  EXPECT_TRUE(s.push(3));  // capacity recycles
}

TEST(TreiberStack, ZeroCapacity) {
  treiber_stack<int> s(0);
  EXPECT_FALSE(s.push(1));
  EXPECT_FALSE(s.try_pop().has_value());
}

TEST(TreiberStack, ConcurrentPushPopConservesItems) {
  constexpr int kThreads = 8, kPer = 5000;
  treiber_stack<int> s(kThreads * kPer);
  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};
  run_workers(kThreads, [&](int tid) {
    // Each worker pushes its items and opportunistically pops.
    for (int i = 0; i < kPer; ++i) {
      ASSERT_TRUE(s.push(tid * kPer + i));
      if (i % 3 == 0) {
        if (auto v = s.try_pop()) {
          popped_sum += *v;
          ++popped_count;
        }
      }
    }
  });
  // Drain the rest.
  while (auto v = s.try_pop()) {
    popped_sum += *v;
    ++popped_count;
  }
  const long long n = kThreads * kPer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace anyseq::parallel
