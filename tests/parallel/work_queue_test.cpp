#include "parallel/work_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

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

TEST(MpmcQueue, PopBlocksUntilAnItemArrives) {
  mpmc_queue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(7);
  });
  EXPECT_EQ(q.pop().value(), 7);
  producer.join();
}

TEST(MpmcQueue, CloseWakesEveryConsumerBlockedInPop) {
  // The wavefront's exit path: workers parked in pop on an empty queue
  // must all wake on close() and report no item.
  mpmc_queue<int> q;
  constexpr int kConsumers = 4;
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      EXPECT_FALSE(q.pop().has_value());
      ++woke;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), kConsumers);
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
  // peak at or below the bound means the ring was never outgrown.  Past
  // the bound the queue migrates to owned storage and keeps FIFO order.
  std::vector<int> ring(4);
  mpmc_queue<int> q;
  q.bind(ring);
  for (int i = 0; i < 4; ++i) q.push(i);
  EXPECT_EQ(q.peak_size(), 4u);
  EXPECT_EQ(q.pop().value(), 0);
  q.push(4);  // wraps inside the bound ring
  EXPECT_EQ(ring[0], 4);
  q.push(5);  // overflows it
  EXPECT_EQ(q.peak_size(), 5u);
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

}  // namespace
}  // namespace anyseq::parallel
