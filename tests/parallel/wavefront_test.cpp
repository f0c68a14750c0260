#include "parallel/wavefront.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace anyseq::parallel {
namespace {

/// Kernel that records execution order (and the threads it ran on) and
/// asserts dependencies.  It reports the tiles on even anti-diagonals as
/// striped, the rest as int32.
struct recording_kernel {
  std::mutex m;
  std::map<std::pair<int, int>, int> order;
  std::set<std::thread::id> threads;
  int counter = 0;
  int max_worker = -1;

  bool run(tile_coord t, int worker) {
    std::lock_guard lock(m);
    order[{t.ty, t.tx}] = counter++;
    threads.insert(std::this_thread::get_id());
    max_worker = std::max(max_worker, worker);
    return (t.ty + t.tx) % 2 == 0;
  }

  void verify_dependencies(grid_dims g) {
    for (int ty = 0; ty < g.tiles_y; ++ty)
      for (int tx = 0; tx < g.tiles_x; ++tx) {
        const int self = order.at({ty, tx});
        if (ty > 0) {
          EXPECT_LT(order.at({ty - 1, tx}), self);
        }
        if (tx > 0) {
          EXPECT_LT(order.at({ty, tx - 1}), self);
        }
      }
  }
};

/// One scheduler run over a fresh workspace.
wavefront_stats run_grid(int threads, grid_dims g, recording_kernel& k) {
  workspace ws;
  return dynamic_wavefront::run(threads, g, k, ws);
}

TEST(DepTracker, InitialDependencies) {
  workspace ws;
  dep_tracker deps({3, 4}, ws);
  EXPECT_EQ(deps.total_tiles(), 12);
  // (0,1) has one dependency (left); releasing it makes it ready.
  EXPECT_TRUE(deps.release({0, 1}));
  // (1,1) has two; both must be released.
  EXPECT_FALSE(deps.release({1, 1}));
  EXPECT_TRUE(deps.release({1, 1}));
}

TEST(DepTracker, OnFinishedEnablesNeighbors) {
  workspace ws;
  dep_tracker deps({2, 2}, ws);
  tile_coord ready[2];
  std::size_t n = 0;
  deps.on_finished({0, 0}, ready, n);
  // Both (1,0) and (0,1) depend only on (0,0).
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(ready[0], (tile_coord{1, 0}));
  EXPECT_EQ(ready[1], (tile_coord{0, 1}));
}

TEST(DynamicWavefront, EveryTileExecutedExactlyOnce) {
  recording_kernel k;
  run_grid(4, {7, 9}, k);
  EXPECT_EQ(k.order.size(), 63u);
  EXPECT_EQ(k.counter, 63);
}

TEST(DynamicWavefront, DependencyOrderRespected) {
  for (const grid_dims g : {grid_dims{6, 6}, grid_dims{3, 5}, grid_dims{4, 4},
                            grid_dims{1, 7}, grid_dims{6, 2}}) {
    recording_kernel k;
    run_grid(3, g, k);
    EXPECT_EQ(k.counter, g.total());
    k.verify_dependencies(g);
  }
}

TEST(DynamicWavefront, SingleThreadWorks) {
  recording_kernel k;
  run_grid(1, {5, 5}, k);
  EXPECT_EQ(k.counter, 25);
  k.verify_dependencies({5, 5});
}

TEST(DynamicWavefront, EmptyGridIsNoop) {
  recording_kernel k;
  const auto stats = run_grid(2, {0, 3}, k);
  EXPECT_EQ(k.counter, 0);
  EXPECT_EQ(stats.striped_tiles + stats.int32_tiles, 0u);
}

TEST(DynamicWavefront, OneByOneGrid) {
  recording_kernel k;
  run_grid(4, {1, 1}, k);
  EXPECT_EQ(k.counter, 1);
}

TEST(DynamicWavefront, StatsAccountForEveryTile) {
  recording_kernel k;
  const auto stats = run_grid(2, {8, 8}, k);
  EXPECT_EQ(stats.striped_tiles, 32u);  // the even anti-diagonals
  EXPECT_EQ(stats.int32_tiles, 32u);
  EXPECT_EQ(stats.workers, 2u);
  k.verify_dependencies({8, 8});
}

TEST(DynamicWavefront, WorkersCappedAtTheLongestDiagonal) {
  // More workers than a diagonal holds could never all be busy.
  const std::vector<std::pair<grid_dims, std::uint64_t>> cases = {
      {{1, 40}, 1}, {{2, 50}, 2}, {{9, 9}, 4}, {{40, 3}, 3}};
  for (const auto& [g, want] : cases) {
    recording_kernel k;
    const auto stats = run_grid(4, g, k);
    EXPECT_EQ(stats.workers, want) << g.tiles_y << "x" << g.tiles_x;
    EXPECT_LT(k.max_worker, static_cast<int>(want));
    EXPECT_EQ(stats.striped_tiles + stats.int32_tiles,
              static_cast<std::uint64_t>(g.total()));
  }
}

TEST(DynamicWavefront, ReadyRingBoundedByTheAntichain) {
  // Ready tiles are pairwise incomparable, so the queue never holds more
  // than the grid's longest anti-diagonal — the ring's size — and
  // therefore never migrates to owned storage.
  for (const grid_dims g : {grid_dims{17, 18}, grid_dims{1, 40},
                            grid_dims{40, 1}, grid_dims{9, 9}})
    for (int threads : {1, 2, 4, 8}) {
      recording_kernel k;
      const auto stats = run_grid(threads, g, k);
      EXPECT_LE(stats.peak_ready,
                static_cast<std::uint64_t>(max_ready_tiles(g)))
          << "threads " << threads;
      EXPECT_GT(stats.peak_ready, 0u);
    }
}

/// Spin until `flag` is set or ten seconds pass (a regression then fails
/// its expectations instead of hanging the suite).
void await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

TEST(DynamicWavefront, RunsInlineOnEveryPoolWorkerAtOnce) {
  // A service batch runs on a pool worker and may enter a wavefront
  // there.  With every worker inside a run at once, none is free to
  // help another's run, so each run stays inline on its own worker.
  thread_pool& pool = thread_pool::global();
  const int n = pool.size();
  const grid_dims g{9, 11};
  std::vector<recording_kernel> kernels(static_cast<std::size_t>(n));
  std::vector<wavefront_stats> stats(static_cast<std::size_t>(n));
  std::vector<std::thread::id> on(static_cast<std::size_t>(n));
  std::atomic<int> entered{0};
  for (int w = 0; w < n; ++w)
    pool.run([&, w] {
      // Hold every worker until all of them are inside a job.
      ++entered;
      while (entered.load() < n) std::this_thread::yield();
      on[w] = std::this_thread::get_id();
      stats[w] = run_grid(4, g, kernels[w]);
    });
  pool.wait_idle();
  for (int w = 0; w < n; ++w) {
    recording_kernel& k = kernels[w];
    EXPECT_EQ(k.counter, g.total());
    EXPECT_EQ(k.order.size(), static_cast<std::size_t>(g.total()));
    EXPECT_EQ(k.threads, std::set{on[w]}) << "worker " << w;
    EXPECT_EQ(stats[w].striped_tiles + stats[w].int32_tiles,
              static_cast<std::uint64_t>(g.total()));
    k.verify_dependencies(g);
  }
}

TEST(DynamicWavefront, CompletesOnTheCallerWhileEveryPoolWorkerIsBlocked) {
  // The run's helper jobs queue behind blocked workers: the caller
  // relaxes every tile itself and withdraws them instead of waiting.
  thread_pool& pool = thread_pool::global();
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0}, finished{0};
  for (int w = 0; w < pool.size(); ++w)
    pool.run([&] {
      ++blocked;
      await(release);
      ++finished;
    });
  while (blocked.load() < pool.size()) std::this_thread::yield();
  recording_kernel k;
  const grid_dims g{8, 8};
  const auto stats = run_grid(4, g, k);
  EXPECT_EQ(finished.load(), 0) << "the run waited for a blocked worker";
  release = true;
  pool.wait_idle();
  EXPECT_EQ(k.counter, 64);
  EXPECT_EQ(k.threads, std::set{std::this_thread::get_id()});
  EXPECT_EQ(stats.workers, 4u);  // slots, not threads
  k.verify_dependencies(g);
}

}  // namespace
}  // namespace anyseq::parallel
