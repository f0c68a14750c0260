#include "parallel/wavefront.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

namespace anyseq::parallel {
namespace {

/// Kernel that records execution order and asserts dependencies.  It
/// reports the tiles on even anti-diagonals as striped, the rest as
/// int32.
struct recording_kernel {
  std::mutex m;
  std::map<std::tuple<int, int, int>, int> order;
  int counter = 0;
  int max_worker = -1;

  bool run(tile_coord t, int worker) {
    std::lock_guard lock(m);
    order[{t.grid, t.ty, t.tx}] = counter++;
    max_worker = std::max(max_worker, worker);
    return (t.ty + t.tx) % 2 == 0;
  }

  void verify_dependencies(std::span<const grid_dims> grids) {
    for (std::size_t g = 0; g < grids.size(); ++g)
      for (index_t ty = 0; ty < grids[g].tiles_y; ++ty)
        for (index_t tx = 0; tx < grids[g].tiles_x; ++tx) {
          const int self = order.at({static_cast<int>(g),
                                     static_cast<int>(ty),
                                     static_cast<int>(tx)});
          if (ty > 0)
            EXPECT_LT(order.at({static_cast<int>(g), static_cast<int>(ty - 1),
                                static_cast<int>(tx)}),
                      self);
          if (tx > 0)
            EXPECT_LT(order.at({static_cast<int>(g), static_cast<int>(ty),
                                static_cast<int>(tx - 1)}),
                      self);
        }
  }
};

TEST(DepTracker, InitialDependencies) {
  grid_dims g{3, 4};
  dep_tracker deps(std::span(&g, 1));
  EXPECT_EQ(deps.total_tiles(), 12);
  // (0,1) has one dependency (left); releasing it makes it ready.
  EXPECT_TRUE(deps.release({0, 0, 1}));
  // (1,1) has two; both must be released.
  EXPECT_FALSE(deps.release({0, 1, 1}));
  EXPECT_TRUE(deps.release({0, 1, 1}));
}

TEST(DepTracker, OnFinishedEnablesNeighbors) {
  grid_dims g{2, 2};
  dep_tracker deps(std::span(&g, 1));
  std::vector<tile_coord> ready;
  deps.on_finished({0, 0, 0}, ready);
  // Both (0,1) and (1,0) depend only on (0,0).
  EXPECT_EQ(ready.size(), 2u);
}

class WavefrontBoth : public ::testing::TestWithParam<bool> {};

wavefront_stats run_scheduler(bool dynamic, int threads,
                              std::span<const grid_dims> grids,
                              recording_kernel& k) {
  return dynamic ? dynamic_wavefront::run(threads, grids, k)
                 : static_wavefront::run(threads, grids, k);
}

TEST_P(WavefrontBoth, EveryTileExecutedExactlyOnce) {
  const grid_dims g{7, 9};
  recording_kernel k;
  run_scheduler(GetParam(), 4, std::span(&g, 1), k);
  EXPECT_EQ(k.order.size(), 63u);
  EXPECT_EQ(k.counter, 63);
}

TEST_P(WavefrontBoth, DependencyOrderRespected) {
  const grid_dims g{6, 6};
  recording_kernel k;
  run_scheduler(GetParam(), 4, std::span(&g, 1), k);
  k.verify_dependencies(std::span(&g, 1));
}

TEST_P(WavefrontBoth, MultipleGridsAllComplete) {
  const grid_dims grids[] = {{3, 5}, {4, 4}, {1, 7}, {6, 2}};
  recording_kernel k;
  run_scheduler(GetParam(), 3, std::span(grids), k);
  EXPECT_EQ(k.counter, 15 + 16 + 7 + 12);
  k.verify_dependencies(std::span(grids));
}

TEST_P(WavefrontBoth, SingleThreadWorks) {
  const grid_dims g{5, 5};
  recording_kernel k;
  run_scheduler(GetParam(), 1, std::span(&g, 1), k);
  EXPECT_EQ(k.counter, 25);
  k.verify_dependencies(std::span(&g, 1));
}

TEST_P(WavefrontBoth, EmptyGridListIsNoop) {
  recording_kernel k;
  auto stats = run_scheduler(GetParam(), 2, {}, k);
  EXPECT_EQ(k.counter, 0);
  EXPECT_EQ(stats.striped_tiles + stats.int32_tiles, 0u);
}

TEST_P(WavefrontBoth, OneByOneGrid) {
  const grid_dims g{1, 1};
  recording_kernel k;
  run_scheduler(GetParam(), 4, std::span(&g, 1), k);
  EXPECT_EQ(k.counter, 1);
}

TEST_P(WavefrontBoth, StatsAccountForEveryTile) {
  const grid_dims g{8, 8};
  recording_kernel k;
  auto stats = run_scheduler(GetParam(), 2, std::span(&g, 1), k);
  EXPECT_EQ(stats.striped_tiles, 32u);  // the even anti-diagonals
  EXPECT_EQ(stats.int32_tiles, 32u);
  EXPECT_EQ(stats.workers, 2u);
  k.verify_dependencies(std::span(&g, 1));
}

TEST_P(WavefrontBoth, WorkersCappedAtTheLongestDiagonal) {
  // More workers than a diagonal holds could never all be busy.
  const std::vector<std::pair<grid_dims, std::uint64_t>> cases = {
      {{1, 40}, 1}, {{2, 50}, 2}, {{9, 9}, 4}, {{40, 3}, 3}};
  for (const auto& [g, want] : cases) {
    recording_kernel k;
    const auto stats = run_scheduler(GetParam(), 4, std::span(&g, 1), k);
    EXPECT_EQ(stats.workers, want) << g.tiles_y << "x" << g.tiles_x;
    EXPECT_LT(k.max_worker, static_cast<int>(want));
    EXPECT_EQ(stats.striped_tiles + stats.int32_tiles,
              static_cast<std::uint64_t>(g.total()));
  }
}

INSTANTIATE_TEST_SUITE_P(DynamicAndStatic, WavefrontBoth,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "dynamic" : "static";
                         });

TEST(DynamicWavefront, ReadyRingBoundedByTheAntichain) {
  // Ready tiles are pairwise incomparable, so the queue never holds more
  // than the longest anti-diagonal of each grid — the ring's size — and
  // therefore never migrates to owned storage.
  const std::vector<std::vector<grid_dims>> shapes = {
      {{17, 18}}, {{1, 40}}, {{40, 1}}, {{9, 9}}, {{3, 5}, {4, 4}, {6, 2}}};
  for (const auto& grids : shapes)
    for (int threads : {1, 2, 4, 8}) {
      recording_kernel k;
      const auto stats = dynamic_wavefront::run(threads, std::span(grids), k);
      EXPECT_LE(stats.peak_ready,
                static_cast<std::uint64_t>(max_ready_tiles(grids)))
          << "threads " << threads;
      EXPECT_GT(stats.peak_ready, 0u);
    }
}

}  // namespace
}  // namespace anyseq::parallel
