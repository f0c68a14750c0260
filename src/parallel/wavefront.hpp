/// \file wavefront.hpp
/// The dynamic wavefront scheduler of the CPU backend (paper §IV-A).
///
/// The DP matrix of an alignment is cut into a grid of tiles whose
/// dependency structure is "up and left neighbor first" (paper Fig. 2).
/// Ready tiles live in a thread-safe queue; each worker pops one tile,
/// relaxes it, and keeps one of the tiles it made ready as its next (the
/// other goes to the queue).  The static per-diagonal baseline of the
/// paper's Fig. 6 is simulated only (schedsim/).
///
/// A run uses at most as many worker slots as the grid's longest
/// anti-diagonal holds tiles (`max_ready_tiles`): more could never all
/// be busy.  SIMD lives inside a tile (tiled/striped.hpp), so threads own
/// the whole diagonal.  Kernels are passed as objects with
///   `bool run(tile_coord, int worker)` — relax one tile; true when it
///        ran as a striped int16 pass, false for an exact int32 tile
/// mirroring the paper's composition of iteration strategy and tile code.
/// `worker` is the scheduler's worker id (0 <= worker < workers) so
/// kernels index into pre-carved per-worker workspace scratch instead of
/// keeping growth-only thread_local buffers.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::parallel`,
/// once per engine variant — the scheduler's queue/dependency loops run
/// inside the variant TU and must not share COMDATs with baseline code)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_PARALLEL_WAVEFRONT_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_PARALLEL_WAVEFRONT_HPP_
#undef ANYSEQ_PARALLEL_WAVEFRONT_HPP_
#else
#define ANYSEQ_PARALLEL_WAVEFRONT_HPP_
#endif

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>

#include "core/macros.hpp"
#include "core/result.hpp"
#include "core/types.hpp"
#include "core/workspace.hpp"
#include "parallel/work_queue.hpp"  // also re-exports the pool names

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace parallel {

/// One tile of the grid.
struct tile_coord {
  std::int32_t ty = 0;
  std::int32_t tx = 0;
  friend bool operator==(const tile_coord&, const tile_coord&) = default;
};

/// Tile-grid dimensions of one alignment.
struct grid_dims {
  index_t tiles_y = 0;
  index_t tiles_x = 0;
  [[nodiscard]] index_t total() const noexcept { return tiles_y * tiles_x; }
};

/// Atomic dependency counters for one grid ("the completion and queuing
/// status of all submatrices is tracked using preallocated arrays of
/// atomic flags", paper §IV-A).
///
/// The counters are carved from the caller's workspace (a warm pass
/// allocates nothing) and are plain bytes mutated through
/// std::atomic_ref — the initializing writes happen before the worker
/// jobs are queued on the pool, whose lock publishes them.
class dep_tracker {
 public:
  dep_tracker(grid_dims grid, workspace& ws)
      : grid_(grid),
        deps_(ws.make<std::int8_t>(static_cast<std::size_t>(grid.total()))) {
    std::size_t i = 0;
    for (index_t ty = 0; ty < grid_.tiles_y; ++ty)
      for (index_t tx = 0; tx < grid_.tiles_x; ++tx)
        deps_[i++] = static_cast<std::int8_t>((ty > 0) + (tx > 0));
  }

  /// Arena bytes the tracker carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(grid_dims grid) noexcept {
    return carve_bytes<std::int8_t>(static_cast<std::size_t>(grid.total()));
  }

  /// Decrement the dependency count of a tile; true when it became ready.
  bool release(tile_coord t) {
    std::atomic_ref<std::int8_t> d(deps_[index_of(t)]);
    return d.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Successors of a finished tile that became ready, appended to the
  /// raw buffer `ready_out` (capacity: 2 per finished tile).
  void on_finished(tile_coord t, tile_coord* ready_out,
                   std::size_t& ready_count) {
    if (t.ty + 1 < grid_.tiles_y) {
      const tile_coord down{t.ty + 1, t.tx};
      if (release(down)) ready_out[ready_count++] = down;
    }
    if (t.tx + 1 < grid_.tiles_x) {
      const tile_coord right{t.ty, t.tx + 1};
      if (release(right)) ready_out[ready_count++] = right;
    }
  }

  [[nodiscard]] index_t total_tiles() const noexcept { return grid_.total(); }

 private:
  [[nodiscard]] std::size_t index_of(tile_coord t) const noexcept {
    return static_cast<std::size_t>(t.ty * grid_.tiles_x + t.tx);
  }

  grid_dims grid_;
  std::span<std::int8_t> deps_;
};

/// Execution statistics: the shared `anyseq::wavefront_stats`
/// (core/result.hpp), re-exported because `aligner` surfaces it.
using ::anyseq::wavefront_stats;

/// Fold run `o` into the running totals `into` (workers and the peak
/// are maxima).
inline void accumulate(wavefront_stats& into,
                       const wavefront_stats& o) noexcept {
  into.striped_tiles += o.striped_tiles;
  into.int32_tiles += o.int32_tiles;
  into.workers = std::max(into.workers, o.workers);
  into.peak_ready = std::max(into.peak_ready, o.peak_ready);
}

/// Upper bound on the tiles ever queued at once: ready tiles are
/// pairwise incomparable in the grid order, so at most the grid's
/// longest anti-diagonal.
[[nodiscard]] inline index_t max_ready_tiles(grid_dims grid) noexcept {
  return std::min(grid.tiles_y, grid.tiles_x);
}

/// Worker slots one run uses (pool chunks, not threads: several share a
/// thread on a pool worker or past the pool's size): the requested count,
/// capped at the tiles the grid's longest anti-diagonal holds.
[[nodiscard]] inline int wavefront_workers(int n_threads,
                                           grid_dims grid) noexcept {
  return static_cast<int>(std::clamp<index_t>(
      n_threads, 1, std::max<index_t>(1, max_ready_tiles(grid))));
}

/// Dynamic wavefront scheduler.
class dynamic_wavefront {
 public:
  /// Arena bytes one run carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(grid_dims grid) noexcept {
    return dep_tracker::plan_bytes(grid) +
           carve_bytes<tile_coord>(
               static_cast<std::size_t>(max_ready_tiles(grid)));
  }

  /// Execute the grid's tile DAG.  The dependency counters and the
  /// ready-queue ring (max_ready_tiles slots — never outgrown, so the
  /// queue never migrates to owned storage) are carved from `ws`: a
  /// warm pass performs zero heap allocations.
  /// Its workers are chunks of one global-pool `parallel_for`: a late
  /// helper finds the queue closed; on a pool worker the run is inline.
  template <class Kernel>
  static wavefront_stats run(int n_threads, grid_dims grid, Kernel& kernel,
                             workspace& ws) {
    if (grid.total() == 0) return {};
    dep_tracker deps(grid, ws);
    const int workers = wavefront_workers(n_threads, grid);

    mpmc_queue<tile_coord> queue;
    queue.bind(ws.make<tile_coord>(
        static_cast<std::size_t>(max_ready_tiles(grid))));
    queue.push({0, 0});

    std::atomic<index_t> remaining{grid.total()};
    std::atomic<std::uint64_t> striped_total{0}, int32_total{0};

    const auto worker = [&](index_t tid) {
      std::uint64_t striped = 0, int32 = 0;
      std::optional<tile_coord> next = queue.pop();
      while (next.has_value()) {
        const tile_coord t = *next;
        ++(kernel.run(t, static_cast<int>(tid)) ? striped : int32);

        // Keep the first successor (its borders are hot in this core's
        // cache) and queue the other.
        tile_coord ready[2];
        std::size_t n_ready = 0;
        deps.on_finished(t, ready, n_ready);
        if (n_ready == 2) queue.push(ready[1]);

        if (remaining.fetch_sub(1) == 1) queue.close();  // wake all waiters
        next = n_ready > 0 ? std::optional(ready[0]) : queue.pop();
      }
      striped_total.fetch_add(striped, std::memory_order_relaxed);
      int32_total.fetch_add(int32, std::memory_order_relaxed);
    };
    thread_pool::global().parallel_for(0, workers, worker,
                                       /*chunks_per_thread=*/1);
    return {striped_total.load(), int32_total.load(),
            static_cast<std::uint64_t>(workers), queue.peak_size()};
  }
};

}  // namespace parallel
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::parallel {
using v_scalar::parallel::dep_tracker;
using v_scalar::parallel::dynamic_wavefront;
using v_scalar::parallel::grid_dims;
using v_scalar::parallel::max_ready_tiles;
using v_scalar::parallel::tile_coord;
using v_scalar::parallel::wavefront_workers;
}  // namespace anyseq::parallel
#endif  // scalar exports

#endif  // per-target include guard
