/// \file wavefront.hpp
/// Tile-DAG schedulers for the CPU backend (paper §IV-A and Fig. 3).
///
/// The DP matrix of each alignment is cut into a grid of tiles whose
/// dependency structure is "up and left neighbor first" (paper Fig. 2).
/// Two schedulers execute such grids:
///
///  * `dynamic_wavefront` — the paper's contribution: ready tiles live in
///    a thread-safe queue; each worker pops one tile, relaxes it, and
///    keeps one of the tiles it made ready as its next (the rest go to
///    the queue).  Several alignments' grids can be in flight
///    simultaneously (Fig. 3 shows 4 alignments).
///
///  * `static_wavefront` — the baseline used by the paper's preliminary
///    version and by Parasail: tiles are processed anti-diagonal by
///    anti-diagonal with a barrier in between; load imbalance on short
///    diagonals and the per-diagonal barrier are its downfall (Fig. 6).
///
/// Both run at most as many workers as the grids' longest anti-diagonals
/// hold tiles (`max_ready_tiles`): more could never all be busy.  SIMD
/// lives inside a tile (tiled/striped.hpp), so threads own the whole
/// diagonal.  Kernels are passed as objects with
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

#include <atomic>
#include <barrier>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/macros.hpp"
#include "core/result.hpp"
#include "core/types.hpp"
#include "core/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_queue.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace parallel {

/// The thread pool itself is baseline code (one copy, compiled in
/// parallel/thread_pool.cpp); re-export its names into the per-target
/// scope so the cloned scheduler/engine code can keep the `parallel::`
/// spelling for them too.
using ::anyseq::parallel::hardware_threads;
using ::anyseq::parallel::run_workers;
using ::anyseq::parallel::thread_pool;

/// One tile of one alignment's grid.
struct tile_coord {
  std::int32_t grid = 0;
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

/// Atomic dependency counters for a set of grids ("the completion and
/// queuing status of all submatrices is tracked using preallocated arrays
/// of atomic flags", paper §IV-A).
///
/// The counter array lives either in caller-carved workspace memory
/// (the engines' zero-steady-state-allocation path: pass a workspace
/// and the tracker carves) or in an owned buffer (tests, one-shot use).
/// Counters are plain bytes mutated through std::atomic_ref — the
/// initializing writes happen before the workers are spawned.
class dep_tracker {
 public:
  explicit dep_tracker(std::span<const grid_dims> grids,
                       workspace* ws = nullptr) {
    index_t total = 0;
    if (ws != nullptr) {
      offsets_ = ws->make<index_t>(grids.size() + 1);
      grids_ = ws->make<grid_dims>(grids.size());
    } else {
      own_offsets_.resize(grids.size() + 1);
      own_grids_.resize(grids.size());
      offsets_ = own_offsets_;
      grids_ = own_grids_;
    }
    for (std::size_t g = 0; g < grids.size(); ++g) {
      offsets_[g] = total;
      grids_[g] = grids[g];
      total += grids[g].total();
    }
    offsets_[grids.size()] = total;
    if (ws != nullptr) {
      deps_ = ws->make<std::int8_t>(static_cast<std::size_t>(total));
    } else {
      own_deps_.resize(static_cast<std::size_t>(total));
      deps_ = own_deps_;
    }
    for (std::size_t g = 0; g < grids_.size(); ++g)
      for (index_t ty = 0; ty < grids_[g].tiles_y; ++ty)
        for (index_t tx = 0; tx < grids_[g].tiles_x; ++tx)
          deps_[static_cast<std::size_t>(
              index_of({static_cast<std::int32_t>(g),
                        static_cast<std::int32_t>(ty),
                        static_cast<std::int32_t>(tx)}))] =
              static_cast<std::int8_t>((ty > 0) + (tx > 0));
  }

  /// Arena bytes a workspace-backed tracker carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(std::size_t n_grids,
                                              index_t total_tiles) noexcept {
    return carve_bytes<index_t>(n_grids + 1) +
           carve_bytes<grid_dims>(n_grids) +
           carve_bytes<std::int8_t>(static_cast<std::size_t>(total_tiles));
  }

  /// Decrement the dependency count of a tile; true when it became ready.
  bool release(tile_coord t) {
    std::atomic_ref<std::int8_t> d(
        deps_[static_cast<std::size_t>(index_of(t))]);
    return d.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  /// Successors of a finished tile that became ready, appended to the
  /// raw buffer `ready_out` (capacity: 2 per finished tile).
  void on_finished(tile_coord t, tile_coord* ready_out,
                   std::size_t& ready_count) {
    const auto& g = grids_[static_cast<std::size_t>(t.grid)];
    if (t.ty + 1 < g.tiles_y) {
      tile_coord down{t.grid, t.ty + 1, t.tx};
      if (release(down)) ready_out[ready_count++] = down;
    }
    if (t.tx + 1 < g.tiles_x) {
      tile_coord right{t.grid, t.ty, t.tx + 1};
      if (release(right)) ready_out[ready_count++] = right;
    }
  }

  /// Vector-based convenience (tests).
  void on_finished(tile_coord t, std::vector<tile_coord>& ready_out) {
    tile_coord buf[2];
    std::size_t n = 0;
    on_finished(t, buf, n);
    for (std::size_t i = 0; i < n; ++i) ready_out.push_back(buf[i]);
  }

  [[nodiscard]] index_t total_tiles() const noexcept {
    return offsets_[grids_.size()];
  }
  [[nodiscard]] std::span<const grid_dims> grids() const noexcept {
    return grids_;
  }

 private:
  [[nodiscard]] index_t index_of(tile_coord t) const noexcept {
    const auto& g = grids_[static_cast<std::size_t>(t.grid)];
    return offsets_[static_cast<std::size_t>(t.grid)] + t.ty * g.tiles_x +
           t.tx;
  }

  std::span<grid_dims> grids_;
  std::span<index_t> offsets_;
  std::span<std::int8_t> deps_;
  std::vector<grid_dims> own_grids_;    ///< owning-mode backing
  std::vector<index_t> own_offsets_;
  std::vector<std::int8_t> own_deps_;
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
/// pairwise incomparable in the grid order, so each grid contributes at
/// most its longest anti-diagonal.
[[nodiscard]] inline index_t max_ready_tiles(
    std::span<const grid_dims> grids) noexcept {
  index_t sum = 0;
  for (const auto& g : grids) sum += std::min(g.tiles_y, g.tiles_x);
  return sum;
}

/// Workers one run starts: the requested count, capped at the tiles
/// the grids' longest anti-diagonals hold (which also keeps a one-tile
/// problem inline on the caller).
[[nodiscard]] inline int wavefront_workers(
    int n_threads, std::span<const grid_dims> grids) noexcept {
  return static_cast<int>(std::clamp<index_t>(
      n_threads, 1, std::max<index_t>(1, max_ready_tiles(grids))));
}

/// Per-run tile counts, added once per worker at its exit.
struct stat_counters {
  std::atomic<std::uint64_t> striped{0}, int32{0};

  void add(std::uint64_t s, std::uint64_t i) noexcept {
    striped.fetch_add(s, std::memory_order_relaxed);
    int32.fetch_add(i, std::memory_order_relaxed);
  }
  [[nodiscard]] wavefront_stats snapshot(int workers) const noexcept {
    return {striped.load(), int32.load(),
            static_cast<std::uint64_t>(workers), 0};
  }
};

/// Dynamic wavefront scheduler.
class dynamic_wavefront {
 public:
  /// Arena bytes one workspace-backed run carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(
      std::span<const grid_dims> grids) noexcept {
    index_t total = 0;
    for (const auto& g : grids) total += g.total();
    return dep_tracker::plan_bytes(grids.size(), total) +
           carve_bytes<tile_coord>(
               static_cast<std::size_t>(max_ready_tiles(grids)));
  }

  /// Execute the grids' tile DAG.  With `ws` set, the dependency
  /// counters and the ready-queue ring (max_ready_tiles slots — never
  /// outgrown, so the queue never migrates to owned storage) are carved
  /// from the workspace: a warm pass performs zero heap allocations.
  /// Without it, the scheduler owns throwaway buffers.
  template <class Kernel>
  static wavefront_stats run(int n_threads,
                             std::span<const grid_dims> grids,
                             Kernel& kernel, workspace* ws = nullptr) {
    dep_tracker deps(grids, ws);
    const index_t total = deps.total_tiles();
    if (total == 0) return {};

    const auto slots = static_cast<std::size_t>(max_ready_tiles(grids));
    const int workers = wavefront_workers(n_threads, grids);

    mpmc_queue<tile_coord> queue;
    std::vector<tile_coord> own_ring;
    std::span<tile_coord> ring;
    if (ws != nullptr) {
      ring = ws->make<tile_coord>(slots);
    } else {
      own_ring.resize(slots);
      ring = own_ring;
    }
    queue.bind(ring);
    for (std::size_t g = 0; g < grids.size(); ++g)
      if (grids[g].total() > 0)
        queue.push({static_cast<std::int32_t>(g), 0, 0});

    std::atomic<index_t> remaining{total};
    stat_counters stats;

    run_workers(workers, [&](int tid) {
      std::uint64_t striped = 0, int32 = 0;
      std::optional<tile_coord> next = queue.pop();
      while (next.has_value()) {
        const tile_coord t = *next;
        ++(kernel.run(t, tid) ? striped : int32);

        // Keep the first successor (its borders are hot in this core's
        // cache) and queue the other.
        tile_coord ready[2];
        std::size_t n_ready = 0;
        deps.on_finished(t, ready, n_ready);
        if (n_ready == 2) queue.push(ready[1]);

        if (remaining.fetch_sub(1) == 1) queue.close();  // wake all waiters
        next = n_ready > 0 ? std::optional(ready[0]) : queue.pop();
      }
      stats.add(striped, int32);
    });
    wavefront_stats out = stats.snapshot(workers);
    out.peak_ready = queue.peak_size();
    return out;
  }
};

/// Static per-diagonal wavefront (the Fig. 6 baseline).  Grids run one
/// after another; inside a grid, every anti-diagonal is split across the
/// workers and a barrier separates diagonals.
class static_wavefront {
 public:
  /// Arena bytes one workspace-backed run carves (the plan side): one
  /// worst-case diagonal chunk per worker.
  [[nodiscard]] static std::size_t plan_bytes(
      std::span<const grid_dims> grids, int n_threads) noexcept {
    const auto workers =
        static_cast<std::size_t>(wavefront_workers(n_threads, grids));
    return workers * carve_bytes<tile_coord>(
                         static_cast<std::size_t>(longest_diagonal(grids)));
  }

  /// Execute the grids diagonal-by-diagonal.  With `ws` set, the
  /// per-worker diagonal chunks are carved from the workspace (a warm
  /// pass performs zero heap allocations); without it, the scheduler
  /// owns a throwaway buffer.
  template <class Kernel>
  static wavefront_stats run(int n_threads, std::span<const grid_dims> grids,
                             Kernel& kernel, workspace* ws = nullptr) {
    stat_counters stats;
    const int workers = wavefront_workers(n_threads, grids);

    // Per-worker chunk buffers: a worker's share of one diagonal never
    // exceeds the longest diagonal of any grid.
    const auto stride = static_cast<std::size_t>(longest_diagonal(grids));
    std::vector<tile_coord> own_chunks;
    std::span<tile_coord> chunks;
    if (ws != nullptr) {
      chunks = ws->make<tile_coord>(static_cast<std::size_t>(workers) *
                                    stride);
    } else {
      own_chunks.resize(static_cast<std::size_t>(workers) * stride);
      chunks = own_chunks;
    }

    for (std::size_t g = 0; g < grids.size(); ++g) {
      const grid_dims dims = grids[g];
      if (dims.total() == 0) continue;
      // libstdc++'s std::barrier heap-allocates its state; a single
      // worker needs no synchronization at all, so only multi-worker
      // runs (which spawn threads, i.e. allocate anyway) construct one.
      std::optional<std::barrier<>> sync;
      if (workers > 1) sync.emplace(workers);
      run_workers(workers, [&](int tid) {
        tile_coord* chunk =
            chunks.data() + static_cast<std::size_t>(tid) * stride;
        std::uint64_t striped = 0, int32 = 0;
        for (index_t d = 0; d < dims.tiles_y + dims.tiles_x - 1; ++d) {
          const index_t ty_lo = d < dims.tiles_x ? 0 : d - dims.tiles_x + 1;
          const index_t ty_hi = d < dims.tiles_y ? d : dims.tiles_y - 1;
          const index_t count = ty_hi - ty_lo + 1;
          // Chunk the diagonal over workers.
          const index_t per = (count + workers - 1) / workers;
          const index_t lo = ty_lo + tid * per;
          const index_t hi = std::min(ty_hi + 1, lo + per);
          index_t n_chunk = 0;
          for (index_t ty = lo; ty < hi; ++ty)
            chunk[n_chunk++] = {static_cast<std::int32_t>(g),
                               static_cast<std::int32_t>(ty),
                               static_cast<std::int32_t>(d - ty)};
          for (index_t i = 0; i < n_chunk; ++i)
            ++(kernel.run(chunk[i], tid) ? striped : int32);
          if (sync.has_value()) sync->arrive_and_wait();
        }
        stats.add(striped, int32);
      });
    }
    return stats.snapshot(workers);
  }

 private:
  [[nodiscard]] static index_t longest_diagonal(
      std::span<const grid_dims> grids) noexcept {
    index_t max_diag = 0;
    for (const auto& g : grids)
      max_diag = std::max(max_diag, std::min(g.tiles_y, g.tiles_x));
    return max_diag;
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
using v_scalar::parallel::static_wavefront;
using v_scalar::parallel::tile_coord;
using v_scalar::parallel::wavefront_workers;
}  // namespace anyseq::parallel
#endif  // scalar exports

#endif  // per-target include guard
