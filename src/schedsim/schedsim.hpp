#pragma once
/// \file schedsim.hpp
/// Discrete-event simulator for wavefront tile scheduling.
///
/// Purpose (DESIGN.md §3): the paper's Fig. 6 compares dynamic vs. static
/// wavefront thread scaling on a 32-core machine.  The *object* of Fig. 6
/// is the scheduling policy, and that is fully determined by the tile
/// DAG, the per-tile cost, and the policy's synchronization structure.
/// The simulator replays the dependency structure the real dynamic
/// scheduler executes (same grid, same ready rule) on T virtual cores,
/// using per-tile costs measured from the real kernels, and reports
/// makespan and parallel efficiency.  The static policy exists only
/// here: the library runs the dynamic wavefront alone.
///
/// Dynamic policy: event-driven list scheduling — a tile may start as
/// soon as its dependencies finished and a core is free (that is what the
/// MPMC-queue scheduler achieves), plus a per-pop queue overhead.
///
/// Static policy: all tiles of anti-diagonal d are distributed over the T
/// cores, then a barrier; per-diagonal time is ceil(k_d / T) tile costs
/// plus the barrier overhead.  Short diagonals at the wavefront's ramp
/// up/down leave most cores idle — the effect that ruins Parasail and the
/// paper's preliminary version.

#include <span>
#include <vector>

#include "core/types.hpp"
#include "parallel/wavefront.hpp"

namespace anyseq::schedsim {

struct sim_params {
  double tile_cost_us = 50.0;     ///< cost of relaxing one tile
  double queue_overhead_us = 0.3; ///< dynamic: per dequeue/enqueue pair
  double barrier_cost_us = 8.0;   ///< static: per diagonal
};

struct sim_result {
  double makespan_us = 0.0;
  double busy_us = 0.0;      ///< sum of tile costs (useful work)
  double efficiency = 0.0;   ///< busy / (cores * makespan)
  std::uint64_t tiles = 0;
};

/// Simulate the dynamic wavefront on `cores` virtual cores.  Multiple
/// grids are in flight simultaneously (the paper's Fig. 3 case; the
/// library's scheduler runs one grid per call).
[[nodiscard]] sim_result simulate_dynamic(
    std::span<const parallel::grid_dims> grids, int cores,
    const sim_params& p);

/// Simulate the static per-diagonal wavefront (grids run sequentially).
[[nodiscard]] sim_result simulate_static(
    std::span<const parallel::grid_dims> grids, int cores,
    const sim_params& p);

/// Efficiency curve over a list of core counts (convenience for Fig. 6).
struct scaling_point {
  int cores;
  sim_result dynamic_r, static_r;
};
[[nodiscard]] std::vector<scaling_point> scaling_curve(
    std::span<const parallel::grid_dims> grids,
    std::span<const int> core_counts, const sim_params& p);

}  // namespace anyseq::schedsim
