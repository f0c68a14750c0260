/// Figure 6 reproduction: thread scalability of the dynamic vs. static
/// wavefront schedulers (AVX2, long genomes).
///
/// Two complementary measurements (DESIGN.md §3):
///   1. measured wall-clock of the library's dynamic wavefront on real
///      threads, through the dispatched AVX2 variant (`anyseq::aligner`
///      with exec = simd_avx2, tile 256): the code production runs, not
///      an instantiation in this TU, which has no ISA flags.  Skipped
///      when the CPU or binary cannot run AVX2.  Counts above the
///      host's cores share the global pool's threads;
///   2. discrete-event replay of the same tile DAG on 1..32 virtual
///      cores under both policies, with the per-tile cost measured from
///      the real kernel — this reproduces the *policy* comparison the
///      figure is about (the static policy is simulated only).

#include "anyseq/anyseq.hpp"
#include "bench/harness.hpp"
#include "bench/paper_values.hpp"
#include "bio/datasets.hpp"
#include "core/scoring.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/wavefront.hpp"
#include "schedsim/schedsim.hpp"
#include "simd/detect.hpp"
#include "tiled/tile_kernel.hpp"

namespace {

using namespace anyseq;
using namespace anyseq::bench;

constexpr simple_scoring kScoring{2, -1};
constexpr linear_gap kLinear{-1};

/// Measure the real scalar-tile relaxation cost for the simulator.
double measure_tile_cost_us(stage::seq_view a, stage::seq_view b,
                            index_t tile) {
  tiled::tile_geometry geom(a.size(), b.size(), tile, tile);
  tiled::border_frontier fr(geom, false);
  fr.init(
      [](index_t j) { return init_h_row0<align_kind::global>(j, kLinear); },
      [](index_t i) { return init_h_col0<align_kind::global>(i, kLinear); });
  std::vector<score_t> h(tile + 1), e(tile + 1);
  const index_t reps = std::min<index_t>(geom.tiles_x, 16);
  stopwatch sw;
  for (index_t tx = 0; tx < reps; ++tx)
    (void)tiled::relax_tile_scalar<align_kind::global>(
        a, b, fr, 0, tx, kLinear, kScoring, h.data(), e.data());
  return sw.seconds() / static_cast<double>(reps) * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = args::parse(argc, argv, /*scale=*/512, /*pairs=*/0);
  const index_t tile = 256;
  const auto pr = bio::make_pair(0, a.scale);
  const auto av = pr.a.view(), bv = pr.b.view();
  std::printf("bench_fig6_scalability: pair of %lld x %lld bp, tile %lld\n",
              static_cast<long long>(av.size()),
              static_cast<long long>(bv.size()),
              static_cast<long long>(tile));

  // --- 1. measured (real threads, dispatched avx2 wavefront) ----------
  const std::uint64_t cells =
      static_cast<std::uint64_t>(av.size()) * bv.size();
  json_report report("fig6", a.repeats);
  report.set_meta("q_len", static_cast<long long>(av.size()));
  report.set_meta("s_len", static_cast<long long>(bv.size()));
  report.set_meta("tile", static_cast<long long>(tile));
  const auto features = simd::detect();
  if (!simd::lanes_runnable(16, features)) {
    std::printf("\nmeasured wall-clock skipped: AVX2 cannot run here (%s)\n",
                simd::describe(features).c_str());
  } else {
    std::printf("\nmeasured wall-clock, avx2 (host has %d hardware "
                "thread(s); larger counts share the pool's threads):\n",
                parallel::hardware_threads());
    std::printf("%8s %14s %14s %14s %8s\n", "threads", "route",
                "dynamic GCUPS", "striped tiles", "workers");
    for (int threads : {1, 2, 4}) {
      align_options opt;
      opt.exec = backend::simd_avx2;
      opt.match = kScoring.match;
      opt.mismatch = kScoring.mismatch;
      opt.gap_open = 0;
      opt.gap_extend = kLinear.gap;
      opt.tile = tile;
      opt.threads = threads;
      aligner al(opt);
      const std::string route = al.plan(av.size(), bv.size()).route;
      alignment_result r;
      al.align_into(av, bv, r);  // warm-up: sizes the workspace
      const double td =
          median_seconds(a.repeats, [&] { al.align_into(av, bv, r); });
      const wavefront_stats st = al.last_wavefront_stats();
      report.add("measured/dynamic/" + route + "/" + std::to_string(threads) +
                     "t",
                 td, 1,
                 {{"gcups", gcups(cells, td)},
                  {"threads", threads},
                  {"striped_tiles", static_cast<double>(st.striped_tiles)},
                  {"int32_tiles", static_cast<double>(st.int32_tiles)},
                  {"workers", static_cast<double>(st.workers)},
                  {"peak_ready", static_cast<double>(st.peak_ready)}});
      std::printf("%8d %14s %14.3f %14llu %8llu\n", threads, route.c_str(),
                  gcups(cells, td),
                  static_cast<unsigned long long>(st.striped_tiles),
                  static_cast<unsigned long long>(st.workers));
    }
  }

  // --- 2. schedule simulation on the real tile DAG --------------------
  const double tile_cost = measure_tile_cost_us(av, bv, tile);
  schedsim::sim_params p;
  p.tile_cost_us = tile_cost;
  p.queue_overhead_us = 0.5;
  p.barrier_cost_us = 25.0;  // measured order of a 16-32 thread barrier
  const parallel::grid_dims dims{stage::tile_count(av.size(), tile),
                                 stage::tile_count(bv.size(), tile)};
  std::printf(
      "\nschedule simulation (tile cost measured: %.1f us; grid %lld x "
      "%lld):\n",
      tile_cost, static_cast<long long>(dims.tiles_y),
      static_cast<long long>(dims.tiles_x));
  std::printf("%8s %12s %12s %12s %12s\n", "threads", "dyn eff", "stat eff",
              "paper dyn", "paper stat");
  const int counts[] = {1, 2, 4, 8, 16, 32};
  std::vector<schedsim::scaling_point> curve;
  const double sim_s = median_seconds(a.repeats, [&] {
    curve = schedsim::scaling_curve(std::span(&dims, 1), std::span(counts), p);
  });
  report.add("schedule_sim/replay", sim_s,
             static_cast<std::uint64_t>(curve.size()));
  for (const auto& pt : curve) {
    report.set_meta("sim_dyn_eff_" + std::to_string(pt.cores) + "c",
                    pt.dynamic_r.efficiency);
    report.set_meta("sim_stat_eff_" + std::to_string(pt.cores) + "c",
                    pt.static_r.efficiency);
  }
  for (const auto& pt : curve) {
    double paper_d = -1, paper_s = -1;
    if (pt.cores == 16) {
      paper_d = paper::fig6_dynamic_eff_16;
      paper_s = paper::fig6_static_eff_16;
    } else if (pt.cores == 32) {
      paper_d = paper::fig6_dynamic_eff_32;
      paper_s = paper::fig6_static_eff_32;
    }
    auto fmt = [](double v) { return v < 0 ? std::string("-")
                                           : std::to_string(v).substr(0, 5); };
    std::printf("%8d %12.3f %12.3f %12s %12s\n", pt.cores,
                pt.dynamic_r.efficiency, pt.static_r.efficiency,
                fmt(paper_d).c_str(), fmt(paper_s).c_str());
  }
  // --- 3. paper-configuration projection -------------------------------
  // The paper's preliminary static version decomposed the matrix into
  // large submatrices (tile grid on the order of the thread count) and
  // synchronized per diagonal; replay that configuration with the
  // measured tile cost to project the published 16/32-thread numbers.
  schedsim::sim_params pp;
  pp.tile_cost_us = tile_cost;
  pp.queue_overhead_us = 0.02 * tile_cost;
  pp.barrier_cost_us = 3.0 * tile_cost;  // fine-grained sync dominates
  const parallel::grid_dims paper_dims{64, 64};
  std::printf("\npaper-configuration projection (64 x 64 submatrix grid, "
              "barrier ~ 3 tile costs):\n");
  std::printf("%8s %12s %12s %12s %12s\n", "threads", "dyn eff", "stat eff",
              "paper dyn", "paper stat");
  std::vector<schedsim::scaling_point> proj;
  const double proj_s = median_seconds(a.repeats, [&] {
    proj = schedsim::scaling_curve(std::span(&paper_dims, 1),
                                   std::span(counts), pp);
  });
  report.add("schedule_sim/paper_projection", proj_s,
             static_cast<std::uint64_t>(proj.size()));
  for (const auto& pt : proj) {
    double paper_d = -1, paper_s = -1;
    if (pt.cores == 16) {
      paper_d = paper::fig6_dynamic_eff_16;
      paper_s = paper::fig6_static_eff_16;
    } else if (pt.cores == 32) {
      paper_d = paper::fig6_dynamic_eff_32;
      paper_s = paper::fig6_static_eff_32;
    }
    auto fmt = [](double v) { return v < 0 ? std::string("-")
                                           : std::to_string(v).substr(0, 5); };
    std::printf("%8d %12.3f %12.3f %12s %12s\n", pt.cores,
                pt.dynamic_r.efficiency, pt.static_r.efficiency,
                fmt(paper_d).c_str(), fmt(paper_s).c_str());
  }

  std::printf(
      "\nshape check: dynamic stays high while static collapses, as in\n"
      "the paper (75%%/65%% vs 15%%/8%% at 16/32 threads).  The simulated\n"
      "dynamic curve is scheduling-limited only; the paper's measured 65%%\n"
      "at 32 threads additionally includes memory-bandwidth saturation.\n");
  return report.write(a.out) ? 0 : 1;
}
