/// Ablation benches for the design choices the paper's §V calls out as
/// the likely source of the ~5% library deltas:
///   * tile size ("different parameter choices for ... tile sizes")
///   * recursion cutoff of the D&C traceback ("recursion cutoff points")
///   * concurrent-queue internals ("the internals of the concurrent
///     queue used for scheduling tiles")
///   * 16-bit striped tiles vs 32-bit scalar tiles
///   * linear-gap specialization vs always-affine machinery (what partial
///     evaluation buys over SeqAn/Parasail's generic path)

#include "baselines/libraries.hpp"
#include "bench/harness.hpp"
#include "bio/datasets.hpp"
#include "core/scoring.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_queue.hpp"
#include "tiled/tiled_engine.hpp"
#include "tiled/tiled_hirschberg.hpp"

namespace {

using namespace anyseq;
using namespace anyseq::bench;

constexpr simple_scoring kScoring{2, -1};
constexpr linear_gap kLinear{-1};
constexpr affine_gap kAffine{-2, -1};

json_report* g_report = nullptr;  // set in main

void tile_size_sweep(stage::seq_view a, stage::seq_view b, const args& ar) {
  std::printf("\n--- ablation: tile size (16-lane striped tiles, scalar-clone whitebox, linear, scores only) ---\n");
  std::printf("%8s %12s %10s %10s %8s\n", "tile", "GCUPS", "striped", "int32",
              "workers");
  const std::uint64_t cells = static_cast<std::uint64_t>(a.size()) * b.size();
  for (index_t tile : {64, 128, 256, 512, 1024}) {
    tiled::tiled_engine<align_kind::global, linear_gap, simple_scoring, 16>
        eng(kLinear, kScoring, {tile, tile, ar.threads});
    const double t = median_seconds(ar.repeats, [&] { (void)eng.score(a, b); });
    const auto st = eng.last_stats();
    g_report->add("tile_size/" + std::to_string(tile), t, 1,
                  {{"gcups", gcups(cells, t)},
                   {"striped_tiles", static_cast<double>(st.striped_tiles)},
                   {"int32_tiles", static_cast<double>(st.int32_tiles)},
                   {"workers", static_cast<double>(st.workers)}});
    std::printf("%8lld %12.3f %10llu %10llu %8llu\n",
                static_cast<long long>(tile), gcups(cells, t),
                static_cast<unsigned long long>(st.striped_tiles),
                static_cast<unsigned long long>(st.int32_tiles),
                static_cast<unsigned long long>(st.workers));
  }
}

void cutoff_sweep(stage::seq_view a, stage::seq_view b, const args& ar) {
  std::printf("\n--- ablation: D&C recursion cutoff (traceback, affine) ---\n");
  std::printf("%12s %12s %14s\n", "base_cells", "GCUPS", "relaxed/nm");
  const std::uint64_t nm = static_cast<std::uint64_t>(a.size()) * b.size();
  for (index_t cells : {index_t{1} << 8, index_t{1} << 12, index_t{1} << 16,
                        index_t{1} << 20}) {
    std::uint64_t relaxed = 0;
    const double t = median_seconds(ar.repeats, [&] {
      auto r = tiled::tiled_hirschberg_align<16>(
          a, b, kAffine, kScoring, {256, 256, ar.threads}, cells);
      relaxed = r.cells;
    });
    g_report->add("dc_cutoff/" + std::to_string(cells), t, 1,
                  {{"gcups", gcups(nm, t)}});
    std::printf("%12lld %12.3f %14.2f\n", static_cast<long long>(cells),
                gcups(nm, t),
                static_cast<double>(relaxed) / static_cast<double>(nm));
  }
}

void queue_internals(const args& ar) {
  std::printf("\n--- ablation: concurrent queue internals ---\n");
  std::printf("%-16s %14s\n", "queue", "Mops/s (4 thr)");
  constexpr int kOps = 200000;

  const double t = median_seconds(ar.repeats, [] {
    parallel::mpmc_queue<int> q;
    parallel::run_workers(4, [&](int tid) {
      // Each pop follows the worker's own push, so it never waits for
      // long: the row measures the lock and condvar round trip.
      for (int i = 0; i < kOps; ++i) {
        q.push(tid * kOps + i);
        (void)q.pop();
      }
    });
  });
  g_report->add("queue/mpmc_mutex", t, 4 * kOps,
                {{"mops_per_s", 4.0 * kOps / t / 1e6}});
  std::printf("%-16s %14.2f\n", "mpmc (mutex)", 4.0 * kOps / t / 1e6);
}

void score_width(stage::seq_view a, stage::seq_view b, const args& ar) {
  std::printf("\n--- ablation: 16-bit striped tiles vs 32-bit scalar tiles ---\n");
  std::printf("%-22s %12s\n", "variant", "GCUPS");
  const std::uint64_t cells = static_cast<std::uint64_t>(a.size()) * b.size();
  // Through the public dispatcher: each row is the *native* engine
  // variant (anyseq::v_scalar / v_avx2 / v_avx512), not a baseline
  // re-instantiation.
  const struct {
    int lanes;
    const char* label;
  } rows[] = {{1, "32-bit scalar"},
              {16, "16-bit x16 striped"},
              {32, "16-bit x32 striped"}};
  for (const auto& r : rows) {
    if (!lanes_runnable_now(r.lanes)) {
      std::printf("%-22s %12s\n", r.label, "skipped");
      continue;
    }
    align_options o = paper_opts(kLinear, backend_for_lanes(r.lanes),
                                 ar.threads, /*traceback=*/false);
    o.tile = 256;
    const double t =
        median_seconds(ar.repeats, [&] { (void)align(a, b, o); });
    g_report->add(std::string("score_width/") +
                      to_string(backend_for_lanes(r.lanes)),
                  t, 1, {{"gcups", gcups(cells, t)}});
    std::printf("%-22s %12.3f\n", r.label, gcups(cells, t));
  }
}

void specialization_gain(stage::seq_view a, stage::seq_view b,
                         const args& ar) {
  std::printf(
      "\n--- ablation: linear-gap specialization vs always-affine ---\n");
  std::printf("%-34s %12s\n", "variant", "GCUPS");
  const std::uint64_t cells = static_cast<std::uint64_t>(a.size()) * b.size();
  {
    tiled::tiled_engine<align_kind::global, linear_gap, simple_scoring, 16>
        eng(kLinear, kScoring, {256, 256, ar.threads});
    const double t = median_seconds(ar.repeats, [&] { (void)eng.score(a, b); });
    g_report->add("specialization/linear_kernel", t, 1,
                  {{"gcups", gcups(cells, t)}});
    std::printf("%-34s %12.3f\n", "specialized linear kernel (AnySeq)",
                gcups(cells, t));
  }
  {
    baselines::seqan_like<align_kind::global, 16> eng(2, -1, kLinear,
                                                      {ar.threads, 256});
    const double t = median_seconds(ar.repeats, [&] { (void)eng.score(a, b); });
    g_report->add("specialization/always_affine", t, 1,
                  {{"gcups", gcups(cells, t)}});
    std::printf("%-34s %12.3f\n", "affine machinery w/ open=0 (SeqAn)",
                gcups(cells, t));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto ar = args::parse(argc, argv, /*scale=*/1024, /*pairs=*/0);
  const auto pr = bio::make_pair(0, ar.scale);
  const auto a = pr.a.view(), b = pr.b.view();
  std::printf("bench_ablation: %lld x %lld bp, %d threads\n",
              static_cast<long long>(a.size()),
              static_cast<long long>(b.size()), ar.threads);

  json_report report("ablation", ar.repeats);
  report.set_meta("q_len", static_cast<long long>(a.size()));
  report.set_meta("s_len", static_cast<long long>(b.size()));
  report.set_meta("threads", static_cast<long long>(ar.threads));
  g_report = &report;

  tile_size_sweep(a, b, ar);
  cutoff_sweep(a, b, ar);
  queue_internals(ar);
  score_width(a, b, ar);
  specialization_gain(a, b, ar);
  return report.write(ar.out) ? 0 : 1;
}
