/// Precision-route benchmark: the adaptive-precision batch kernels
/// (int8/int16 chunks and striped pairs, as auto plans them) and the
/// Myers bit-parallel route against the int32 rolling baseline, on the
/// fig5b-style 150 bp read-pair workload (plus a 20 bp short-read
/// panel), and the global traceback
/// route (band doubling) on ragged and divergent pairs, and the
/// long-genome wavefront's threads x tile sweep.  Emits BENCH_precision.json
/// with per-row GCUPS and speedup-vs-int32 so CI can watch the narrow
/// routes earn their keep.  The run records the host's core count and
/// never uses more threads than cores.

#include <algorithm>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "bench/harness.hpp"
#include "bio/datasets.hpp"
#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "core/gap.hpp"

namespace {

using namespace anyseq;
using namespace anyseq::bench;

json_report* g_report = nullptr;
const char* g_tag = "";  // workload prefix; rows named <tag>/<variant>/<row>

std::uint64_t total_cells(std::span<const seq_pair> pairs) {
  std::uint64_t c = 0;
  for (const auto& p : pairs)
    c += static_cast<std::uint64_t>(p.q.size()) * p.s.size();
  return c;
}

/// Scores of `out` must equal the int32 reference's, else the bench dies.
void check_scores(const char* what, std::span<const alignment_result> out,
                  std::span<const alignment_result> ref) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].score != ref[i].score) {
      std::fprintf(stderr, "bench_precision: %s pair %zu score %lld != "
                   "int32 %lld\n", what, i,
                   static_cast<long long>(out[i].score),
                   static_cast<long long>(ref[i].score));
      std::exit(2);
    }
  }
}

/// Scores AND end cells of `out` must equal the int32 reference's.
void check_cells(const char* what, std::span<const alignment_result> out,
                 std::span<const alignment_result> ref) {
  check_scores(what, out, ref);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].q_end != ref[i].q_end || out[i].s_end != ref[i].s_end) {
      std::fprintf(stderr, "bench_precision: %s pair %zu end cell differs "
                   "from int32\n", what, i);
      std::exit(2);
    }
  }
}

/// A panel's auto-route GCUPS on the two vector variants (0 = not run).
struct vector_gcups {
  double avx2 = 0.0, avx512 = 0.0;
  void set(int lanes, double g) { (lanes == 32 ? avx512 : avx2) = g; }
};

/// The 32-lane variant must not lose to the 16-lane one on a host that
/// runs both: that would mean its packs fell back to generic lane loops.
void require_avx512_not_slower(const char* panel, vector_gcups g) {
  if (g.avx2 > 0.0 && g.avx512 > 0.0 && g.avx512 < g.avx2) {
    std::fprintf(stderr,
                 "bench_precision: %s avx512/auto %.3f GCUPS < avx2/auto "
                 "%.3f\n", panel, g.avx512, g.avx2);
    std::exit(2);
  }
}

/// One measured row through the public dispatcher: `opt` selects the
/// route (precision, scoring).  Scores are checked against `ref` (the
/// int32 run of the same workload) — a bench that drifted from
/// byte-identity would report meaningless speedups.
double run_route(const std::string& row, std::span<const seq_pair> pairs,
                 align_options opt, int repeats, double int32_gcups,
                 const std::vector<alignment_result>* ref) {
  std::vector<alignment_result> out;
  const double t = median_seconds(repeats, [&] {
    out = align_batch(pairs, opt);
  });
  if (ref != nullptr) check_scores(row.c_str(), out, *ref);
  const double g = gcups(total_cells(pairs), t);
  const double speedup = int32_gcups > 0.0 ? g / int32_gcups : 0.0;
  if (g_report != nullptr)
    g_report->add(std::string(g_tag) + "/" + row, t, pairs.size(),
                  {{"gcups", g}, {"speedup_vs_int32", speedup}});
  return g;
}

/// paper-style scoring (match 2 / mismatch -1, linear -1) with the given
/// precision (auto or the int32 reference) on the given backend.
align_options scored_opts(backend exec, int threads, score_precision p) {
  align_options o = paper_opts(linear_gap{-1}, exec, threads, false);
  o.precision = p;
  return o;
}

/// Unit-cost option set (edit distance, weight g) — admits the Myers
/// bit-parallel route when precision is auto.
align_options unit_opts(backend exec, int threads, score_precision p) {
  align_options o;
  o.kind = align_kind::global;
  o.match = 0;
  o.mismatch = -1;
  o.gap_open = 0;
  o.gap_extend = -1;
  o.exec = exec;
  o.threads = threads;
  o.precision = p;
  return o;
}

/// One workload panel: for every runnable SIMD width, the int32 rolling
/// baseline, the auto route and the bit-parallel route.  Returns the
/// auto route's GCUPS on the vector variants.
vector_gcups panel(const char* title, const char* tag,
                   std::span<const seq_pair> pairs,
                   const args& a) {
  vector_gcups auto_gcups;
  g_tag = tag;
  print_header(title, "adaptive-precision batch score routes");
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);

    // Baseline: the int32 rolling route (the reference every narrow
    // kernel must be indistinguishable from).
    const std::vector<alignment_result> ref =
        align_batch(pairs, scored_opts(exec, a.threads, score_precision::int32));
    const double g32 = run_route(
        v + "/int32", pairs, scored_opts(exec, a.threads, score_precision::int32),
        a.repeats, 0.0, nullptr);
    print_row({"int32 rolling", v, g32, -1.0, "baseline"});

    // Auto: both panels are global at the paper's scores, which fit the
    // difference window at any length, so their chunks run int8
    // difference lanes (the scalar variant runs pair by pair).
    const double gauto = run_route(
        v + "/auto", pairs,
        scored_opts(exec, a.threads, score_precision::auto_select), a.repeats,
        g32, &ref);
    print_row({"auto narrow", v, gauto, -1.0,
               lanes > 1 ? "int8 differences" : "lone pairs"});
    if (lanes > 1) auto_gcups.set(lanes, gauto);

    // Bit-parallel edit distance: its own unit-cost option set, so it
    // gets its own int32 reference and baseline.
    const std::vector<alignment_result> uref = align_batch(
        pairs, unit_opts(exec, a.threads, score_precision::int32));
    std::vector<alignment_result> got = align_batch(
        pairs, unit_opts(exec, a.threads, score_precision::auto_select));
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].score != uref[i].score) {
        std::fprintf(stderr, "bench_precision: bitpar pair %zu mismatch\n", i);
        std::exit(2);
      }
    }
    const double u32 = run_route(
        v + "/unit_int32", pairs,
        unit_opts(exec, a.threads, score_precision::int32), a.repeats, 0.0,
        nullptr);
    const double gbp = run_route(
        v + "/bitpar", pairs,
        unit_opts(exec, a.threads, score_precision::auto_select), a.repeats,
        u32,
        nullptr);
    print_row({"bitpar (unit cost)", v, gbp, -1.0, "vs unit int32"});
  }
  print_footer();
  return auto_gcups;
}

/// Alignment-kind panel: the 150 bp pairs under local, semiglobal and
/// extension alignment on the auto route, the kinds whose padded chunks
/// track each lane's optimum cell.  Score and end cell must equal the
/// int32 rolling route's; the row's speedup is against that route.
void kinds_panel(std::span<const seq_pair> pairs, const args& a) {
  g_tag = "kinds150";
  print_header("150 bp read pairs, local / semiglobal / extension",
               "auto route vs int32 rolling, end cells checked");
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);
    for (const align_kind k :
         {align_kind::local, align_kind::semiglobal, align_kind::extension}) {
      align_options o = scored_opts(exec, a.threads, score_precision::int32);
      o.kind = k;
      std::vector<alignment_result> ref, out;
      const double t32 = median_seconds(a.repeats, [&] {
        ref = align_batch(pairs, o);
      });
      o.precision = score_precision::auto_select;
      const double t = median_seconds(a.repeats, [&] {
        out = align_batch(pairs, o);
      });
      const std::string row = v + "/" + to_string(k);
      check_cells(row.c_str(), out, ref);
      const double g = gcups(total_cells(pairs), t);
      const double g32 = gcups(total_cells(pairs), t32);
      g_report->add(std::string(g_tag) + "/" + row, t, pairs.size(),
                    {{"gcups", g}, {"speedup_vs_int32", g / g32}});
      char note[48];
      std::snprintf(note, sizeof note, "%.2fx int32", g / g32);
      print_row({std::string("auto ") + to_string(k), v, g, -1.0, note});
    }
  }
  print_footer();
}

/// Length-jitter panel: 150 bp ± 15 uniform jitter on both mates — the
/// mixed-length traffic that used to fall off the SIMD path entirely
/// (any chunk with one odd length went scalar).  The auto route runs
/// through a persistent aligner handle so the per-batch path accounting
/// is readable afterwards; alongside GCUPS the row reports the fraction
/// of pairs scored on SIMD lanes vs scalar, which the lane-padding
/// kernel must keep near 1.0 (it was ~0 before).
void jitter_panel(std::span<const seq_pair> pairs, const args& a) {
  g_tag = "jitter150";
  print_header("150 bp +/- 15 length jitter (ragged lanes)",
               "lane-padded SIMD on mixed-length batches");
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);

    const std::vector<alignment_result> ref = align_batch(
        pairs, scored_opts(exec, a.threads, score_precision::int32));
    const double g32 = run_route(
        v + "/int32", pairs,
        scored_opts(exec, a.threads, score_precision::int32), a.repeats, 0.0,
        nullptr);
    print_row({"int32 rolling", v, g32, -1.0, "baseline"});

    aligner al(scored_opts(exec, a.threads, score_precision::auto_select));
    std::vector<alignment_result> out;
    const double t = median_seconds(a.repeats, [&] {
      al.align_batch_into(pairs, out);
    });
    check_scores("jitter", out, ref);
    const batch_stats st = al.last_batch_stats();
    const double n = static_cast<double>(pairs.size());
    const double simd_frac = static_cast<double>(st.simd_pairs) / n;
    const double scalar_frac = static_cast<double>(st.scalar_pairs) / n;
    const double ragged_frac = static_cast<double>(st.ragged_pairs) / n;
    const double g = gcups(total_cells(pairs), t);
    const double speedup = g32 > 0.0 ? g / g32 : 0.0;
    if (g_report != nullptr)
      g_report->add(std::string(g_tag) + "/" + v + "/auto", t, pairs.size(),
                    {{"gcups", g},
                     {"speedup_vs_int32", speedup},
                     {"simd_pair_fraction", simd_frac},
                     {"scalar_pair_fraction", scalar_frac},
                     {"ragged_pair_fraction", ragged_frac}});
    char note[96];
    std::snprintf(note, sizeof note, "simd %.1f%% / scalar %.1f%%",
                  simd_frac * 100.0, scalar_frac * 100.0);
    print_row({"auto ragged", v, g, -1.0, note});

    // The whole point of the panel: mixed-length batches must stay on
    // SIMD lanes on the vector targets instead of unzipping to scalar.
    if (lanes > 1 && simd_frac < 0.9) {
      std::fprintf(stderr,
                   "bench_precision: jitter simd fraction %.3f < 0.9 on %s\n",
                   simd_frac, v.c_str());
      std::exit(2);
    }
  }
  print_footer();
}

/// Tail panel: the 150 bp pairs in batches of 36 — one full 32-lane
/// chunk plus a 4-pair remainder on avx512, two 16-lane chunks plus 4 on
/// avx2.  The remainder sits below both tail floors, so its pairs run one
/// by one through the striped kernel (they rolled in int32, or ran as a
/// padded 32-lane chunk, before) and every pair scores on SIMD lanes.
vector_gcups tail_panel(std::span<const seq_pair> pairs, const args& a) {
  constexpr std::size_t kBatch = 36;
  g_tag = "tail150";
  print_header("150 bp pairs in batches of 36 (sub-width tails)",
               "one full chunk + a lane-padded tail per batch");
  pairs = pairs.first(pairs.size() / kBatch * kBatch);
  vector_gcups auto_gcups;
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);
    const std::vector<alignment_result> ref = align_batch(
        pairs, scored_opts(exec, a.threads, score_precision::int32));

    aligner al(scored_opts(exec, a.threads, score_precision::auto_select));
    std::vector<alignment_result> out;
    std::uint64_t simd_pairs = 0;
    for (std::size_t lo = 0; lo < pairs.size(); lo += kBatch) {
      al.align_batch_into(pairs.subspan(lo, kBatch), out);
      check_scores("tail", out,
                   std::span<const alignment_result>(ref).subspan(lo, kBatch));
      simd_pairs += al.last_batch_stats().simd_pairs;
    }
    const double t = median_seconds(a.repeats, [&] {
      for (std::size_t lo = 0; lo < pairs.size(); lo += kBatch)
        al.align_batch_into(pairs.subspan(lo, kBatch), out);
    });
    const double simd_frac = static_cast<double>(simd_pairs) /
                             static_cast<double>(pairs.size());
    const double g = gcups(total_cells(pairs), t);
    if (g_report != nullptr)
      g_report->add(std::string(g_tag) + "/" + v + "/auto", t, pairs.size(),
                    {{"gcups", g}, {"simd_pair_fraction", simd_frac}});
    char note[64];
    std::snprintf(note, sizeof note, "simd %.1f%%", simd_frac * 100.0);
    print_row({"auto, batches of 36", v, g, -1.0, note});
    if (lanes > 1) {
      auto_gcups.set(lanes, g);
      if (simd_frac < 1.0) {
        std::fprintf(stderr,
                     "bench_precision: tail simd fraction %.3f < 1 on %s\n",
                     simd_frac, v.c_str());
        std::exit(2);
      }
    }
  }
  print_footer();
  return auto_gcups;
}

/// Solo panel: score requests that find no batchmates, one thread each
/// (the serving tier's per-request setting).  `lone` aligns the 150 bp
/// pairs one call at a time through a reused aligner; `pair2` sends the
/// ragged 135-165 bp pairs two per batch call.  Each runs under auto
/// (the striped int16 kernel on vector variants) and int32 (the rolling
/// engine); scores and end cells must match int32.
void solo_panel(std::span<const seq_pair> lone,
                std::span<const seq_pair> ragged, const args& a) {
  g_tag = "solo150";
  print_header("lone 150 bp pairs and ragged pairs of two (no batchmates)",
               "intra-pair striped int16 vs int32 rolling, one thread");
  ragged = ragged.first(ragged.size() / 2 * 2);
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);
    double int32_lone = 0.0, int32_pair2 = 0.0;
    std::vector<alignment_result> ref_lone, ref_pair2;
    for (const score_precision p :
         {score_precision::int32, score_precision::auto_select}) {
      const bool is32 = p == score_precision::int32;
      align_options o = paper_opts(affine_gap{-2, -1}, exec, 1, false);
      o.precision = p;
      aligner al(o);
      const std::string route =
          al.plan(lone[0].q.size(), lone[0].s.size()).route;

      std::vector<alignment_result> out(lone.size());
      const double t_lone = median_seconds(a.repeats, [&] {
        for (std::size_t i = 0; i < lone.size(); ++i)
          al.align_into(lone[i].q, lone[i].s, out[i]);
      });
      if (is32) ref_lone = out;
      check_cells("solo lone", out, ref_lone);

      std::vector<alignment_result> got(ragged.size()), two;
      std::uint64_t striped = 0;
      const double t_pair2 = median_seconds(a.repeats, [&] {
        striped = 0;
        for (std::size_t i = 0; i < ragged.size(); i += 2) {
          al.align_batch_into(ragged.subspan(i, 2), two);
          got[i] = two[0];
          got[i + 1] = two[1];
          striped += al.last_batch_stats().striped_pairs;
        }
      });
      if (is32) ref_pair2 = got;
      check_cells("solo pair2", got, ref_pair2);

      const double g_lone = gcups(total_cells(lone), t_lone);
      const double g_pair2 = gcups(total_cells(ragged), t_pair2);
      if (is32) {
        int32_lone = g_lone;
        int32_pair2 = g_pair2;
      }
      const std::string tag = is32 ? "int32" : "auto";
      const double striped_frac =
          static_cast<double>(striped) / static_cast<double>(ragged.size());
      g_report->add(std::string(g_tag) + "/" + v + "/lone_" + tag, t_lone,
                    lone.size(),
                    {{"gcups", g_lone},
                     {"us_per_pair", t_lone * 1e6 / lone.size()},
                     {"speedup_vs_int32", is32 ? 0.0 : g_lone / int32_lone},
                     {"threads", 1}});
      g_report->add(std::string(g_tag) + "/" + v + "/pair2_" + tag, t_pair2,
                    ragged.size(),
                    {{"gcups", g_pair2},
                     {"us_per_pair", t_pair2 * 1e6 / ragged.size()},
                     {"speedup_vs_int32", is32 ? 0.0 : g_pair2 / int32_pair2},
                     {"striped_pair_fraction", striped_frac},
                     {"threads", 1}});
      print_row({"lone " + tag, v, g_lone, -1.0, route});
      print_row({"pairs of 2 " + tag, v, g_pair2, -1.0,
                 striped_frac > 0 ? "striped" : "rolling"});
      if (!is32 && lanes > 1 && striped_frac < 1.0) {
        std::fprintf(stderr,
                     "bench_precision: solo150 striped fraction %.3f < 1 "
                     "on %s\n", striped_frac, v.c_str());
        std::exit(2);
      }
    }
  }
  print_footer();
}

/// Long solo shapes: two simulated pairs of `len` bp, paper scoring, one
/// thread, scored one call at a time (`lone_auto`) and as one batch call
/// of two (`pair2_auto`).  At 1000 bp a pair fits the int16 window, at
/// 5000 bp it does not; a batch's lone pair runs the route `align` picks,
/// so the two rows should agree.  Scores and end cells must match int32.
void solo_shape_panel(const bio::sequence& genome, const args& a) {
  print_header("two long pairs, alone and as one batch (no batchmates)",
               "auto route of a lone pair vs the same pair in align_batch");
  for (const index_t len : {index_t{1000}, index_t{5000}}) {
    bio::read_sim_params sp;
    sp.read_length = len;
    sp.seed = static_cast<std::uint64_t>(len);
    const auto data = bio::simulate_read_pairs(genome, 2, sp);
    std::vector<seq_pair> two;
    for (const auto& p : data) two.push_back({p.first.view(), p.second.view()});
    align_options o = paper_opts(affine_gap{-2, -1}, backend::scalar, 1, false);
    o.precision = score_precision::int32;
    const std::vector<alignment_result> ref = align_batch(two, o);
    o.precision = score_precision::auto_select;
    const std::string tag = "solo" + std::to_string(len);
    for (const int lanes : {1, 16, 32}) {
      if (!lanes_runnable_now(lanes)) continue;
      o.exec = backend_for_lanes(lanes);
      const std::string v = to_string(o.exec);
      aligner al(o);
      // Each repetition times both rows back to back, so a change in the
      // host's CPU supply moves the two rows alike.
      std::vector<alignment_result> lone(two.size()), pair2;
      std::vector<double> t_lone, t_pair2;
      for (int r = 0; r < std::max(1, a.repeats); ++r) {
        t_lone.push_back(median_seconds(1, [&] {
          for (std::size_t i = 0; i < two.size(); ++i)
            al.align_into(two[i].q, two[i].s, lone[i]);
        }));
        t_pair2.push_back(
            median_seconds(1, [&] { al.align_batch_into(two, pair2); }));
      }
      check_cells(tag.c_str(), lone, ref);
      check_cells(tag.c_str(), pair2, ref);
      for (const auto& [row, t] :
           {std::pair<const char*, double>{"lone_auto",
                                           spread_of(t_lone).median},
            {"pair2_auto", spread_of(t_pair2).median}}) {
        const double g = gcups(total_cells(two), t);
        g_report->add(tag + "/" + v + "/" + row, t, two.size(),
                      {{"gcups", g},
                       {"us_per_pair", t * 1e6 / two.size()},
                       {"threads", 1}});
        print_row({tag + " " + row, v, g, -1.0,
                   al.plan(two[0].q.size(), two[0].s.size()).route});
      }
    }
  }
  print_footer();
}

/// Traceback panel: global affine tracebacks, one thread, through a
/// reused aligner's batch call — on the ragged 135-165 bp read pairs and
/// on 150 bp pairs about 35% apart.  Band doubling certifies most read
/// pairs in the first radius-8 band; the divergent pairs double or fall
/// back to the full matrix.  GCUPS count n*m cells per pair whichever
/// way it ran (an effective rate), and every score must match the
/// score-only route.
void tb_panel(std::span<const seq_pair> reads,
              std::span<const seq_pair> edit35, const args& a) {
  g_tag = "tb150";
  print_header("global affine tracebacks (band doubling), one thread",
               "trimmed 135-165 bp read pairs and ~35%-edit pairs");
  const std::pair<const char*, std::span<const seq_pair>> sets[] = {
      {"reads", reads}, {"edit35", edit35}};
  for (const int lanes : {1, 16, 32}) {
    if (!lanes_runnable_now(lanes)) continue;
    const backend exec = backend_for_lanes(lanes);
    const std::string v = to_string(exec);
    for (const auto& [name, pairs] : sets) {
      const std::vector<alignment_result> ref =
          align_batch(pairs, paper_opts(affine_gap{-2, -1}, exec, 1, false));
      aligner al(paper_opts(affine_gap{-2, -1}, exec, 1, true));
      std::vector<alignment_result> out;
      const double t = median_seconds(a.repeats, [&] {
        al.align_batch_into(pairs, out);
      });
      check_scores("tb150", out, ref);
      const batch_stats st = al.last_batch_stats();
      const double n = static_cast<double>(pairs.size());
      const double banded_frac = static_cast<double>(st.banded_pairs) / n;
      const double g = gcups(total_cells(pairs), t);
      g_report->add(std::string(g_tag) + "/" + v + "/" + name, t,
                    pairs.size(),
                    {{"gcups", g},
                     {"us_per_pair", t * 1e6 / n},
                     {"banded_pair_fraction", banded_frac},
                     {"band_passes_per_pair",
                      static_cast<double>(st.band_passes) / n},
                     {"threads", 1}});
      char note[64];
      std::snprintf(note, sizeof note, "banded %.1f%%", banded_frac * 100.0);
      print_row({std::string("traceback ") + name, v, g, -1.0, note});
    }
  }
  print_footer();
}

/// Wave panel: the long-genome wavefront's threads x tile sweep, global
/// affine, score-only, through a reused aligner on each vector variant
/// the host runs (the scalar one where none does).  Three shapes: `wave`
/// is the genome_long pair (Table I pair 0 at 1/512 scale, 8616 x 9065),
/// `wave_small` the same pair at 1/2048 (2154 x 2266), where a 512 tile
/// leaves a diagonal of 5, and `wave_large` the pair at 1/256
/// (17232 x 18130) on one thread only, with gaps open -1, extend -1:
/// there avx512's planned height is the int16 side clamp at its tallest
/// for affine gaps at match 2 (6976 rows), where each stripe plane of a
/// tile takes ~14 KB (avx2's tiles stop at 512).  Each row is one
/// (variant, threads, tile) cell: median, min and max of process CPU and
/// wall time per call.  `t<T>_tile<S>` rows run an explicit S x S tile;
/// the `t<T>_planned` row runs the shape the plan derives (tile = 0),
/// `tile_h` x `tile_w`.  derive_tile and DESIGN.md §9 cite these rows.
/// At one thread the small pair fits the int16 window, so it runs the
/// striped route and its t1 rows time no wavefront.  Threads never
/// exceed the cores.
void wave_panel(const args& a, int cores) {
  print_header("long-genome wavefront: threads x tile",
               "genome_long pair at 1/512, 1/2048 and 1/256, global affine, "
               "score-only, each vector variant");
  std::vector<backend> variants;
  for (const int lanes : {16, 32})
    if (lanes_runnable_now(lanes)) variants.push_back(backend_for_lanes(lanes));
  if (variants.empty()) variants.push_back(backend::scalar);
  const auto ms = [](const std::vector<double>& v, std::size_t k) {
    return v[k] * 1e3;
  };
  struct wave_shape {
    const char* tag;
    std::uint64_t scale;
    affine_gap gap;
    int max_threads;
    std::vector<index_t> tiles;  // 0 = the planned shape
  };
  const wave_shape shapes[] = {
      {"wave", 512, affine_gap{-2, -1}, 4, {128, 256, 512, 0}},
      {"wave_small", 2048, affine_gap{-2, -1}, 4, {128, 256, 512, 0}},
      {"wave_large", 256, affine_gap{-1, -1}, 1, {512, 0}}};
  for (const auto& [tag, scale, gap, max_threads, tiles] : shapes) {
    const auto pr = bio::make_pair(0, scale, 1);
    const stage::seq_view q = pr.a.view(), s = pr.b.view();
    const std::uint64_t cells = static_cast<std::uint64_t>(q.size()) *
                                static_cast<std::uint64_t>(s.size());
    align_options ref = paper_opts(gap, backend::scalar, 1, false);
    ref.precision = score_precision::int32;
    const score_t want = align(q, s, ref).score;
    // About a second of calls per cell.
    const int calls = std::max(9, 3 * a.repeats) * (scale == 2048 ? 8 : 1);
    for (const backend exec : variants) {
      for (const int threads : {1, 2, 4}) {
        if (threads > std::min(cores, max_threads)) continue;
        align_options o = paper_opts(gap, exec, threads, false);
        for (const index_t tile : tiles) {
          o.tile = tile;
          aligner al(o);
          const auto plan = al.plan(q.size(), s.size());
          const std::string v = plan.variant;
          char cell[32];
          if (tile == 0)
            std::snprintf(cell, sizeof cell, "t%d_planned", threads);
          else
            std::snprintf(cell, sizeof cell, "t%d_tile%lld", threads,
                          static_cast<long long>(tile));
          alignment_result r;
          al.align_into(q, s, r);  // warm-up: sizes the workspace
          std::vector<double> cpu, wall;
          for (int c = 0; c < calls; ++c) {
            const std::clock_t c0 = std::clock();
            const stopwatch sw;
            al.align_into(q, s, r);
            wall.push_back(sw.seconds());
            cpu.push_back(static_cast<double>(std::clock() - c0) /
                          CLOCKS_PER_SEC);
            if (r.score != want) {
              std::fprintf(stderr, "bench_precision: %s %s score %lld != "
                           "int32 %lld\n", tag, cell,
                           static_cast<long long>(r.score),
                           static_cast<long long>(want));
              std::exit(2);
            }
          }
          std::sort(cpu.begin(), cpu.end());
          std::sort(wall.begin(), wall.end());
          const std::size_t mid = cpu.size() / 2, last = cpu.size() - 1;
          const wavefront_stats st = al.last_wavefront_stats();
          g_report->add(
              std::string(tag) + "/" + v + "/" + cell, wall[mid], 1,
              {{"cpu_ms", ms(cpu, mid)},
               {"cpu_ms_min", ms(cpu, 0)},
               {"cpu_ms_max", ms(cpu, last)},
               {"wall_ms", ms(wall, mid)},
               {"wall_ms_min", ms(wall, 0)},
               {"wall_ms_max", ms(wall, last)},
               {"cpu_gcups", gcups(cells, cpu[mid])},
               {"threads", threads},
               {"tile_h", static_cast<double>(plan.tile)},
               {"tile_w", static_cast<double>(plan.tile_w)},
               {"workers", static_cast<double>(st.workers)},
               {"striped_tiles", static_cast<double>(st.striped_tiles)},
               {"int32_tiles", static_cast<double>(st.int32_tiles)}},
              calls);
          char note[96];
          std::snprintf(note, sizeof note, "%s %s %lldx%lld: cpu %.2f ms",
                        tag, cell, static_cast<long long>(plan.tile),
                        static_cast<long long>(plan.tile_w), ms(cpu, mid));
          print_row({"wave", v, gcups(cells, wall[mid]), -1.0, note});
        }
      }
    }
  }
  print_footer();
}

}  // namespace

int main(int argc, char** argv) {
  auto a = args::parse(argc, argv, /*scale=*/0, /*pairs=*/3000);
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  a.threads = std::clamp(a.threads, 1, cores);
  std::printf("bench_precision: %zu read pairs, %d threads, %d cores\n",
              a.pairs, a.threads, cores);

  bio::genome_params gp;
  gp.length = 1 << 20;
  gp.seed = 10;
  const auto ref = bio::random_genome("GRCh38_chr10_surrogate", gp);

  json_report report("precision", a.repeats);
  report.set_meta("pairs", static_cast<long long>(a.pairs));
  report.set_meta("threads", static_cast<long long>(a.threads));
  report.set_meta("cores", static_cast<long long>(cores));
  g_report = &report;

  // Fig. 5b-style panel: 150 bp Illumina pairs.  Worst-case bound at
  // match 2 is (150+150+2)*2 = 604 — inside the int16 window, outside
  // the absolute int8 one; global chunks run int8 difference lanes.
  const auto data150 = bio::simulate_read_pairs(ref, a.pairs, {});
  std::vector<seq_pair> pairs150;
  pairs150.reserve(data150.size());
  for (const auto& p : data150)
    pairs150.push_back({p.first.view(), p.second.view()});
  require_avx512_not_slower(
      "reads150",
      panel("150 bp read pairs (fig5b workload)", "reads150", pairs150, a));
  require_avx512_not_slower("tail150", tail_panel(pairs150, a));
  kinds_panel(pairs150, a);

  // Short-read panel: 20 bp, bound (20+20+2)*2 = 84 < 96 — the whole
  // batch fits the absolute int8 window, whose chunks global runs in
  // difference form under that window's plan.
  bio::read_sim_params sp;
  sp.read_length = 20;
  const auto data20 = bio::simulate_read_pairs(ref, a.pairs, sp);
  std::vector<seq_pair> pairs20;
  pairs20.reserve(data20.size());
  for (const auto& p : data20)
    pairs20.push_back({p.first.view(), p.second.view()});
  panel("20 bp read pairs (int8 window)", "reads20", pairs20, a);

  // Jitter panel: simulate at the max length (165 bp) and trim each
  // mate to an independent uniform length in [135, 165], so the batch
  // has genuinely ragged shapes instead of lane-uniform chunks.
  bio::read_sim_params jp;
  jp.read_length = 165;
  const auto dataj = bio::simulate_read_pairs(ref, a.pairs, jp);
  std::mt19937_64 jrng(77);
  std::uniform_int_distribution<index_t> jlen(135, 165);
  std::vector<seq_pair> pairsj;
  pairsj.reserve(dataj.size());
  for (const auto& p : dataj) {
    const auto qv = p.first.view();
    const auto sv = p.second.view();
    const index_t ql = std::min(qv.size(), jlen(jrng));
    const index_t sl = std::min(sv.size(), jlen(jrng));
    pairsj.push_back({stage::seq_view(qv.data(), ql),
                      stage::seq_view(sv.data(), sl)});
  }
  jitter_panel(pairsj, a);
  solo_panel(pairs150, pairsj, a);
  solo_shape_panel(ref, a);

  // Traceback panel: the ragged read pairs above, and 150 bp pairs whose
  // mates each carry ~17.5% edited bases (12.5% substitutions, 2.5%
  // indel events of 1-3 bases), so a pair sits about 35% apart.
  bio::read_sim_params ep;
  ep.sub_rate_begin = ep.sub_rate_end = 0.125;
  ep.indel_rate = 0.025;
  ep.seed = 35;
  const auto data35 = bio::simulate_read_pairs(ref, a.pairs, ep);
  std::vector<seq_pair> pairs35;
  pairs35.reserve(data35.size());
  for (const auto& p : data35)
    pairs35.push_back({p.first.view(), p.second.view()});
  tb_panel(pairsj, pairs35, a);
  wave_panel(a, cores);

  return report.write(a.out) ? 0 : 1;
}
