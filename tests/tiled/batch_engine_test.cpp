#include "tiled/batch_engine.hpp"

#include <gtest/gtest.h>

#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "core/rolling.hpp"
#include "testutil.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

std::vector<std::vector<char_t>> make_reads(std::size_t count, index_t len,
                                            std::uint64_t seed) {
  std::vector<std::vector<char_t>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(test::random_codes(static_cast<std::size_t>(len),
                                     seed * 1000 + i));
  return out;
}

template <align_kind K, class Gap, int Lanes>
void batch_matches_scalar(std::size_t pairs_n, index_t len, const Gap& gap,
                          int threads, std::uint64_t seed) {
  auto qs = make_reads(pairs_n, len, seed);
  auto ss = make_reads(pairs_n, len, seed + 500);
  std::vector<pair_view> pairs;
  for (std::size_t i = 0; i < pairs_n; ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{2, -1};
  std::vector<workspace> workers(static_cast<std::size_t>(threads));
  batch_engine<K, Gap, simple_scoring, Lanes> eng(
      gap, sc, {threads, score_precision::auto_select, workers});
  workspace ws;
  std::vector<score_result> got(pairs_n);
  eng.score_into(std::span<const pair_view>(pairs), ws,
                 std::span<score_result>(got));
  for (std::size_t i = 0; i < pairs_n; ++i) {
    const auto want = rolling_score<K>(pairs[i].q, pairs[i].s, gap, sc, ws);
    ASSERT_EQ(got[i].score, want.score) << "pair " << i << " " << to_string(K);
    ASSERT_EQ(got[i].end_i, want.end_i) << "pair " << i << " " << to_string(K);
    ASSERT_EQ(got[i].end_j, want.end_j) << "pair " << i << " " << to_string(K);
  }
}

TEST(BatchEngine, GlobalLinearUniform) {
  batch_matches_scalar<align_kind::global, linear_gap, 16>(
      64, 80, linear_gap{-1}, 2, 1);
}

TEST(BatchEngine, GlobalAffineUniform) {
  batch_matches_scalar<align_kind::global, affine_gap, 16>(
      64, 80, affine_gap{-2, -1}, 2, 2);
}

TEST(BatchEngine, LocalAffineUniform) {
  batch_matches_scalar<align_kind::local, affine_gap, 16>(
      48, 70, affine_gap{-3, -1}, 3, 3);
}

TEST(BatchEngine, SemiglobalLinearUniform) {
  batch_matches_scalar<align_kind::semiglobal, linear_gap, 16>(
      48, 60, linear_gap{-1}, 2, 4);
}

TEST(BatchEngine, Wide32Lanes) {
  batch_matches_scalar<align_kind::global, affine_gap, 32>(
      96, 64, affine_gap{-2, -1}, 2, 5);
}

TEST(BatchEngine, NonMultipleOfLanesGetsRemainder) {
  batch_matches_scalar<align_kind::global, linear_gap, 16>(
      37, 50, linear_gap{-1}, 2, 6);
}

TEST(BatchEngine, RaggedLengthsPadOrFallBackPerPair) {
  // 40 ragged pairs on 16 lanes.  Under auto each full window fills
  // about 14 full-shape pairs, above the 16-lane affine floor
  // (kMinLive), so the first 32 pairs run as two lane-padded chunks; the
  // 8-pair tail falls below it and runs striped pair by pair.  The int32
  // hint rolls everything.
  static_assert(
      batch_engine<align_kind::global, affine_gap, simple_scoring,
                   16>::kMinLive > 8);
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<pair_view> pairs;
  for (std::size_t i = 0; i < 40; ++i) {
    qs.push_back(test::random_codes(30 + i % 7, i));
    ss.push_back(test::random_codes(35 + i % 5, i + 99));
  }
  for (std::size_t i = 0; i < 40; ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{2, -1};
  workspace ws;
  std::vector<workspace> workers(2);
  for (const score_precision p :
       {score_precision::auto_select, score_precision::int32}) {
    batch_engine<align_kind::global, affine_gap, simple_scoring, 16> eng(
        affine_gap{-2, -1}, sc, {2, p, workers});
    std::vector<score_result> got(pairs.size());
    eng.score_into(std::span<const pair_view>(pairs), ws,
                   std::span<score_result>(got));
    for (std::size_t i = 0; i < 40; ++i) {
      const auto want = rolling_score<align_kind::global>(
          pairs[i].q, pairs[i].s, affine_gap{-2, -1}, sc, ws);
      ASSERT_EQ(got[i].score, want.score) << i;
    }
    const auto st = eng.last_stats();
    if (p == score_precision::auto_select) {
      EXPECT_EQ(st.ragged_pairs, 32u);
      EXPECT_EQ(st.striped_pairs, 8u);
      EXPECT_EQ(st.simd_pairs, 40u);
      EXPECT_EQ(st.scalar_pairs, 0u);
    } else {
      EXPECT_EQ(st.scalar_pairs, 40u);
      EXPECT_EQ(st.striped_pairs, 0u);
    }
  }
}

/// Batches of 2 and 3 ragged pairs (the serving tier's typical batch):
/// too few to fill lanes, so under auto every pair runs the striped
/// kernel — score and end cell equal to int32 rolling, single- and
/// multi-threaded — while the scalar variant and the int32 hint run them
/// on an int32 route.
template <align_kind K, class Gap, int Lanes>
void few_ragged_pairs_match_rolling(const Gap& gap) {
  const simple_scoring sc{2, -1};
  for (const std::size_t count : {std::size_t{2}, std::size_t{3}})
    for (const int threads : {1, 2})
      for (const score_precision p :
           {score_precision::auto_select, score_precision::int32}) {
        std::vector<std::vector<char_t>> qs, ss;
        std::vector<pair_view> pairs;
        for (std::size_t i = 0; i < count; ++i) {
          qs.push_back(test::random_codes(135 + 13 * i, 300 + i));
          ss.push_back(test::mutate(qs.back(), 400 + i));
        }
        for (std::size_t i = 0; i < count; ++i)
          pairs.push_back({view(qs[i]), view(ss[i])});
        std::vector<workspace> workers(static_cast<std::size_t>(threads));
        batch_engine<K, Gap, simple_scoring, Lanes> eng(
            gap, sc, {threads, p, workers});
        workspace ws;
        std::vector<score_result> got(count);
        eng.score_into(std::span<const pair_view>(pairs), ws,
                       std::span<score_result>(got));
        SCOPED_TRACE(::testing::Message()
                     << to_string(K) << " lanes " << Lanes << " count "
                     << count << " threads " << threads << " "
                     << to_string(p));
        for (std::size_t i = 0; i < count; ++i) {
          const auto want =
              rolling_score<K>(pairs[i].q, pairs[i].s, gap, sc, ws);
          ASSERT_EQ(got[i].score, want.score) << "pair " << i;
          ASSERT_EQ(got[i].end_i, want.end_i) << "pair " << i;
          ASSERT_EQ(got[i].end_j, want.end_j) << "pair " << i;
        }
        const auto st = eng.last_stats();
        const bool striped = Lanes > 1 && p == score_precision::auto_select;
        EXPECT_EQ(st.striped_pairs, striped ? count : 0u);
        EXPECT_EQ(st.simd_pairs, striped ? count : 0u);
        EXPECT_EQ(st.int16_pairs, striped ? count : 0u);
        EXPECT_EQ(st.scalar_pairs, striped ? 0u : count);
        EXPECT_EQ(st.padded_cells, 0u);
      }
}

TEST(BatchEngine, FewRaggedPairsRunStripedUnderAuto) {
  few_ragged_pairs_match_rolling<align_kind::global, affine_gap, 16>(
      affine_gap{-2, -1});
  few_ragged_pairs_match_rolling<align_kind::local, affine_gap, 16>(
      affine_gap{-3, -1});
  few_ragged_pairs_match_rolling<align_kind::semiglobal, linear_gap, 16>(
      linear_gap{-1});
  few_ragged_pairs_match_rolling<align_kind::global, affine_gap, 32>(
      affine_gap{-2, -1});
  few_ragged_pairs_match_rolling<align_kind::global, affine_gap, 1>(
      affine_gap{-2, -1});
}

TEST(BatchEngine, StatsCountSimdPath) {
  auto qs = make_reads(32, 50, 7);
  std::vector<pair_view> pairs;
  for (std::size_t i = 0; i < 32; ++i)
    pairs.push_back({view(qs[i]), view(qs[i])});
  const simple_scoring sc{2, -1};
  batch_engine<align_kind::global, linear_gap, simple_scoring, 16> eng(
      linear_gap{-1}, sc, {1});
  workspace ws;
  std::vector<score_result> got(pairs.size());
  eng.score_into(std::span<const pair_view>(pairs), ws,
                 std::span<score_result>(got));
  EXPECT_EQ(eng.last_stats().simd_pairs, 32u);
  for (const score_result& r : got)
    EXPECT_EQ(r.score, 100);  // self-alignment, all matches
}

// --- sub-width tails ---------------------------------------------------

/// `Lanes + t` pairs: Lanes at the (n x m) shape, then a t-pair
/// remainder, uniform or — `ragged_tail` — mixed (n - k % 3, m - 2 (k % 2))
/// for its k-th pair.  One rule decides every window: it runs as one
/// padded chunk iff its cells fill kMinLive full-shape pairs.  At an int8
/// shape the whole batch is one 2*Lanes-lane int8 window; at an int16
/// shape a full chunk runs first and the remainder pads once it clears
/// the floor, else runs pair by pair through the striped kernel.  Score
/// and end cell must equal the int32 rolling engine's and the path
/// accounting must be exact.
template <align_kind K, class Gap, int Lanes>
void tail_matches_rolling(std::size_t t, index_t n, index_t m,
                          bool ragged_tail, const Gap& gap, int threads) {
  const std::size_t count = static_cast<std::size_t>(Lanes) + t;
  SCOPED_TRACE(::testing::Message()
               << to_string(K) << " lanes " << Lanes << " count " << count
               << " shape " << n << "x" << m << (ragged_tail ? " ragged" : "")
               << " threads " << threads);
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<pair_view> pairs;
  std::uint64_t tail_cells = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = i - std::min(i, static_cast<std::size_t>(Lanes));
    const bool shrink = ragged_tail && i >= static_cast<std::size_t>(Lanes);
    const index_t ni = shrink ? n - static_cast<index_t>(k % 3) : n;
    const index_t mi = shrink ? m - 2 * static_cast<index_t>(k % 2) : m;
    qs.push_back(test::random_codes(static_cast<std::size_t>(ni), 40 + i));
    ss.push_back(test::random_codes(static_cast<std::size_t>(mi), 90 + i));
    if (i >= static_cast<std::size_t>(Lanes))
      tail_cells += static_cast<std::uint64_t>(ni * mi);
  }
  for (std::size_t i = 0; i < count; ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{2, -1};
  using engine = batch_engine<K, Gap, simple_scoring, Lanes>;
  std::vector<workspace> workers(static_cast<std::size_t>(threads));
  engine eng(gap, sc, {threads, score_precision::auto_select, workers});
  workspace ws;
  std::vector<score_result> got(count);
  eng.score_into(std::span<const pair_view>(pairs), ws,
                 std::span<score_result>(got));
  for (std::size_t i = 0; i < count; ++i) {
    const auto want = rolling_score<K>(pairs[i].q, pairs[i].s, gap, sc, ws);
    ASSERT_EQ(got[i].score, want.score) << "pair " << i;
    ASSERT_EQ(got[i].end_i, want.end_i) << "pair " << i;
    ASSERT_EQ(got[i].end_j, want.end_j) << "pair " << i;
  }
  const std::uint64_t lanes = static_cast<std::uint64_t>(Lanes);
  const std::uint64_t full = static_cast<std::uint64_t>(n * m);
  const std::uint64_t floor = engine::kMinLive;
  const bool mixed = tail_cells != t * full;
  const auto st = eng.last_stats();
  EXPECT_EQ(st.simd_pairs, lanes + t);
  EXPECT_EQ(st.scalar_pairs, 0u);
  if (fits_score_window(n, m, unit_step(gap, sc), int8_score_window())) {
    EXPECT_EQ(st.int8_pairs, lanes + t);
    EXPECT_EQ(st.striped_pairs, 0u);
    EXPECT_EQ(st.ragged_pairs, mixed ? lanes + t : 0);
    EXPECT_EQ(st.padded_cells, lanes * full - tail_cells);
    return;
  }
  const bool simd_tail = tail_cells >= floor * full;
  EXPECT_EQ(st.int16_pairs, lanes + t);
  EXPECT_EQ(st.striped_pairs, simd_tail ? 0 : t);
  EXPECT_EQ(st.ragged_pairs, simd_tail && mixed ? t : 0);
  EXPECT_EQ(st.padded_cells, simd_tail ? lanes * full - tail_cells : 0);
}

/// Batch sizes Lanes+1, Lanes+floor-1, Lanes+floor and 2*Lanes-1 (floor
/// = kMinLive against striped pairs; sizes of 2*Lanes or more are no
/// tails) at an int16 shape and an int8 shape, uniform and ragged
/// remainders, 1 and 2 threads.
template <align_kind K, class Gap, int Lanes>
void tail_sweep(const Gap& gap) {
  using engine = batch_engine<K, Gap, simple_scoring, Lanes>;
  constexpr auto min_live = static_cast<std::size_t>(engine::kMinLive);
  for (const std::size_t t :
       {std::size_t{1}, min_live - 1, min_live, std::size_t{Lanes - 1}})
    for (const bool ragged : {false, true})
      for (const int threads : {1, 2}) {
        if (t >= static_cast<std::size_t>(Lanes)) continue;
        tail_matches_rolling<K, Gap, Lanes>(t, 30, 34, ragged, gap, threads);
        tail_matches_rolling<K, Gap, Lanes>(t, 12, 14, ragged, gap, threads);
      }
}

// Runs on the engine instantiations the suite already compiles: each new
// (kind, gap, lanes) instantiation costs ~20 s of build time, and
// TailOracle sweeps every kind x gap through the dispatched variants.
TEST(BatchEngineTail, Lanes16MatchesRollingWithExactStats) {
  tail_sweep<align_kind::global, linear_gap, 16>(linear_gap{-1});
  tail_sweep<align_kind::global, affine_gap, 16>(affine_gap{-2, -1});
  tail_sweep<align_kind::local, affine_gap, 16>(affine_gap{-3, -1});
  tail_sweep<align_kind::semiglobal, linear_gap, 16>(linear_gap{-1});
}

TEST(BatchEngineTail, Lanes32MatchesRollingWithExactStats) {
  tail_sweep<align_kind::global, affine_gap, 32>(affine_gap{-2, -1});
}

TEST(BatchEngine, AlignAllProducesValidTracebacks) {
  bio::genome_params gp;
  gp.length = 20000;
  gp.seed = 9;
  auto ref = bio::random_genome("ref", gp);
  auto rp = bio::simulate_read_pairs(ref, 20, {});
  std::vector<pair_view> pairs;
  for (const auto& p : rp) pairs.push_back({p.first.view(), p.second.view()});
  const simple_scoring sc{2, -1};
  std::vector<workspace> workers(2);
  batch_engine<align_kind::global, affine_gap, simple_scoring, 16> eng(
      affine_gap{-2, -1}, sc, {2, score_precision::auto_select, workers});
  workspace ws;
  std::vector<alignment_result> results(pairs.size());
  std::vector<score_result> scores(pairs.size());
  eng.align_into(std::span<const pair_view>(pairs), ws,
                 std::span<alignment_result>(results));
  eng.score_into(std::span<const pair_view>(pairs), ws,
                 std::span<score_result>(scores));
  ASSERT_EQ(results.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(results[i].has_alignment);
    EXPECT_EQ(results[i].score, scores[i].score) << i;
    const score_t re = rescore_alignment(
        results[i].q_aligned, results[i].s_aligned,
        [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-2, -1});
    EXPECT_EQ(re, results[i].score) << i;
  }
}

TEST(BatchEngine, EmptyBatch) {
  const simple_scoring sc{2, -1};
  batch_engine<align_kind::global, linear_gap, simple_scoring, 16> eng(
      linear_gap{-1}, sc, {2});
  workspace ws;
  EXPECT_NO_THROW(eng.score_into(std::span<const pair_view>(), ws,
                                 std::span<score_result>()));
  EXPECT_NO_THROW(eng.align_into(std::span<const pair_view>(), ws,
                                 std::span<alignment_result>()));
  EXPECT_EQ(eng.last_stats().simd_pairs, 0u);
}

/// A multi-threaded run carves each worker's scratch from the caller's
/// `batch_config::worker_ws`.  Handed fewer arenas than it fans out to,
/// it throws before any pair runs — nothing is scored and no arena
/// grows — instead of allocating arenas of its own.
TEST(BatchEngine, FanOutNeedsAnArenaPerWorker) {
  auto qs = make_reads(64, 40, 11);
  std::vector<pair_view> pairs;
  for (const auto& q : qs) pairs.push_back({view(q), view(q)});
  const simple_scoring sc{2, -1};
  workspace ws;
  std::vector<score_result> scores(pairs.size());
  std::vector<alignment_result> tracebacks(pairs.size());
  for (const std::size_t arenas : {0, 1}) {
    std::vector<workspace> workers(arenas);
    batch_engine<align_kind::global, linear_gap, simple_scoring, 16> eng(
        linear_gap{-1}, sc, {2, score_precision::auto_select, workers});
    EXPECT_THROW(eng.score_into(std::span<const pair_view>(pairs), ws,
                                std::span<score_result>(scores)),
                 invalid_argument_error);
    EXPECT_THROW(eng.align_into(std::span<const pair_view>(pairs), ws,
                                std::span<alignment_result>(tracebacks)),
                 invalid_argument_error);
    for (const workspace& w : workers) EXPECT_EQ(w.capacity_bytes(), 0u);
  }
  for (const score_result& r : scores) EXPECT_EQ(r.score, neg_inf());
  for (const alignment_result& r : tracebacks) EXPECT_FALSE(r.has_alignment);

  std::vector<workspace> workers(2);
  batch_engine<align_kind::global, linear_gap, simple_scoring, 16> eng(
      linear_gap{-1}, sc, {2, score_precision::auto_select, workers});
  eng.score_into(std::span<const pair_view>(pairs), ws,
                 std::span<score_result>(scores));
  for (const score_result& r : scores) EXPECT_EQ(r.score, 80);
}

/// The pairs a batch does not put on lanes run the route `align` picks
/// for them on one thread (`classify_route` at threads = 1): striped
/// inside the int16 window on a vector variant, the one-thread tiled pass
/// past it or on the scalar variant, rolling for tiny pairs.  Every
/// result equals `align` on the same pair and the int32 reference, at
/// batch threads 1 and 2 (a tiled lone pair then runs its wavefront
/// inline on a pool worker), and each pair counts by the accumulator
/// `plan_info::precision` reports for it at one thread.
TEST(BatchEngineLonePairs, RunTheRouteAlignPicksOnEveryVariant) {
  std::vector<std::vector<char_t>> qs, ss;
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{1200, 1100},
                             {1000, 1000}, {16, 16}, {40, 40}}) {
    qs.push_back(test::random_codes(n, 60 + n));
    ss.push_back(test::mutate(qs.back(), 70 + n, 0.05, 0.0));
    ss.back().resize(m);
  }
  std::vector<seq_pair> pairs;
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  struct scores {
    score_t match, mismatch, open, extend;
  };
  // At 10/-10/-10/-5 both long pairs are past the int16 window:
  // (1000 + 1000 + 2) * 15 > 28000.
  for (const scores sc : {scores{2, -1, -2, -1}, scores{10, -10, -10, -5}})
    for (const align_kind k : test::all_kinds) {
      align_options ref;
      ref.kind = k;
      ref.match = sc.match;
      ref.mismatch = sc.mismatch;
      ref.gap_open = sc.open;
      ref.gap_extend = sc.extend;
      ref.exec = backend::scalar;
      ref.threads = 1;
      ref.precision = score_precision::int32;
      std::vector<alignment_result> want;
      for (const seq_pair& p : pairs) want.push_back(align(p.q, p.s, ref));
      for (const backend b :
           {backend::scalar, backend::simd_avx2, backend::simd_avx512}) {
        if (!test::backend_runnable(b)) continue;
        for (const int threads : {1, 2}) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(b) << " " << to_string(k) << " match "
                       << sc.match << " threads " << threads);
          align_options o = ref;
          o.exec = b;
          o.precision = score_precision::auto_select;
          o.threads = threads;
          aligner batch(o);
          std::vector<alignment_result> got;
          batch.align_batch_into(pairs, got);
          o.threads = 1;
          const aligner one(o);
          o.threads = threads;
          std::uint64_t striped = 0;
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            const alignment_result solo = align(pairs[i].q, pairs[i].s, o);
            EXPECT_EQ(got[i].score, solo.score) << "pair " << i;
            EXPECT_EQ(got[i].q_end, solo.q_end) << "pair " << i;
            EXPECT_EQ(got[i].s_end, solo.s_end) << "pair " << i;
            EXPECT_EQ(got[i].cells, solo.cells) << "pair " << i;
            EXPECT_EQ(got[i].score, want[i].score) << "pair " << i;
            EXPECT_EQ(got[i].q_end, want[i].q_end) << "pair " << i;
            EXPECT_EQ(got[i].s_end, want[i].s_end) << "pair " << i;
            if (one.plan(pairs[i].q.size(), pairs[i].s.size()).precision ==
                score_precision::int16)
              ++striped;
          }
          const batch_stats st = batch.last_batch_stats();
          EXPECT_EQ(st.striped_pairs, striped);
          EXPECT_EQ(st.scalar_pairs, pairs.size() - striped);
          EXPECT_EQ(st.simd_pairs, striped);
        }
      }
    }
  // The one-thread rule: a pair inside the window runs striped at any
  // size on one thread; on more, the wavefront takes over past
  // kSmallScoreCells.
  for (const backend b : {backend::simd_avx2, backend::simd_avx512}) {
    if (!test::backend_runnable(b)) continue;
    align_options o;
    o.exec = b;
    o.threads = 1;
    EXPECT_STREQ(aligner(o).plan(1000, 1000).route, "striped_score");
    o.threads = 2;
    EXPECT_STREQ(aligner(o).plan(1000, 1000).route, "tiled_score");
  }
}

/// A batch's traceback pairs run the route `align` picks for each of them
/// on one thread (`classify_route` at threads = 1, under the request's
/// `full_matrix_cells`): band doubling or the full matrix up to the bound,
/// Hirschberg (global) or locate (local, semiglobal) past it, and an
/// over-bound extension pair rejects the batch as it rejects `align`.  At
/// threads = 2 a Hirschberg pair may land on a pool worker, its
/// one-thread wavefront inline there.  Every result equals `align` on the
/// same pair field by field.
TEST(BatchEngineTracebackPairs, RunTheRouteAlignPicks) {
  std::vector<std::vector<char_t>> qs, ss;
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{3000, 2800},
                             {300, 300}, {16, 16}}) {
    qs.push_back(test::random_codes(n, 80 + n));
    ss.push_back(test::mutate(qs.back(), 90 + n, 0.05, 0.02));
    ss.back().resize(m);
  }
  qs.emplace_back();  // empty query
  ss.push_back(test::random_codes(16, 95));
  std::vector<seq_pair> pairs;
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({view(qs[i]), view(ss[i])});
  for (const align_kind k : test::all_kinds)
    for (const backend b :
         {backend::scalar, backend::simd_avx2, backend::simd_avx512}) {
      if (!test::backend_runnable(b)) continue;
      for (const int threads : {1, 2}) {
        SCOPED_TRACE(::testing::Message() << to_string(b) << " "
                                          << to_string(k) << " threads "
                                          << threads);
        align_options o;
        o.kind = k;
        o.gap_open = -2;
        o.exec = b;
        o.threads = threads;
        o.want_alignment = true;
        o.full_matrix_cells = index_t{1} << 16;
        aligner batch(o);
        std::vector<alignment_result> got;
        if (k == align_kind::extension) {
          EXPECT_THROW((void)align(pairs[0].q, pairs[0].s, o),
                       invalid_argument_error);
          EXPECT_THROW(batch.align_batch_into(pairs, got),
                       invalid_argument_error);
          continue;
        }
        batch.align_batch_into(pairs, got);
        ASSERT_EQ(got.size(), pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const alignment_result solo = align(pairs[i].q, pairs[i].s, o);
          EXPECT_EQ(got[i].score, solo.score) << "pair " << i;
          EXPECT_EQ(got[i].q_begin, solo.q_begin) << "pair " << i;
          EXPECT_EQ(got[i].s_begin, solo.s_begin) << "pair " << i;
          EXPECT_EQ(got[i].q_end, solo.q_end) << "pair " << i;
          EXPECT_EQ(got[i].s_end, solo.s_end) << "pair " << i;
          EXPECT_EQ(got[i].cigar, solo.cigar) << "pair " << i;
          EXPECT_EQ(got[i].cells, solo.cells) << "pair " << i;
        }
      }
    }

  // Two 6000 x 6000 global tracebacks at the default bound run
  // Hirschberg, one per worker: a warm threads = 2 batch holds two route
  // footprints, not two full matrices.
  const auto q = test::random_codes(6000, 97);
  const auto s = test::mutate(q, 98, 0.05, 0.02);
  const auto r = test::random_codes(6000, 99);
  const std::vector<seq_pair> big{{view(q), view(s)}, {view(q), view(r)}};
  align_options o;
  o.threads = 2;
  o.want_alignment = true;
  aligner a(o);
  ASSERT_STREQ(a.plan(6000, 6000).route, "hirschberg");
  std::vector<alignment_result> got;
  for (int i = 0; i < 2; ++i) a.align_batch_into(big, got);
  EXPECT_LE(a.workspace_bytes(), 3 * a.plan(6000, 6000).workspace_bytes);
  EXPECT_EQ(got[0].cigar, align(big[0].q, big[0].s, o).cigar);
}

}  // namespace
}  // namespace anyseq::tiled
