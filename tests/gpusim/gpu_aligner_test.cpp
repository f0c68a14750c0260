#include "gpusim/gpu_engine.hpp"

#include <gtest/gtest.h>

#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq::gpusim {
namespace {

using test::view;

template <align_kind K, class Gap>
void gpu_matches_reference(index_t n, index_t m, const Gap& gap,
                           std::uint64_t seed, gpu_config cfg) {
  auto q = test::random_codes(n, seed);
  auto s = test::random_codes(m, seed + 3);
  const simple_scoring sc{2, -1};
  device dev;
  gpu_engine<K, Gap, simple_scoring> eng(dev, gap, sc, cfg);
  const auto got = eng.score(view(q), view(s));
  workspace ws;
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  ASSERT_EQ(got.score, want.score) << to_string(K) << " seed " << seed;
}

TEST(GpuEngine, GlobalLinearBitExact) {
  gpu_matches_reference<align_kind::global>(200, 230, linear_gap{-1}, 1,
                                            {64, 64, 16});
}

TEST(GpuEngine, GlobalAffineBitExact) {
  gpu_matches_reference<align_kind::global>(190, 170, affine_gap{-2, -1}, 2,
                                            {48, 64, 8});
}

TEST(GpuEngine, LocalAffineBitExact) {
  gpu_matches_reference<align_kind::local>(150, 150, affine_gap{-3, -1}, 3,
                                           {32, 32, 8});
}

TEST(GpuEngine, SemiglobalLinearBitExact) {
  gpu_matches_reference<align_kind::semiglobal>(120, 260, linear_gap{-1}, 4,
                                                {64, 32, 16});
}

/// Score and end cell of one kind x gap x scoring against rolling_score,
/// on a homologous pair (even seeds) or an unrelated one (odd seeds).
template <align_kind K, class Gap, class Scoring>
void gpu_matches_rolling(const Gap& gap, const Scoring& sc,
                         std::uint64_t seed, double n_rate = 0.0) {
  const auto q = test::random_codes(170, seed, n_rate);
  const auto s = seed % 2 == 0 ? test::mutate(q, seed + 1)
                                : test::random_codes(190, seed + 1, n_rate);
  device dev;
  gpu_engine<K, Gap, Scoring> eng(dev, gap, sc, {64, 48, 16});
  const auto got = eng.score(view(q), view(s));
  workspace ws;
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  EXPECT_EQ(got.score, want.score) << to_string(K) << " seed " << seed;
  EXPECT_EQ(got.end_i, want.end_i) << to_string(K) << " seed " << seed;
  EXPECT_EQ(got.end_j, want.end_j) << to_string(K) << " seed " << seed;
}

template <align_kind K>
void gpu_matches_rolling_both_gaps(std::uint64_t seed) {
  gpu_matches_rolling<K>(linear_gap{-1}, simple_scoring{2, -1}, seed);
  gpu_matches_rolling<K>(affine_gap{-2, -1}, simple_scoring{2, -1}, seed);
}

TEST(GpuEngine, EveryKindAndGapModelMatchesRollingEndCell) {
  for (const std::uint64_t seed : {21, 22, 23}) {
    gpu_matches_rolling_both_gaps<align_kind::global>(seed);
    gpu_matches_rolling_both_gaps<align_kind::local>(seed);
    gpu_matches_rolling_both_gaps<align_kind::semiglobal>(seed);
  }
}

TEST(GpuEngine, DefaultMatrixMatchesRollingEndCell) {
  constexpr auto matrix = dna_default_matrix();
  const affine_gap gap{-4, -1};
  gpu_matches_rolling<align_kind::global>(gap, matrix, 31, 0.05);
  gpu_matches_rolling<align_kind::local>(gap, matrix, 32, 0.05);
  gpu_matches_rolling<align_kind::semiglobal>(gap, matrix, 33, 0.05);
}

TEST(GpuEngine, StripeHeightDoesNotChangeScores) {
  auto q = test::random_codes(180, 5);
  auto s = test::random_codes(175, 6);
  const simple_scoring sc{2, -1};
  score_t first = 0;
  for (int threads : {1, 4, 16, 64, 128}) {
    device dev;
    gpu_engine<align_kind::global, affine_gap, simple_scoring> eng(
        dev, affine_gap{-2, -1}, sc, {64, 64, threads});
    const auto r = eng.score(view(q), view(s));
    if (threads == 1)
      first = r.score;
    else
      EXPECT_EQ(r.score, first) << threads;
  }
}

TEST(GpuEngine, CountersAccumulate) {
  auto q = test::random_codes(256, 7);
  auto s = test::random_codes(256, 8);
  device dev;
  gpu_engine<align_kind::global, linear_gap, simple_scoring> eng(
      dev, linear_gap{-1}, simple_scoring{2, -1}, {64, 64, 32});
  (void)eng.score(view(q), view(s));
  const auto& c = dev.counters();
  EXPECT_EQ(c.cells, 256u * 256u);
  // 4x4 tile grid -> 7 diagonals -> 7 launches, 16 blocks.
  EXPECT_EQ(c.kernel_launches, 7u);
  EXPECT_EQ(c.blocks, 16u);
  EXPECT_GT(c.global_read_trans, 0u);
  EXPECT_GT(c.global_write_trans, 0u);
  EXPECT_GT(c.thread_phases, 0u);
}

TEST(GpuEngine, LastRowMatchesSerial) {
  auto q = test::random_codes(100, 9);
  auto s = test::random_codes(90, 10);
  const simple_scoring sc{2, -1};
  const affine_gap gap{-2, -1};
  std::vector<score_t> hh(91), ee(91), hh_ref(91), ee_ref(91);
  nw_last_row(view(q), view(s), gap, sc, 0, std::span(hh_ref),
              std::span(ee_ref));
  device dev;
  gpu_engine<align_kind::global, affine_gap, simple_scoring> eng(
      dev, gap, sc, {32, 32, 8});
  eng.last_row(view(q), view(s), 0, std::span(hh), std::span(ee));
  EXPECT_EQ(hh, hh_ref);
  EXPECT_EQ(ee, ee_ref);
}

TEST(GpuEngine, AlignTracebackRescores) {
  auto q = test::random_codes(300, 11);
  auto s = test::mutate(q, 12, 0.08, 0.05);
  const simple_scoring sc{2, -1};
  device dev;
  gpu_engine<align_kind::global, affine_gap, simple_scoring> eng(
      dev, affine_gap{-2, -1}, sc, {64, 64, 16});
  auto r = eng.align(view(q), view(s));
  workspace ws;
  alignment_result want;
  full_engine<align_kind::global, affine_gap, simple_scoring>(
      affine_gap{-2, -1}, sc)
      .align_into(view(q), view(s), false, ws, want);
  EXPECT_EQ(r.score, want.score);
  const score_t re = rescore_alignment(
      r.q_aligned, r.s_aligned,
      [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-2, -1});
  EXPECT_EQ(re, r.score);
}

TEST(GpuEngine, BatchScoresMatchScalar) {
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 10; ++i) {
    qs.push_back(test::random_codes(80, 100 + i));
    ss.push_back(test::random_codes(85, 200 + i));
  }
  for (int i = 0; i < 10; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{2, -1};
  device dev;
  gpu_engine<align_kind::global, linear_gap, simple_scoring> eng(
      dev, linear_gap{-1}, sc);
  auto rs = eng.batch(pairs, true);
  ASSERT_EQ(rs.size(), 10u);
  workspace ws;
  for (int i = 0; i < 10; ++i) {
    const auto want = rolling_score<align_kind::global>(
        pairs[i].q, pairs[i].s, linear_gap{-1}, sc, ws);
    EXPECT_EQ(rs[i].score, want.score) << i;
    EXPECT_TRUE(rs[i].has_alignment);
  }
  EXPECT_EQ(dev.counters().cells, 10u * 80u * 85u);
}

TEST(GpuEngine, TracebackCostsMoreTrafficThanScoreOnly) {
  std::vector<std::vector<char_t>> qs;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 8; ++i) qs.push_back(test::random_codes(100, 300 + i));
  for (int i = 0; i < 8; ++i) pairs.push_back({view(qs[i]), view(qs[i])});
  const simple_scoring sc{2, -1};
  device d1, d2;
  gpu_engine<align_kind::global, linear_gap, simple_scoring> e1(
      d1, linear_gap{-1}, sc);
  gpu_engine<align_kind::global, linear_gap, simple_scoring> e2(
      d2, linear_gap{-1}, sc);
  (void)e1.batch(pairs, false);
  (void)e2.batch(pairs, true);
  EXPECT_GT(d2.counters().global_write_trans,
            d1.counters().global_write_trans);
}

TEST(GpuEngine, RejectsBadConfig) {
  device dev;
  EXPECT_THROW((gpu_engine<align_kind::global, linear_gap, simple_scoring>(
                   dev, linear_gap{-1}, simple_scoring{2, -1}, {0, 64, 8})),
               invalid_argument_error);
}

}  // namespace
}  // namespace anyseq::gpusim
