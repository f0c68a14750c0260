#include "baselines/libraries.hpp"

#include <gtest/gtest.h>

#include "core/rolling.hpp"
#include "testutil.hpp"

namespace anyseq::baselines {
namespace {

using test::view;

TEST(SeqanLike, ScoresMatchReferenceLinearAndAffine) {
  auto q = test::random_codes(300, 1);
  auto s = test::mutate(q, 2);
  // Linear request -> affine(0, g) machinery, same scores.
  seqan_like<align_kind::global, 16> lin(2, -1, linear_gap{-1}, {2, 64});
  workspace ws;
  const auto want_lin = rolling_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(lin.score(view(q), view(s)).score, want_lin.score);

  seqan_like<align_kind::global, 16> aff(2, -1, affine_gap{-2, -1}, {2, 64});
  const auto want_aff = rolling_score<align_kind::global>(
      view(q), view(s), affine_gap{-2, -1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(aff.score(view(q), view(s)).score, want_aff.score);
}

TEST(SeqanLike, TracebackRescores) {
  auto q = test::random_codes(400, 3);
  auto s = test::mutate(q, 4);
  seqan_like<align_kind::global, 16> eng(2, -1, affine_gap{-2, -1}, {2, 64});
  const auto r = eng.align(view(q), view(s));
  const score_t re = rescore_alignment(
      r.q_aligned, r.s_aligned,
      [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-2, -1});
  EXPECT_EQ(re, r.score);
}

TEST(SeqanLike, BatchScoresMatch) {
  std::vector<std::vector<char_t>> qs;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 32; ++i) qs.push_back(test::random_codes(60, 10 + i));
  for (int i = 0; i < 32; ++i) pairs.push_back({view(qs[i]), view(qs[i])});
  seqan_like<align_kind::global, 16> eng(2, -1, linear_gap{-1}, {2, 64});
  for (score_t v : eng.batch_scores(pairs)) EXPECT_EQ(v, 120);
}

TEST(ParasailLike, ScoresMatchReference) {
  auto q = test::random_codes(250, 5);
  auto s = test::mutate(q, 6);
  parasail_like<align_kind::global, 16> eng(2, -1, linear_gap{-1}, {2, 64});
  workspace ws;
  const auto want = rolling_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(eng.score(view(q), view(s)).score, want.score);
}

TEST(ParasailLike, LocalScores) {
  auto q = test::random_codes(200, 7);
  auto s = test::random_codes(180, 8);
  parasail_like<align_kind::local, 16> eng(2, -1, affine_gap{-4, -1},
                                           {2, 64});
  workspace ws;
  const auto want = rolling_score<align_kind::local>(
      view(q), view(s), affine_gap{-4, -1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(eng.score(view(q), view(s)).score, want.score);
}

TEST(ParasailLike, TracebackRescores) {
  auto q = test::random_codes(300, 9);
  auto s = test::mutate(q, 10);
  parasail_like<align_kind::global, 16> eng(2, -1, affine_gap{-2, -1},
                                            {2, 64});
  const auto r = eng.align(view(q), view(s));
  const score_t re = rescore_alignment(
      r.q_aligned, r.s_aligned,
      [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-2, -1});
  EXPECT_EQ(re, r.score);
}

TEST(NvbioLike, ScoresMatchReference) {
  auto q = test::random_codes(220, 11);
  auto s = test::mutate(q, 12);
  gpusim::device dev;
  nvbio_like<align_kind::global, linear_gap> eng(dev, 2, -1, linear_gap{-1});
  workspace ws;
  const auto want = rolling_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(eng.score(view(q), view(s)).score, want.score);
}

TEST(NvbioLike, ModelsSlowerThanAnyseqGpu) {
  // Same work, degraded kernel model + row spills: simulated GCUPS of the
  // nvbio-like baseline must come out below the AnySeq GPU estimate —
  // the paper's "factor of up to 1.1".
  auto q = test::random_codes(2048, 13);
  auto s = test::random_codes(2048, 14);
  const simple_scoring sc{2, -1};

  gpusim::device d_any;
  gpusim::gpu_engine<align_kind::global, linear_gap, simple_scoring> any(
      d_any, linear_gap{-1}, sc);
  (void)any.score(view(q), view(s));
  const auto g_any = gpusim::estimate(d_any.counters(), gpusim::gpu_model{});

  gpusim::device d_nv;
  nvbio_like<align_kind::global, linear_gap> nv(d_nv, 2, -1, linear_gap{-1});
  (void)nv.score(view(q), view(s));
  const auto g_nv = nv.estimate();

  EXPECT_GT(g_any.gcups, g_nv.gcups);
  EXPECT_LT(g_any.gcups, g_nv.gcups * 1.6);  // close race, not a blowout
}

TEST(AsAffine, MapsLinearOntoOpenZero) {
  constexpr auto a = as_affine(linear_gap{-3});
  EXPECT_EQ(a.open(), 0);
  EXPECT_EQ(a.extend(), -3);
  constexpr auto b = as_affine(affine_gap{-5, -2});
  EXPECT_EQ(b.open(), -5);
  EXPECT_EQ(b.extend(), -2);
}

}  // namespace
}  // namespace anyseq::baselines
