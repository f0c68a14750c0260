#include "core/rolling.hpp"

#include <gtest/gtest.h>

#include "core/alphabet.hpp"
#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

template <align_kind K, class Gap>
void expect_matches_full(std::uint64_t seed, index_t nq, index_t ns,
                         const Gap& gap) {
  auto q = test::random_codes(nq, seed);
  auto s = test::random_codes(ns, seed + 1000);
  const simple_scoring sc{2, -1};
  workspace ws;
  alignment_result full;
  full_engine<K, Gap, simple_scoring>(gap, sc).align_into(view(q), view(s),
                                                          false, ws, full);
  auto roll = rolling_score<K>(view(q), view(s), gap, sc, ws);
  EXPECT_EQ(roll.score, full.score)
      << to_string(K) << " seed " << seed << " " << nq << "x" << ns;
  EXPECT_EQ(roll.end_i, full.q_end);
  EXPECT_EQ(roll.end_j, full.s_end);
}

TEST(RollingScore, MatchesFullEngineGlobalLinear) {
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    expect_matches_full<align_kind::global>(seed, 20 + seed, 25, linear_gap{-1});
}

TEST(RollingScore, MatchesFullEngineGlobalAffine) {
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    expect_matches_full<align_kind::global>(seed, 18, 22 + seed,
                                            affine_gap{-3, -1});
}

TEST(RollingScore, MatchesFullEngineLocal) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    expect_matches_full<align_kind::local>(seed, 30, 28, linear_gap{-2});
    expect_matches_full<align_kind::local>(seed, 24, 31, affine_gap{-4, -1});
  }
}

TEST(RollingScore, MatchesFullEngineSemiglobal) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    expect_matches_full<align_kind::semiglobal>(seed, 12, 40, linear_gap{-1});
    expect_matches_full<align_kind::semiglobal>(seed, 40, 12,
                                                affine_gap{-2, -1});
  }
}

TEST(RollingScore, MatchesFullEngineExtension) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    expect_matches_full<align_kind::extension>(seed, 20, 20, linear_gap{-1});
    expect_matches_full<align_kind::extension>(seed, 15, 25,
                                               affine_gap{-3, -2});
  }
}

TEST(RollingScore, EmptyInputs) {
  std::vector<char_t> q, s = dna_encode_all("ACG");
  workspace ws;
  EXPECT_EQ((rolling_score<align_kind::global>(view(q), view(s),
                                               linear_gap{-1},
                                               simple_scoring{2, -1}, ws)
                 .score),
            -3);
  EXPECT_EQ((rolling_score<align_kind::local>(view(q), view(s),
                                              linear_gap{-1},
                                              simple_scoring{2, -1}, ws)
                 .score),
            0);
  EXPECT_EQ((rolling_score<align_kind::semiglobal>(view(q), view(s),
                                                   linear_gap{-1},
                                                   simple_scoring{2, -1}, ws)
                 .score),
            0);
}

TEST(RollingScore, ReversedViewsGiveSameGlobalScore) {
  // Global alignment score is invariant under reversing both sequences.
  auto q = test::random_codes(33, 7), s = test::mutate(q, 8);
  const simple_scoring sc{2, -1};
  const affine_gap gap{-2, -1};
  workspace ws;
  auto fwd = rolling_score<align_kind::global>(view(q), view(s), gap, sc, ws);
  auto rev = rolling_score<align_kind::global>(
      stage::rev_view(view(q)), stage::rev_view(view(s)), gap, sc, ws);
  EXPECT_EQ(fwd.score, rev.score);
}

TEST(NwLastRow, FinalEntryEqualsGlobalScore) {
  auto q = test::random_codes(21, 3), s = test::random_codes(17, 4);
  const simple_scoring sc{2, -1};
  const affine_gap gap{-3, -1};
  std::vector<score_t> hh(s.size() + 1), ee(s.size() + 1);
  nw_last_row(view(q), view(s), gap, sc, gap.open(), std::span(hh),
              std::span(ee));
  workspace ws;
  auto ref = rolling_score<align_kind::global>(view(q), view(s), gap, sc, ws);
  EXPECT_EQ(hh.back(), ref.score);
}

TEST(NwLastRow, EveryEntryIsAPrefixGlobalScore) {
  auto q = test::random_codes(12, 5), s = test::random_codes(15, 6);
  const simple_scoring sc{2, -1};
  const linear_gap gap{-1};
  std::vector<score_t> hh(s.size() + 1), ee(s.size() + 1);
  nw_last_row(view(q), view(s), gap, sc, gap.open(), std::span(hh),
              std::span(ee));
  workspace ws;
  for (index_t j = 0; j <= static_cast<index_t>(s.size()); ++j) {
    auto ref = rolling_score<align_kind::global>(
        view(q), view(s).sub(0, j), gap, sc, ws);
    EXPECT_EQ(hh[j], ref.score) << "prefix " << j;
  }
}

TEST(NwLastRow, TbZeroDiscountsLeadingDeletionOpen) {
  // With tb=0 a leading vertical gap pays no open: scoring all-deletions
  // of q against empty s.
  auto q = test::random_codes(9, 8);
  std::vector<char_t> s;
  const affine_gap gap{-5, -1};
  std::vector<score_t> hh(1), ee(1);
  nw_last_row(view(q), view(s), gap, simple_scoring{2, -1}, 0, std::span(hh),
              std::span(ee));
  EXPECT_EQ(hh[0], -9);  // 9 extends, no open
}

}  // namespace
}  // namespace anyseq
