#include "core/relax.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/gap.hpp"
#include "core/scoring.hpp"

namespace anyseq {
namespace {

constexpr simple_scoring kScore{2, -1};
constexpr linear_gap kLinear{-1};
constexpr affine_gap kAffine{-2, -1};

TEST(RelaxLinear, DiagonalWinsOnMatch) {
  prev_cells<score_t> p{10, 5, 5, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{0},
                                                  kLinear, kScore);
  EXPECT_EQ(r.h, 12);
  EXPECT_EQ(r.pred & pred::h_mask, pred::diag);
}

TEST(RelaxLinear, UpGapWins) {
  prev_cells<score_t> p{0, 20, 0, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kLinear, kScore);
  EXPECT_EQ(r.h, 19);  // 20 - 1
  EXPECT_EQ(r.pred & pred::h_mask, pred::up);
}

TEST(RelaxLinear, LeftGapWins) {
  prev_cells<score_t> p{0, 0, 20, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kLinear, kScore);
  EXPECT_EQ(r.h, 19);
  EXPECT_EQ(r.pred & pred::h_mask, pred::left);
}

TEST(RelaxLinear, TieBreakPrefersDiagonal) {
  // diag + match == up + gap: the paper's listing checks gaps with strict >.
  prev_cells<score_t> p{10, 13, 0, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{2}, char_t{2},
                                                  kLinear, kScore);
  EXPECT_EQ(r.h, 12);
  EXPECT_EQ(r.pred & pred::h_mask, pred::diag);
}

TEST(RelaxLinear, LocalClampsToZero) {
  prev_cells<score_t> p{-100, -100, -100, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::local, true>(p, char_t{0}, char_t{1},
                                                 kLinear, kScore);
  EXPECT_EQ(r.h, 0);
  EXPECT_EQ(r.pred & pred::h_mask, pred::stop);
}

TEST(RelaxLinear, GlobalDoesNotClamp) {
  prev_cells<score_t> p{-100, -100, -100, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kLinear, kScore);
  EXPECT_EQ(r.h, -101);  // -100 + mismatch(-1)
}

TEST(RelaxLinear, ExtensionDoesNotClamp) {
  prev_cells<score_t> p{-100, -100, -100, neg_inf(), neg_inf()};
  auto r = relax_scalar<align_kind::extension, true>(p, char_t{0}, char_t{1},
                                                     kLinear, kScore);
  EXPECT_LT(r.h, 0);
}

TEST(RelaxAffine, OpenVsExtend) {
  // Extending an existing gap (E=8, extend -1 -> 7) beats opening a fresh
  // one (H=8, open+extend -3 -> 5).
  prev_cells<score_t> p{0, 8, 0, 8, neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kAffine, kScore);
  EXPECT_EQ(r.e, 7);
  EXPECT_TRUE(r.pred & pred::e_extend);
}

TEST(RelaxAffine, FreshOpenBeatsDeepGap) {
  // E history is bad; opening from H wins and the extend bit is clear.
  prev_cells<score_t> p{0, 8, 0, -50, neg_inf()};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kAffine, kScore);
  EXPECT_EQ(r.e, 5);  // 8 - 3
  EXPECT_FALSE(r.pred & pred::e_extend);
}

TEST(RelaxAffine, FGapMirrorsE) {
  prev_cells<score_t> p{0, 0, 8, neg_inf(), 8};
  auto r = relax_scalar<align_kind::global, true>(p, char_t{0}, char_t{1},
                                                  kAffine, kScore);
  EXPECT_EQ(r.f, 7);
  EXPECT_TRUE(r.pred & pred::f_extend);
  EXPECT_EQ(r.pred & pred::h_mask, pred::left);
}

TEST(RelaxAffine, NegInfStaysPinnedEnough) {
  // Adding penalties to the sentinel must not wrap to a huge positive.
  prev_cells<score_t> p{neg_inf(), neg_inf(), neg_inf(), neg_inf(),
                        neg_inf()};
  auto r = relax_scalar<align_kind::global, false>(p, char_t{0}, char_t{0},
                                                   kAffine, kScore);
  EXPECT_LT(r.h, neg_inf() / 2);
  EXPECT_LT(r.e, neg_inf() / 2);
}

TEST(RelaxNoTrack, SameScoreAsTracked) {
  for (score_t d : {-5, 0, 7})
    for (score_t u : {-3, 2, 9})
      for (score_t l : {-8, 1, 4}) {
        prev_cells<score_t> p{d, u, l, static_cast<score_t>(u - 1),
                              static_cast<score_t>(l - 1)};
        auto a = relax_scalar<align_kind::global, true>(p, char_t{1},
                                                        char_t{1}, kAffine,
                                                        kScore);
        auto b = relax_scalar<align_kind::global, false>(p, char_t{1},
                                                         char_t{1}, kAffine,
                                                         kScore);
        EXPECT_EQ(a.h, b.h);
        EXPECT_EQ(a.e, b.e);
        EXPECT_EQ(a.f, b.f);
      }
}

TEST(RelaxWith16Bit, MatchesScalar32OnModerateValues) {
  constexpr simple_scoring sc{2, -1};
  for (int d = -100; d <= 100; d += 25)
    for (int u = -100; u <= 100; u += 25) {
      prev_cells<score16_t> p16{static_cast<score16_t>(d),
                                static_cast<score16_t>(u),
                                static_cast<score16_t>(u - d),
                                static_cast<score16_t>(u - 3),
                                static_cast<score16_t>(d - 3)};
      prev_cells<score_t> p32{d, u, u - d, u - 3, d - 3};
      auto r16 = relax<align_kind::global, false, score16_t, score16_t,
                       char_t>(p16, char_t{0}, char_t{0}, kAffine, sc);
      auto r32 = relax<align_kind::global, false, score_t, score_t, char_t>(
          p32, char_t{0}, char_t{0}, kAffine, sc);
      EXPECT_EQ(static_cast<score_t>(r16.h), r32.h);
      EXPECT_EQ(static_cast<score_t>(r16.e), r32.e);
      EXPECT_EQ(static_cast<score_t>(r16.f), r32.f);
    }
}

TEST(RelaxWith16Bit, SaturatesInsteadOfWrapping) {
  prev_cells<score16_t> p{neg_inf16(), neg_inf16(), neg_inf16(), neg_inf16(),
                          neg_inf16()};
  auto r = relax<align_kind::global, false, score16_t, score16_t, char_t>(
      p, char_t{0}, char_t{1}, affine_gap{-10000, -10000}, kScore);
  EXPECT_LT(r.e, 0);
  EXPECT_LT(r.h, 0);
}

// --- relax_diff -------------------------------------------------------

/// Full global DP over (q, s) twice: absolute H/E/F through relax_scalar,
/// and difference form through relax_diff on score_t.  Every u and v must
/// equal H's differences, and every u, v, x, y must sit in the ranges
/// fits_diff_window derives from (gap, scoring).
template <class Gap>
void differences_track_absolute(const Gap& gap, const simple_scoring& sc,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> len(1, 40), code(0, 3);
  const int n = len(rng), m = len(rng);
  std::vector<char_t> q(static_cast<std::size_t>(n)),
      s(static_cast<std::size_t>(m));
  for (auto& c : q) c = static_cast<char_t>(code(rng) & (seed % 2 ? 1 : 3));
  for (auto& c : s) c = static_cast<char_t>(code(rng) & (seed % 2 ? 1 : 3));
  const auto at = [m](int i, int j) { return i * (m + 1) + j; };
  const std::size_t cells = static_cast<std::size_t>((n + 1) * (m + 1));
  std::vector<score_t> h(cells), e(cells, neg_inf()), f(cells, neg_inf());
  for (int j = 0; j <= m; ++j) h[at(0, j)] = gap.total(j);
  for (int i = 1; i <= n; ++i) {
    h[at(i, 0)] = gap.total(i);
    for (int j = 1; j <= m; ++j) {
      const prev_cells<score_t> p{h[at(i - 1, j - 1)], h[at(i - 1, j)],
                                  h[at(i, j - 1)], e[at(i - 1, j)],
                                  f[at(i, j - 1)]};
      const auto r = relax_scalar<align_kind::global, false>(
          p, q[i - 1], s[j - 1], gap, sc);
      h[at(i, j)] = r.h;
      e[at(i, j)] = r.e;
      f[at(i, j)] = r.f;
    }
  }
  const score_t big = -gap.open_extend(), small = -gap.extend();
  const score_t hi = sc.max_abs_unit() + big;
  const bool affine = Gap::kind == gap_kind::affine;
  std::vector<score_t> v(static_cast<std::size_t>(m + 1)),
      x(static_cast<std::size_t>(m + 1), gap.open_extend());
  for (int j = 1; j <= m; ++j) v[j] = h[at(0, j)] - h[at(0, j - 1)];
  for (int i = 1; i <= n; ++i) {
    score_t u = h[at(i, 0)] - h[at(i - 1, 0)], y = gap.open_extend();
    for (int j = 1; j <= m; ++j) {
      const diff_cell<score_t> out = relax_diff<score_t, char_t>(
          {u, v[j], x[j], y}, q[i - 1], s[j - 1], gap, sc);
      ASSERT_EQ(out.u, h[at(i, j)] - h[at(i - 1, j)]) << i << "," << j;
      ASSERT_EQ(out.v, h[at(i, j)] - h[at(i, j - 1)]) << i << "," << j;
      for (const score_t d : {out.u, out.v}) {
        EXPECT_GE(d, -big);
        EXPECT_LE(d, hi);
      }
      if (affine) {
        if (i < n) {
          ASSERT_EQ(out.x, std::max(h[at(i, j)] + gap.open_extend(),
                                    e[at(i, j)] + gap.extend()) -
                               h[at(i, j)]);
        }
        for (const score_t d : {out.x, out.y}) {
          EXPECT_GE(d, -big);
          EXPECT_LE(d, -small);
        }
      }
      u = out.u;
      y = out.y;
      v[j] = out.v;
      x[j] = out.x;
    }
  }
}

TEST(RelaxDiff, DifferencesTrackTheAbsoluteRecurrence) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    differences_track_absolute(kLinear, kScore, seed);
    differences_track_absolute(kAffine, kScore, seed);
    differences_track_absolute(affine_gap{-20, -10}, simple_scoring{48, -1},
                               seed);
    differences_track_absolute(linear_gap{-64}, simple_scoring{63, -64},
                               seed);
  }
}

TEST(RelaxDiff, WindowEdgeIsExact) {
  // Linear: S + G <= 127 and 2G <= 128.  Affine: S + G <= 127 and
  // 3G + S - g <= 128, with G = -(open + extend) and g = -extend.
  EXPECT_TRUE(fits_diff_window(kAffine, kScore));
  EXPECT_TRUE(fits_diff_window(linear_gap{-64}, simple_scoring{63, -1}));
  EXPECT_FALSE(fits_diff_window(linear_gap{-64}, simple_scoring{64, -1}));
  EXPECT_FALSE(fits_diff_window(linear_gap{-65}, simple_scoring{1, -1}));
  EXPECT_TRUE(fits_diff_window(affine_gap{-20, -10}, simple_scoring{48, -1}));
  EXPECT_FALSE(fits_diff_window(affine_gap{-20, -10}, simple_scoring{49, -1}));
  EXPECT_FALSE(fits_diff_window(affine_gap{-20, -10}, simple_scoring{1, -49}));
  EXPECT_FALSE(fits_diff_window(affine_gap{2, -1}, kScore));
  EXPECT_FALSE(fits_diff_window(linear_gap{1}, kScore));
}

}  // namespace
}  // namespace anyseq
