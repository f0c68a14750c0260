#include "core/banded.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

TEST(Banded, WideBandEqualsFullDp) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto q = test::random_codes(40, seed);
    auto s = test::mutate(q, seed + 1);
    const simple_scoring sc{2, -1};
    const affine_gap gap{-2, -1};
    const auto full = full_align<align_kind::global>(view(q), view(s), gap,
                                                     sc, false);
    const band b = band::around_main(
        static_cast<index_t>(q.size()), static_cast<index_t>(s.size()),
        static_cast<index_t>(q.size() + s.size()));
    EXPECT_EQ(banded_global_score(view(q), view(s), gap, sc, b), full.score)
        << seed;
  }
}

TEST(Banded, ConvergesToFullAsBandWidens) {
  auto q = test::random_codes(80, 3);
  auto s = test::mutate(q, 4, 0.05, 0.03);
  const simple_scoring sc{2, -1};
  const linear_gap gap{-1};
  const auto full =
      full_align<align_kind::global>(view(q), view(s), gap, sc, false);
  score_t prev = neg_inf();
  bool reached = false;
  for (index_t radius : {2, 4, 8, 16, 32, 120}) {
    const band b = band::around_main(static_cast<index_t>(q.size()),
                                     static_cast<index_t>(s.size()), radius);
    const score_t v = banded_global_score(view(q), view(s), gap, sc, b);
    EXPECT_GE(v, prev);          // wider band can only help
    EXPECT_LE(v, full.score);    // and never beats the unrestricted DP
    prev = v;
    if (v == full.score) reached = true;
  }
  EXPECT_TRUE(reached);
}

TEST(Banded, TracebackRescoresAndStaysInBand) {
  auto q = test::random_codes(60, 5);
  auto s = test::mutate(q, 6, 0.04, 0.02);
  const simple_scoring sc{2, -1};
  const affine_gap gap{-3, -1};
  const band b = band::around_main(static_cast<index_t>(q.size()),
                                   static_cast<index_t>(s.size()), 12);
  const auto r = banded_global(view(q), view(s), gap, sc, b);
  const score_t re = rescore_alignment(
      r.q_aligned, r.s_aligned,
      [](char a, char bch) { return a == bch ? 2 : -1; }, gap);
  EXPECT_EQ(re, r.score);
  // Walk the alignment and verify every visited diagonal is in the band.
  index_t i = 0, j = 0;
  for (std::size_t k = 0; k < r.q_aligned.size(); ++k) {
    if (r.q_aligned[k] != '-') ++i;
    if (r.s_aligned[k] != '-') ++j;
    EXPECT_GE(j - i, b.lo);
    EXPECT_LE(j - i, b.hi);
  }
}

TEST(Banded, CellsScaleWithBandNotMatrix) {
  auto q = test::random_codes(200, 7);
  auto s = test::mutate(q, 8, 0.02, 0.01);
  const band b = band::around_main(static_cast<index_t>(q.size()),
                                   static_cast<index_t>(s.size()), 10);
  const auto r = banded_global(view(q), view(s), linear_gap{-1},
                               simple_scoring{2, -1}, b, false);
  EXPECT_LT(r.cells, static_cast<std::uint64_t>(q.size()) *
                         (2 * 10 + std::llabs(static_cast<long long>(
                                       s.size() - q.size())) + 3));
}

TEST(Banded, RejectsInfeasibleBands) {
  auto q = test::random_codes(10, 9);
  auto s = test::random_codes(30, 10);
  const simple_scoring sc{2, -1};
  const linear_gap gap{-1};
  // Band missing the end diagonal (m - n = 20).
  EXPECT_THROW(
      (void)banded_global_score(view(q), view(s), gap, sc, {-5, 5}),
      invalid_argument_error);
  // Band missing diagonal 0.
  EXPECT_THROW(
      (void)banded_global_score(view(q), view(s), gap, sc, {5, 25}),
      invalid_argument_error);
  // Inverted band.
  EXPECT_THROW(
      (void)banded_global_score(view(q), view(s), gap, sc, {8, -8}),
      invalid_argument_error);
}

TEST(Banded, AroundMainCoversSkewedProblems) {
  const band b = band::around_main(10, 50, 4);
  EXPECT_LE(b.lo, 0);
  EXPECT_GE(b.hi, 40);
}

TEST(Banded, IdenticalSequencesNarrowestBand) {
  auto q = test::random_codes(100, 11);
  const band b{0, 0};  // main diagonal only
  const auto v = banded_global_score(view(q), view(q), linear_gap{-1},
                                     simple_scoring{2, -1}, b);
  EXPECT_EQ(v, 200);  // all matches fit in the zero-width band
}

TEST(Banded, NarrowBandsMatchTheRowLoopOnEveryVariant) {
  // The vector variants sweep the band along anti-diagonals, the scalar
  // variant runs the row loop.  Bands too narrow for the optimum (where
  // the in-band DP alone decides the result), skewed and one-sided
  // bands, and bands reaching past the matrix must give the scalar
  // result field by field, with and without the traceback.
  std::vector<backend> vector_backends;
  for (const backend b : {backend::simd_avx2, backend::simd_avx512})
    if (test::backend_runnable(b)) vector_backends.push_back(b);
  if (vector_backends.empty()) GTEST_SKIP() << "no vector variant runs here";

  align_options affine;
  affine.kind = align_kind::global;
  affine.gap_open = -2;
  affine.gap_extend = -1;
  affine.threads = 1;
  align_options linear = affine;
  linear.gap_open = 0;
  align_options matrix = affine;
  matrix.matrix = dna_default_matrix();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto q = test::random_codes(90 + 23 * seed, 9000 + seed);
    auto s = test::mutate(q, 9100 + seed, 0.10, 0.05);
    s.resize(s.size() - 7 * seed);  // skews the pair by up to 35
    const auto n = static_cast<index_t>(q.size());
    const auto m = static_cast<index_t>(s.size());
    std::vector<band> bands{{-n - 5, m + 5}, {std::min<index_t>(0, m - n) - 2,
                                              std::max<index_t>(0, m - n) + 30}};
    for (const index_t r : {0, 1, 3, 8, 20})
      bands.push_back(band::around_main(n, m, r));
    for (align_options o : {affine, linear, matrix})
      for (const bool tb : {true, false})
        for (const band b : bands) {
          o.want_alignment = tb;
          o.exec = backend::scalar;
          const auto want = align_banded(view(q), view(s), b, o);
          for (const backend v : vector_backends) {
            o.exec = v;
            const auto got = align_banded(view(q), view(s), b, o);
            const std::string at = std::string(to_string(v)) + " seed " +
                                   std::to_string(seed) + " band " +
                                   std::to_string(b.lo) + ".." +
                                   std::to_string(b.hi);
            EXPECT_EQ(got.score, want.score) << at;
            EXPECT_EQ(got.cigar, want.cigar) << at;
            EXPECT_EQ(got.q_aligned, want.q_aligned) << at;
            EXPECT_EQ(got.s_aligned, want.s_aligned) << at;
            EXPECT_EQ(got.cells, want.cells) << at;
          }
        }
  }
}

}  // namespace
}  // namespace anyseq
