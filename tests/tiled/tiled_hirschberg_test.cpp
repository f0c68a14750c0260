#include "tiled/tiled_hirschberg.hpp"

#include <gtest/gtest.h>

#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

template <int Lanes, class Gap>
void check(index_t n, const Gap& gap, std::uint64_t seed, tiled_config cfg,
           index_t base_cells) {
  auto q = test::random_codes(n, seed);
  auto s = test::mutate(q, seed + 1, 0.08, 0.04);
  const simple_scoring sc{2, -1};
  workspace ws;
  auto want = rolling_score<align_kind::global>(view(q), view(s), gap, sc, ws);
  alignment_result got;
  tiled_hirschberg_align_into<Lanes>(view(q), view(s), gap, sc, cfg,
                                     base_cells, ws, got);
  ASSERT_EQ(got.score, want.score);
  const score_t re = rescore_alignment(
      got.q_aligned, got.s_aligned,
      [](char a, char b) { return a == b ? 2 : -1; }, gap);
  EXPECT_EQ(re, got.score);
  // Inputs reproduced when stripping gaps.
  std::string qp;
  for (char c : got.q_aligned)
    if (c != '-') qp.push_back(c);
  EXPECT_EQ(qp.size(), static_cast<std::size_t>(n));
}

TEST(TiledHirschberg, ScalarMultithreadLinear) {
  check<1>(800, linear_gap{-1}, 1, {64, 64, 4}, 1 << 10);
}

TEST(TiledHirschberg, ScalarMultithreadAffine) {
  check<1>(700, affine_gap{-2, -1}, 2, {64, 64, 3}, 1 << 10);
}

TEST(TiledHirschberg, Simd16Affine) {
  check<16>(900, affine_gap{-2, -1}, 3, {32, 32, 2}, 1 << 10);
}

TEST(TiledHirschberg, Simd16AffineWideOpen) {
  check<16>(600, affine_gap{-3, -1}, 4, {32, 32, 2}, 1 << 10);
}

TEST(TiledHirschberg, TinyBaseCellsStressesRecursion) {
  check<1>(300, affine_gap{-2, -1}, 5, {32, 32, 2}, 1);
}

TEST(TiledHirschberg, CellsStayLinearSpaceBounded) {
  auto q = test::random_codes(1000, 6);
  auto s = test::mutate(q, 7);
  const simple_scoring sc{2, -1};
  workspace ws;
  alignment_result r;
  tiled_hirschberg_align_into<16>(view(q), view(s), affine_gap{-2, -1}, sc,
                                  {64, 64, 2}, 1 << 12, ws, r);
  const auto nm = static_cast<std::uint64_t>(q.size()) * s.size();
  EXPECT_LE(r.cells, 2 * nm + q.size() + s.size());
}

}  // namespace
}  // namespace anyseq::tiled
