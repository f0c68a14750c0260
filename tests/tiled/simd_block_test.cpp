#include "tiled/simd_block.hpp"

#include <gtest/gtest.h>

#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

/// Run one grid twice — scalar tiles vs SIMD blocks of up to `live`
/// anti-diagonal tiles (dead lanes fill the rest of the W-lane block) —
/// and require identical frontiers and identical best cells.
template <align_kind K, class Gap, int W>
void block_equals_scalar(index_t n, index_t m, index_t tile,
                         const Gap& gap, std::uint64_t seed, int live = W) {
  auto q = test::random_codes(n, seed);
  auto s = test::random_codes(m, seed + 7);
  const simple_scoring sc{2, -1};
  const bool affine = Gap::kind == gap_kind::affine;

  tile_geometry geom(n, m, tile, tile);
  ASSERT_GE(std::min(geom.tiles_y, geom.tiles_x), static_cast<index_t>(live))
      << "test needs a diagonal with `live` independent full tiles";

  auto init = [&](border_frontier& fr) {
    fr.init([&](index_t j) { return init_h_row0<K>(j, gap); },
            [&](index_t i) { return init_h_col0<K>(i, gap); });
  };

  // Scalar reference frontier.
  border_frontier ref(geom, affine);
  init(ref);
  std::vector<score_t> h(tile + 1), e(tile + 1);
  tile_best ref_best;
  for (index_t ty = 0; ty < geom.tiles_y; ++ty)
    for (index_t tx = 0; tx < geom.tiles_x; ++tx)
      ref_best.merge(relax_tile_scalar<K>(view(q), view(s), ref, ty, tx, gap,
                                          sc, h.data(), e.data()));

  // SIMD frontier: sweep anti-diagonals; the full tiles of a diagonal run
  // in blocks of `live` (a shorter remainder of >= 2 as a smaller partial
  // block), the clipped ones and a lone remainder scalar.
  border_frontier fr(geom, affine);
  init(fr);
  workspace scratch_ws;
  block_scratch<W> scratch;
  scratch.bind(scratch_ws, tile);
  tile_best simd_best;
  for (index_t d = 0; d < geom.tiles_y + geom.tiles_x - 1; ++d) {
    std::vector<parallel::tile_coord> full;
    const index_t ty_lo = d < geom.tiles_x ? 0 : d - geom.tiles_x + 1;
    const index_t ty_hi = d < geom.tiles_y ? d : geom.tiles_y - 1;
    for (index_t ty = ty_lo; ty <= ty_hi; ++ty) {
      const auto tx = d - ty;
      if (geom.full(ty, tx))
        full.push_back({0, static_cast<std::int32_t>(ty),
                        static_cast<std::int32_t>(tx)});
      else
        simd_best.merge(relax_tile_scalar<K>(view(q), view(s), fr, ty, tx,
                                             gap, sc, h.data(), e.data()));
    }
    for (std::size_t i = 0; i < full.size(); i += live) {
      const int c = static_cast<int>(
          std::min(full.size() - i, static_cast<std::size_t>(live)));
      if (c >= 2)
        simd_best.merge(relax_tile_block<K, Gap, simple_scoring, W>(
            view(q), view(s), fr, full.data() + i, c, gap, sc, scratch));
      else
        simd_best.merge(relax_tile_scalar<K>(view(q), view(s), fr,
                                             full[i].ty, full[i].tx, gap, sc,
                                             h.data(), e.data()));
    }
  }

  for (index_t j = 0; j <= m; ++j)
    ASSERT_EQ(fr.h_row()[j], ref.h_row()[j]) << "bottom col " << j;
  for (index_t i = 1; i <= n; ++i)
    ASSERT_EQ(fr.h_col()[i], ref.h_col()[i]) << "right row " << i;
  for (index_t r = 0; r <= geom.tiles_y; ++r)
    for (index_t c = 0; c <= geom.tiles_x; ++c)
      ASSERT_EQ(fr.corner(r, c), ref.corner(r, c)) << r << "," << c;
  if constexpr (K != align_kind::global) {
    EXPECT_EQ(simd_best.score, ref_best.score) << "live " << live;
    EXPECT_EQ(simd_best.i, ref_best.i) << "live " << live;
    EXPECT_EQ(simd_best.j, ref_best.j) << "live " << live;
  }
}

TEST(SimdBlock, GlobalLinear4Lanes) {
  block_equals_scalar<align_kind::global, linear_gap, 8>(
      8 * 16, 8 * 16, 16, linear_gap{-1}, 1);
}

TEST(SimdBlock, GlobalAffine8Lanes) {
  block_equals_scalar<align_kind::global, affine_gap, 8>(
      8 * 16, 8 * 16, 16, affine_gap{-2, -1}, 2);
}

TEST(SimdBlock, GlobalAffine16Lanes) {
  block_equals_scalar<align_kind::global, affine_gap, 16>(
      16 * 16 + 5, 16 * 16 + 3, 16, affine_gap{-3, -1}, 3);
}

TEST(SimdBlock, LocalAffine16Lanes) {
  block_equals_scalar<align_kind::local, affine_gap, 16>(
      16 * 16, 16 * 16, 16, affine_gap{-2, -1}, 4);
}

TEST(SimdBlock, Semiglobal16Lanes) {
  block_equals_scalar<align_kind::semiglobal, linear_gap, 16>(
      16 * 16, 16 * 16, 16, linear_gap{-1}, 5);
}

TEST(SimdBlock, Wide32Lanes) {
  block_equals_scalar<align_kind::global, affine_gap, 32>(
      32 * 8, 32 * 8, 8, affine_gap{-2, -1}, 6);
}

TEST(SimdBlock, RaggedEdgesFallBackCleanly) {
  // Sizes chosen so edge tiles are clipped; blocks form only inside.
  block_equals_scalar<align_kind::global, affine_gap, 8>(
      8 * 16 + 9, 8 * 16 + 11, 16, affine_gap{-2, -1}, 7);
}

TEST(SimdBlock, PartialBlocksAtEveryLiveCount) {
  // Clipped edge tiles on every diagonal, all kinds, both gap models.
  for (int live = 2; live <= 8; ++live) {
    block_equals_scalar<align_kind::global, affine_gap, 8>(
        8 * 16 + 9, 8 * 16 + 11, 16, affine_gap{-2, -1}, 20, live);
    block_equals_scalar<align_kind::local, linear_gap, 8>(
        8 * 16 + 9, 8 * 16 + 11, 16, linear_gap{-2}, 21, live);
    block_equals_scalar<align_kind::semiglobal, affine_gap, 8>(
        8 * 16 + 5, 8 * 16 + 3, 16, affine_gap{-2, -1}, 22, live);
    block_equals_scalar<align_kind::extension, linear_gap, 8>(
        8 * 16 + 7, 8 * 16 + 1, 16, linear_gap{-1}, 23, live);
  }
  for (int live = 2; live <= 16; ++live)
    block_equals_scalar<align_kind::local, affine_gap, 16>(
        16 * 8 + 3, 16 * 8 + 5, 8, affine_gap{-3, -1}, 24, live);
  for (int live = 2; live <= 32; live += 5)
    block_equals_scalar<align_kind::semiglobal, linear_gap, 32>(
        32 * 6 + 1, 32 * 6 + 2, 6, linear_gap{-1}, 25, live);
}

TEST(SimdBlockRebase, RoundTripsAbsoluteScores) {
  using detail::debase16;
  using detail::rebase16;
  EXPECT_EQ(debase16(rebase16(1000, 900), 900), 1000);
  EXPECT_EQ(debase16(rebase16(-50, 100), 100), -50);
  // The -inf sentinel survives both directions.
  EXPECT_EQ(rebase16(neg_inf(), 0), neg_inf16());
  EXPECT_EQ(debase16(neg_inf16(), 12345), neg_inf());
}

}  // namespace
}  // namespace anyseq::tiled
