#include "tiled/tile_kernel.hpp"

#include <gtest/gtest.h>

#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

/// Drive the scalar tile kernel over a whole grid serially (row-major
/// covers dependencies) and compare the frontier against the full engine.
template <align_kind K, class Gap>
void grid_matches_full(index_t n, index_t m, index_t th, index_t tw,
                       const Gap& gap, std::uint64_t seed) {
  auto q = test::random_codes(n, seed);
  auto s = test::random_codes(m, seed + 99);
  const simple_scoring sc{2, -1};

  tile_geometry geom(n, m, th, tw);
  workspace ws;
  border_frontier fr(geom, Gap::kind == gap_kind::affine, ws);
  fr.init([&](index_t j) { return init_h_row0<K>(j, gap); },
          [&](index_t i) { return init_h_col0<K>(i, gap); });

  std::vector<score_t> h(tw + 1), e(tw + 1);
  tile_best best;
  for (index_t ty = 0; ty < geom.tiles_y; ++ty)
    for (index_t tx = 0; tx < geom.tiles_x; ++tx)
      best.merge(relax_tile_scalar<K>(view(q), view(s), fr, ty, tx, gap, sc,
                                      h.data(), e.data()));

  // H stays readable after the pass only on an arena reserved to it.
  using full_t = full_engine<K, Gap, simple_scoring>;
  full_t ref(gap, sc);
  workspace full_ws;
  full_ws.reserve_bytes(full_t::plan_bytes(n, m));
  alignment_result r;
  ref.align_into(view(q), view(s), false, full_ws, r);
  auto hm = ref.h_matrix(n, m);

  // The finished row frontier equals the full engine's last DP row.
  for (index_t j = 0; j <= m; ++j)
    ASSERT_EQ(fr.h_row()[j], hm.read(n, j)) << "col " << j;
  // The finished column frontier equals the last DP column.
  for (index_t i = 1; i <= n; ++i)  // slot 0 keeps H(0, 0)
    ASSERT_EQ(fr.h_col()[i], hm.read(i, m)) << "row " << i;
  // Every interior grid-point corner holds H at that point.
  for (index_t r = 1; r <= geom.tiles_y; ++r)
    for (index_t c = 1; c <= geom.tiles_x; ++c)
      ASSERT_EQ(fr.corner(r, c), hm.read(std::min(geom.y0(r), n),
                                         std::min(geom.x0(c), m)))
          << "corner " << r << "," << c;

  if constexpr (K != align_kind::global) {
    score_t want = r.score;
    score_t got = best.score;
    if constexpr (K == align_kind::local) got = std::max<score_t>(got, 0);
    if constexpr (K == align_kind::semiglobal) {
      got = std::max(got, hm.read(0, m));
      got = std::max(got, hm.read(n, 0));
    }
    if constexpr (K == align_kind::extension) got = std::max<score_t>(got, 0);
    EXPECT_EQ(got, want);
  }
}

TEST(TileKernel, GlobalLinearVariousTilings) {
  grid_matches_full<align_kind::global>(30, 40, 8, 8, linear_gap{-1}, 1);
  grid_matches_full<align_kind::global>(33, 41, 8, 16, linear_gap{-1}, 2);
  grid_matches_full<align_kind::global>(17, 17, 32, 32, linear_gap{-2}, 3);
  grid_matches_full<align_kind::global>(64, 64, 16, 16, linear_gap{-1}, 4);
}

TEST(TileKernel, GlobalAffineVariousTilings) {
  grid_matches_full<align_kind::global>(30, 40, 8, 8, affine_gap{-3, -1}, 5);
  grid_matches_full<align_kind::global>(45, 23, 16, 8, affine_gap{-2, -1}, 6);
  grid_matches_full<align_kind::global>(29, 31, 10, 10, affine_gap{-10, -2},
                                        7);
}

TEST(TileKernel, LocalTracksBest) {
  grid_matches_full<align_kind::local>(40, 40, 8, 8, linear_gap{-2}, 8);
  grid_matches_full<align_kind::local>(37, 53, 16, 8, affine_gap{-4, -1}, 9);
}

TEST(TileKernel, SemiglobalTracksBorder) {
  grid_matches_full<align_kind::semiglobal>(24, 48, 8, 8, linear_gap{-1}, 10);
  grid_matches_full<align_kind::semiglobal>(48, 24, 8, 8, affine_gap{-2, -1},
                                            11);
}

TEST(TileKernel, ExtensionTracksBest) {
  grid_matches_full<align_kind::extension>(30, 30, 8, 8, affine_gap{-2, -1},
                                           12);
}

TEST(TileKernel, TileLargerThanMatrix) {
  grid_matches_full<align_kind::global>(5, 7, 64, 64, affine_gap{-2, -1}, 13);
}

TEST(TileKernel, SingleCellTiles) {
  grid_matches_full<align_kind::global>(9, 9, 1, 1, linear_gap{-1}, 14);
}

TEST(TileGeometry, ClippingAndFullness) {
  tile_geometry g(10, 13, 4, 5);
  EXPECT_EQ(g.tiles_y, 3);
  EXPECT_EQ(g.tiles_x, 3);
  EXPECT_EQ(g.y1(0) - g.y0(0), 4);  // full
  EXPECT_EQ(g.x1(0) - g.x0(0), 5);
  EXPECT_EQ(g.y1(2) - g.y0(2), 2);  // rows 8..10: height 2
  EXPECT_EQ(g.x1(2) - g.x0(2), 3);  // cols 10..13: width 3
  EXPECT_EQ(g.y1(2), 10);
  EXPECT_EQ(g.x1(2), 13);
}

TEST(BorderFrontier, AffineAllocatesPlanes) {
  tile_geometry g(100, 100, 10, 10);
  workspace ws;
  border_frontier lin(g, false, ws), aff(g, true, ws);
  EXPECT_FALSE(lin.affine());
  EXPECT_TRUE(aff.affine());
  EXPECT_GT(aff.bytes(), lin.bytes());
}

TEST(BorderFrontier, BordersDoNotGrowWithTheTileCount) {
  // One row and one column per plane, whatever the tile: only the
  // corner array (one score per grid point) depends on the tiling.
  const tile_geometry coarse(4000, 6000, 500, 500), fine(4000, 6000, 50, 50);
  workspace ws;
  const border_frontier a(coarse, true, ws), b(fine, true, ws);
  const auto corners = [](const tile_geometry& g) {
    return static_cast<std::size_t>((g.tiles_y + 1) * (g.tiles_x + 1)) *
           sizeof(score_t);
  };
  EXPECT_EQ(a.bytes() - corners(coarse), b.bytes() - corners(fine));
  EXPECT_EQ(a.bytes() - corners(coarse), 2 * (4001 + 6001) * sizeof(score_t));
}

}  // namespace
}  // namespace anyseq::tiled
