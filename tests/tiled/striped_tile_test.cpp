/// \file striped_tile_test.cpp
/// Differential oracle for the striped tile pass (tiled/striped.hpp
/// `striped_tile`): two frontiers of one grid run in lockstep, one tile
/// at a time — exact int32 `relax_tile_scalar` on one, the striped int16
/// pass on the other — and after every tile the bottom H/E row, the
/// right H/F column, every corner and the returned tile_best (score,
/// cell, rank) must be byte-identical.  All four kinds, linear and
/// affine gaps, simple and matrix scoring, at 16 and 32 lanes (the
/// scalar clone's packs); tiles of 1 x 1, shorter than a stripe, not a
/// multiple of it, and 128 x 128, with clipped edge tiles and the first
/// row and column of tiles (whose E/F borders are -inf) on every grid.

#include <gtest/gtest.h>

#include <vector>

#include "core/scoring.hpp"
#include "testutil.hpp"
#include "tiled/striped.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

struct grid_shape {
  index_t n, m, tile_h, tile_w;
};

/// Shapes per lane count W: 1 x 1 tiles; h < W with clipped edges on
/// both axes; h = W + 3 (not a multiple of the stripe) on a W-wide
/// tile; 128 x 128 with clipped edges.
std::vector<grid_shape> shapes(index_t w) {
  return {{3, 4, 1, 1},
          {40, 45, 7, 9},
          {3 * w + 5, 2 * w + 1, w + 3, w},
          {300, 290, 128, 128}};
}

/// A related pair (so interior tiles sit far above zero and the local
/// floor's rebase matters) with N sprinkled in (so the matrix's N row is
/// read).
std::pair<std::vector<char_t>, std::vector<char_t>> related_pair(
    index_t n, index_t m, std::uint64_t seed) {
  auto q = test::random_codes(static_cast<std::size_t>(n), seed, 0.03);
  auto s = test::mutate(q, seed + 1);
  const auto tail = test::random_codes(static_cast<std::size_t>(m), seed + 2);
  const std::size_t mutated = s.size();
  s.resize(static_cast<std::size_t>(m));
  for (std::size_t j = mutated; j < s.size(); ++j) s[j] = tail[j];
  return {q, s};
}

template <int W, align_kind K, class Gap, class Scoring>
void tiles_match(const Gap& gap, const Scoring& sc, const grid_shape& sh,
                 const std::vector<char_t>& q, const std::vector<char_t>& s) {
  const tile_geometry g(sh.n, sh.m, sh.tile_h, sh.tile_w);
  constexpr bool kAffine = Gap::kind == gap_kind::affine;
  workspace ws;
  border_frontier ref(g, kAffine, ws), got(g, kAffine, ws);
  for (border_frontier* fr : {&ref, &got})
    fr->init([&](index_t j) { return init_h_row0<K>(j, gap); },
             [&](index_t i) { return init_h_col0<K>(i, gap); });
  std::vector<score_t> h(static_cast<std::size_t>(sh.tile_w + 1));
  std::vector<score_t> e(h.size());
  std::vector<simd::pack<score16_t, W>> stripes(
      striped_packs<K, W, Gap, Scoring>(sh.tile_h));

  for (index_t ty = 0; ty < g.tiles_y; ++ty)
    for (index_t tx = 0; tx < g.tiles_x; ++tx) {
      SCOPED_TRACE(::testing::Message()
                   << "lanes " << W << " " << to_string(K)
                   << (kAffine ? " affine " : " linear ") << sh.n << "x"
                   << sh.m << " tile " << sh.tile_h << "x" << sh.tile_w
                   << " at (" << ty << ", " << tx << ")");
      ASSERT_TRUE(fits_striped_tile(g.y1(ty) - g.y0(ty), g.x1(tx) - g.x0(tx),
                                    unit_step(gap, sc)));
      const tile_best want = relax_tile_scalar<K>(view(q), view(s), ref, ty,
                                                  tx, gap, sc, h.data(),
                                                  e.data());
      const tile_best have = striped_tile<K, W>(view(q), view(s), got, ty,
                                                tx, gap, sc, stripes.data());
      for (index_t j = 0; j <= sh.m; ++j) {
        ASSERT_EQ(got.h_row()[j], ref.h_row()[j]) << "H row " << j;
        if (kAffine) {
          ASSERT_EQ(got.e_row()[j], ref.e_row()[j]) << "E row " << j;
        }
      }
      for (index_t i = 0; i <= sh.n; ++i) {
        ASSERT_EQ(got.h_col()[i], ref.h_col()[i]) << "H col " << i;
        if (kAffine) {
          ASSERT_EQ(got.f_col()[i], ref.f_col()[i]) << "F col " << i;
        }
      }
      for (index_t r = 0; r <= g.tiles_y; ++r)
        for (index_t c = 0; c <= g.tiles_x; ++c)
          ASSERT_EQ(got.corner(r, c), ref.corner(r, c)) << r << "," << c;
      ASSERT_EQ(have.score, want.score);
      ASSERT_EQ(have.i, want.i);
      ASSERT_EQ(have.j, want.j);
      ASSERT_EQ(have.rank, want.rank);
    }
}

template <int W, align_kind K>
void every_scoring(std::uint64_t seed) {
  const simple_scoring simple{2, -1};
  const auto matrix = dna_default_matrix();
  for (const grid_shape& sh : shapes(W)) {
    const auto [q, s] = related_pair(sh.n, sh.m, seed);
    tiles_match<W, K>(linear_gap{-1}, simple, sh, q, s);
    tiles_match<W, K>(affine_gap{-2, -1}, simple, sh, q, s);
    tiles_match<W, K>(linear_gap{-2}, matrix, sh, q, s);
    tiles_match<W, K>(affine_gap{-4, -1}, matrix, sh, q, s);
  }
}

template <int W>
void every_kind() {
  every_scoring<W, align_kind::global>(1);
  every_scoring<W, align_kind::local>(2);
  every_scoring<W, align_kind::semiglobal>(3);
  every_scoring<W, align_kind::extension>(4);
}

TEST(StripedTile, EqualsScalarTileAt16Lanes) { every_kind<16>(); }

TEST(StripedTile, EqualsScalarTileAt32Lanes) { every_kind<32>(); }

template <int W, align_kind K>
void largest_row_bias() {
  // |gap_extend| as the scoring unit 40 (affine: open -1 takes the last
  // of it), and 348, the last tile side that fits: (2 * 348 + 2) * 40 =
  // 27920 < 28000.  A full tile spans the most stripes the bound allows,
  // with stripe seg - 1 biased by (seg - 1) * |extend| (up to 21 * 40 on
  // 16 lanes); the clipped edge tiles span fewer.
  const grid_shape sh{2 * 348 + 37, 348 + 100, 348, 348};
  const auto [q, s] = related_pair(sh.n, sh.m, 40);
  tiles_match<W, K>(linear_gap{-40}, simple_scoring{40, -40}, sh, q, s);
  tiles_match<W, K>(affine_gap{-1, -39}, simple_scoring{40, -40}, sh, q, s);
}

TEST(StripedTile, LargestRowBiasEqualsScalarTile) {
  largest_row_bias<16, align_kind::global>();
  largest_row_bias<16, align_kind::local>();
  largest_row_bias<16, align_kind::semiglobal>();
  largest_row_bias<16, align_kind::extension>();
  largest_row_bias<32, align_kind::global>();
  largest_row_bias<32, align_kind::local>();
  largest_row_bias<32, align_kind::semiglobal>();
  largest_row_bias<32, align_kind::extension>();
}

template <align_kind K>
void ties_at(const grid_shape& sh) {
  // One letter repeated under zero match: whole regions tie, so only
  // the rank decides the cell each tile reports.
  const std::vector<char_t> q(static_cast<std::size_t>(sh.n), 1);
  const std::vector<char_t> s(static_cast<std::size_t>(sh.m), 1);
  tiles_match<16, K>(linear_gap{-1}, simple_scoring{0, -1}, sh, q, s);
  tiles_match<32, K>(affine_gap{-2, -1}, simple_scoring{0, -1}, sh, q, s);
}

TEST(StripedTile, TiesRankLikeTheScalarTile) {
  for (const grid_shape& sh : shapes(16)) {
    ties_at<align_kind::local>(sh);
    ties_at<align_kind::semiglobal>(sh);
    ties_at<align_kind::extension>(sh);
  }
}

}  // namespace
}  // namespace anyseq::tiled
