#pragma once
/// \file borders.hpp
/// Border frontier for tiled DP (paper Fig. 2): instead of the full DP
/// matrix, only the tile borders the wavefront still needs are
/// materialized — "data accessors help to hide the fact that not the
/// entire DP matrix is stored, but only such border stripes" (§IV-A).
///
/// Layout, for a grid of TY x TX tiles over an (n+1) x (m+1) DP matrix:
///   h_row / e_row — one H/E row of m+1 cells; segment (x0, x1] holds the
///                   bottom row of the tile column's last finished tile
///   h_col / f_col — one H/F column of n+1 cells; segment (y0, y1] holds
///                   the right column of the tile row's last finished tile
///   corner(r, c)  — H at grid point (y0(r), x0(c)), (TY+1) x (TX+1)
/// A tile (ty, tx) reads its top segment, its left segment and corner
/// (ty, tx), then overwrites both segments in place and writes corner
/// (ty+1, tx+1).  Race-freedom: the tiles of one tile column form a
/// dependency chain, so the row segment is read only after the tile
/// above finished and written before the tile below starts; the same
/// holds for tile rows and the column segment.  The top-left corner
/// H(y0, x0) is the one value two tiles need in two versions — the left
/// neighbour overwrites its row slot x0 with H(y1, x0) — so it lives in
/// the corner array, where every grid point is written exactly once.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/targets.hpp)

#include "simd/set_target.hpp"

#include <algorithm>
#include <cstdint>

#include "core/types.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Geometry of one tiled DP problem.
struct tile_geometry {
  index_t n = 0, m = 0;        ///< sequence lengths (rows, cols)
  index_t tile_h = 0, tile_w = 0;
  index_t tiles_y = 0, tiles_x = 0;

  tile_geometry() = default;
  tile_geometry(index_t n_, index_t m_, index_t th, index_t tw)
      : n(n_), m(m_), tile_h(th), tile_w(tw),
        tiles_y(stage::tile_count(n_, th)),
        tiles_x(stage::tile_count(m_, tw)) {}

  /// DP-row range (y0, y1] of tile row ty (interior rows y0+1..y1).
  [[nodiscard]] index_t y0(index_t ty) const noexcept { return ty * tile_h; }
  [[nodiscard]] index_t y1(index_t ty) const noexcept {
    const index_t y = (ty + 1) * tile_h;
    return y < n ? y : n;
  }
  [[nodiscard]] index_t x0(index_t tx) const noexcept { return tx * tile_w; }
  [[nodiscard]] index_t x1(index_t tx) const noexcept {
    const index_t x = (tx + 1) * tile_w;
    return x < m ? x : m;
  }

  /// Position of candidate cell (i, j) in the order rolling_score visits
  /// end-cell candidates: row-major for local and extension; the last
  /// column by ascending i, then the last row by ascending j, for
  /// semiglobal.  Equal scores resolve to the lower rank, so the
  /// reported end cell does not depend on tile size or thread timing.
  template <align_kind K>
  [[nodiscard]] std::int64_t rank(index_t i, index_t j) const noexcept {
    if constexpr (K == align_kind::semiglobal)
      return j == m ? i : n + 1 + j;
    else
      return static_cast<std::int64_t>(i) * (m + 1) + j;
  }
};

/// The border frontier itself.  `affine` controls whether the E/F planes
/// are allocated (linear gaps drop them — the storage analogue of
/// partial evaluation removing the E/F matrices).
///
/// Storage is carved from a caller-owned `workspace` per pass and
/// released by the caller's enclosing frame (zero steady-state
/// allocations).
class border_frontier {
 public:
  /// Arena bytes a workspace-backed frontier carves (the plan side):
  /// O(n + m) border cells plus one corner per grid point.
  [[nodiscard]] static std::size_t plan_bytes(const tile_geometry& g,
                                              bool affine) noexcept {
    const std::size_t planes = affine ? 2 : 1;
    return planes * (carve_bytes<score_t>(static_cast<std::size_t>(g.m + 1)) +
                     carve_bytes<score_t>(static_cast<std::size_t>(g.n + 1))) +
           carve_bytes<score_t>(corner_count(g));
  }

  /// Carve every plane from `ws` (released when the caller's enclosing
  /// frame unwinds).
  border_frontier(const tile_geometry& g, bool affine, workspace& ws)
      : geom_(g), affine_(affine) {
    const auto rows = static_cast<std::size_t>(g.m + 1);
    const auto cols = static_cast<std::size_t>(g.n + 1);
    h_row_ = ws.make<score_t>(rows, score_t{0}).data();
    h_col_ = ws.make<score_t>(cols, score_t{0}).data();
    corners_ = ws.make<score_t>(corner_count(g), score_t{0}).data();
    if (affine) {
      e_row_ = ws.make<score_t>(rows, neg_inf()).data();
      f_col_ = ws.make<score_t>(cols, neg_inf()).data();
    }
  }

  /// Boundary initialization: H(0, j) = h_row0(j), H(i, 0) = h_col0(i),
  /// and the matching edge corners (E and F start at -inf).
  template <class RowInit, class ColInit>
  void init(RowInit h_row0, ColInit h_col0) {
    for (index_t j = 0; j <= geom_.m; ++j) h_row_[j] = h_row0(j);
    for (index_t i = 0; i <= geom_.n; ++i) h_col_[i] = h_col0(i);
    for (index_t c = 0; c <= geom_.tiles_x; ++c)
      corner(0, c) = h_row_[std::min(geom_.x0(c), geom_.m)];
    for (index_t r = 1; r <= geom_.tiles_y; ++r)
      corner(r, 0) = h_col_[std::min(geom_.y0(r), geom_.n)];
  }

  /// H/E along the row frontier, j = 0..m; once every tile finished,
  /// H(n, j) and E(n, j).
  [[nodiscard]] score_t* h_row() noexcept { return h_row_; }
  [[nodiscard]] score_t* e_row() noexcept { return e_row_; }
  /// H/F along the column frontier, i = 0..n; once every tile finished,
  /// H(i, m) and F(i, m) for i >= 1.
  [[nodiscard]] score_t* h_col() noexcept { return h_col_; }
  [[nodiscard]] score_t* f_col() noexcept { return f_col_; }
  /// H at grid point (y0(r), x0(c)) (clipped), r = 0..TY, c = 0..TX.
  [[nodiscard]] score_t& corner(index_t r, index_t c) noexcept {
    return corners_[r * (geom_.tiles_x + 1) + c];
  }

  [[nodiscard]] const tile_geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] bool affine() const noexcept { return affine_; }

  /// Bytes held — benchmarks report this to show linear-space behaviour.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return ((affine_ ? 2 : 1) *
                static_cast<std::size_t>(geom_.m + 1 + geom_.n + 1) +
            corner_count(geom_)) *
           sizeof(score_t);
  }

 private:
  [[nodiscard]] static std::size_t corner_count(
      const tile_geometry& g) noexcept {
    return static_cast<std::size_t>((g.tiles_y + 1) * (g.tiles_x + 1));
  }

  tile_geometry geom_;
  bool affine_ = false;
  score_t* h_row_ = nullptr;
  score_t* e_row_ = nullptr;
  score_t* h_col_ = nullptr;
  score_t* f_col_ = nullptr;
  score_t* corners_ = nullptr;
};

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::border_frontier;
using v_scalar::tiled::tile_geometry;
}  // namespace anyseq::tiled
#endif  // scalar exports
