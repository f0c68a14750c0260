#pragma once
/// \file tile_kernel.hpp
/// Scalar relaxation of one DP tile against the border frontier
/// (paper §IV-A: "In the non-vectorized version, cells within a submatrix
/// will be relaxed in row-major order").

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/targets.hpp)

#include "simd/set_target.hpp"

#include <limits>

#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "stage/views.hpp"
#include "tiled/borders.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

using ::anyseq::unit_step;

/// Best end-cell candidate seen so far (local/semiglobal/extension
/// optima).  Equal scores resolve to the lower `tile_geometry::rank`,
/// i.e. to the cell rolling_score visits first, so merging per-tile
/// bests in any order reproduces the serial engine's end cell.
struct tile_best {
  score_t score = neg_inf();
  index_t i = 0, j = 0;
  std::int64_t rank = std::numeric_limits<std::int64_t>::max();

  void consider(score_t v, index_t ci, index_t cj, std::int64_t r) noexcept {
    if (v > score || (v == score && r < rank)) {
      score = v;
      i = ci;
      j = cj;
      rank = r;
    }
  }
  /// Candidate (v, ci, cj) ranked in `g`'s order for kind K.
  template <align_kind K>
  void consider(score_t v, index_t ci, index_t cj,
                const tile_geometry& g) noexcept {
    if (v >= score) consider(v, ci, cj, g.rank<K>(ci, cj));
  }
  void merge(const tile_best& o) noexcept {
    consider(o.score, o.i, o.j, o.rank);
  }
};

/// Relax tile (ty, tx) in place on the frontier: consume its top/left
/// segments and corner, produce its bottom/right segments and corner
/// (ty+1, tx+1).  Returns the tile's best cell according to the
/// alignment kind (meaningless for global — the engine reads the final
/// frontier instead).
///
/// Scratch buffers (h, e of size tile_w+1) are caller-provided so worker
/// threads reuse them across tiles.
template <align_kind K, class Gap, class Scoring, class QV, class SV>
tile_best relax_tile_scalar(const QV& q, const SV& s, border_frontier& fr,
                            index_t ty, index_t tx, const Gap& gap,
                            const Scoring& scoring, score_t* ANYSEQ_RESTRICT h,
                            score_t* ANYSEQ_RESTRICT e) {
  const auto& g = fr.geometry();
  const index_t y0 = g.y0(ty), y1 = g.y1(ty);
  const index_t x0 = g.x0(tx), x1 = g.x1(tx);
  const index_t w = x1 - x0;
  const bool affine = Gap::kind == gap_kind::affine;

  // Load the top segment into the rolling buffers (local index 0..w);
  // index 0 is the tile's own corner.
  score_t* row_h = fr.h_row() + x0;
  score_t* row_e = affine ? fr.e_row() + x0 : nullptr;
  h[0] = fr.corner(ty, tx);
  e[0] = neg_inf();
  for (index_t jj = 1; jj <= w; ++jj) {
    h[jj] = row_h[jj];
    e[jj] = affine ? row_e[jj] : neg_inf();
  }

  // The left segment is read and overwritten row by row: H(i, x0) in,
  // H(i, x1) out.
  score_t* col_h = fr.h_col();
  score_t* col_f = affine ? fr.f_col() : nullptr;

  tile_best best;

  for (index_t i = y0 + 1; i <= y1; ++i) {
    score_t diag = h[0];
    h[0] = col_h[i];
    score_t f = affine ? col_f[i] : neg_inf();
    const char_t qc = q[i - 1];
    for (index_t jj = 1; jj <= w; ++jj) {
      const prev_cells<score_t> prev{diag, h[jj], h[jj - 1], e[jj], f};
      const auto nx =
          relax_scalar<K, false>(prev, qc, s[x0 + jj - 1], gap, scoring);
      diag = h[jj];
      h[jj] = nx.h;
      e[jj] = nx.e;
      f = nx.f;
      if constexpr (tracks_running_max(K))
        best.consider<K>(nx.h, i, x0 + jj, g);
    }
    col_h[i] = h[w];
    if (affine) col_f[i] = f;
    if constexpr (K == align_kind::semiglobal) {
      if (x1 == g.m) best.consider<K>(h[w], i, x1, g);  // true last column
    }
  }

  // Bottom segment out.  Slot x0 belongs to the left neighbour's segment
  // and is written only by tile column 0 (slot 0, so the finished row
  // frontier carries H(n, 0) too).
  for (index_t jj = tx > 0 ? 1 : 0; jj <= w; ++jj) {
    row_h[jj] = h[jj];
    if (affine) row_e[jj] = e[jj];
  }
  fr.corner(ty + 1, tx + 1) = h[w];
  if constexpr (K == align_kind::semiglobal) {
    if (y1 == g.n)  // true last row: every cell competes
      for (index_t jj = 0; jj <= w; ++jj)
        best.consider<K>(h[jj], y1, x0 + jj, g);
  }
  return best;
}

/// The optimum of a finished pass over grid `g`, whose tiles' bests were
/// merged into `b` and whose last cell H(n, m) is `h_nm`.  Global reads
/// H(n, m); the other kinds add the boundary candidates no tile sees,
/// ranked like rolling_score visits them.
template <align_kind K, class Gap>
[[nodiscard]] score_result pass_result(const tile_geometry& g, tile_best b,
                                       const Gap& gap, score_t h_nm) {
  score_result out;
  out.cells = static_cast<std::uint64_t>(g.n) * static_cast<std::uint64_t>(g.m);
  if constexpr (K == align_kind::global) {
    out.score = h_nm;
    out.end_i = g.n;
    out.end_j = g.m;
    return out;
  } else if constexpr (K == align_kind::semiglobal) {
    b.consider<K>(init_h_row0<K>(g.m, gap), 0, g.m, g);  // (0, m)
    b.consider<K>(init_h_col0<K>(g.n, gap), g.n, 0, g);  // (n, 0)
  } else {
    b.consider<K>(0, 0, 0, g);  // the empty alignment / prefix
  }
  out.score = b.score;
  out.end_i = b.i;
  out.end_j = b.j;
  return out;
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::pass_result;
using v_scalar::tiled::relax_tile_scalar;
using v_scalar::tiled::tile_best;
using v_scalar::tiled::unit_step;
}  // namespace anyseq::tiled
#endif  // scalar exports
