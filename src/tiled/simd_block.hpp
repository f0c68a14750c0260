/// \file simd_block.hpp
/// SIMD relaxation of a *block* of independent tiles (paper §IV-A:
/// "Vectorization is done over blocks that consist of rows from
/// independent submatrices").
///
/// Lane `l` of every vector computes tile `l` of the block; because the
/// tiles are mutually independent (ready at the same time in the dynamic
/// wavefront), the lanes never interact and core::relax instantiated with
/// pack types computes all of them per instruction.  A partial block
/// leaves its last lanes dead: they recompute lane 0's tile and their
/// results are dropped.
///
/// Scores inside the block are 16-bit offsets from each tile's entry
/// corner ("only differences to the global score are relevant", §IV-A);
/// borders are rebased on load and restored on store.  The caller
/// guarantees (tile_h + tile_w) * max_unit stays inside the int16 range —
/// tiled_engine runs tiles beyond it as int32 singles instead.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_SIMD_BLOCK_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_SIMD_BLOCK_HPP_
#undef ANYSEQ_TILED_SIMD_BLOCK_HPP_
#else
#define ANYSEQ_TILED_SIMD_BLOCK_HPP_
#endif

#include "core/init.hpp"
#include "parallel/wavefront.hpp"
#include "core/relax.hpp"
#include "core/workspace.hpp"
#include "simd/pack.hpp"
#include "stage/views.hpp"
#include "tiled/borders.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Per-worker scratch for the SIMD block kernel.  Views into a
/// `workspace` arena: the engine carves one per worker at pass start
/// (plan), the kernel only indexes (execute) — replacing the old
/// growth-only `static thread_local` vectors.
template <int W>
struct block_scratch {
  using p16 = simd::pack<score16_t, W>;
  std::span<p16> h;       ///< rolling H row, tile_w+1 packs
  std::span<p16> e;       ///< rolling E row
  std::span<p16> schars;  ///< interleaved subject characters, tile_w+1

  /// Arena bytes one bound scratch carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(index_t tile_w) noexcept {
    return 3 * carve_bytes<p16>(static_cast<std::size_t>(tile_w + 1));
  }

  /// Carve the three rows for tiles of width `tile_w` from `ws`.
  void bind(workspace& ws, index_t tile_w) {
    const auto count = static_cast<std::size_t>(tile_w + 1);
    h = ws.make<p16>(count);
    e = ws.make<p16>(count);
    schars = ws.make<p16>(count);
  }
};

namespace detail {

/// Clamp a rebased 32-bit score into the 16-bit block range, mapping
/// anything at or below the 32-bit sentinel onto the 16-bit sentinel.
[[nodiscard]] ANYSEQ_INLINE score16_t rebase16(score_t v, score_t base) noexcept {
  if (v <= neg_inf() / 2) return neg_inf16();
  const score_t d = v - base;
  ANYSEQ_ASSERT(d > neg_inf16() && d < -neg_inf16(),
                "block score exceeds 16-bit differential range");
  return static_cast<score16_t>(d);
}

/// Absolute zero (the local-alignment floor) in rebased representation;
/// pinned to the sentinel when out of range (the clamp is then inactive,
/// which is correct: such tiles sit far above zero already).
[[nodiscard]] ANYSEQ_INLINE score16_t rebase_nu16(score_t base) noexcept {
  const score_t d = -base;
  if (d <= neg_inf16()) return neg_inf16();
  ANYSEQ_ASSERT(d < -neg_inf16(), "local tile corner far below zero");
  return static_cast<score16_t>(d);
}

/// Restore an absolute score from the 16-bit block representation.
[[nodiscard]] ANYSEQ_INLINE score_t debase16(score16_t v, score_t base) noexcept {
  if (v <= neg_inf16()) return neg_inf();
  return base + static_cast<score_t>(v);
}

}  // namespace detail

/// Relax `live` (2 <= live <= W) independent full-size tiles as one SIMD
/// block.  `tiles[l]` gives lane l's (ty, tx) for l < live; the dead
/// lanes live..W-1 replay lane 0's tile and never write borders or merge
/// bests.  Returns the live lanes' tile_best merged (local/semiglobal
/// tracking).
template <align_kind K, class Gap, class Scoring, int W, class QV, class SV>
tile_best relax_tile_block(const QV& q, const SV& s, border_frontier& fr,
                           const parallel::tile_coord* tiles, int live,
                           const Gap& gap, const Scoring& scoring,
                           block_scratch<W>& scr) {
  using p16 = simd::pack<score16_t, W>;
  const auto& g = fr.geometry();
  const index_t th = g.tile_h, tw = g.tile_w;
  const bool affine = Gap::kind == gap_kind::affine;
  score_t* const row_h = fr.h_row();
  score_t* const row_e = fr.e_row();
  score_t* const col_h = fr.h_col();
  score_t* const col_f = fr.f_col();

  ANYSEQ_ASSERT(static_cast<index_t>(scr.h.size()) == tw + 1,
                "block_scratch must be bound to this geometry's tile width");
  ANYSEQ_ASSERT(live >= 2 && live <= W, "a block needs 2..W live tiles");

  // Per-lane geometry and rebasing corners (dead lanes copy lane 0).
  index_t y0[W], x0[W];
  score_t base[W];
  for (int l = 0; l < W; ++l) {
    const parallel::tile_coord t = tiles[l < live ? l : 0];
    ANYSEQ_ASSERT(g.full(t.ty, t.tx), "SIMD blocks require full-size tiles");
    y0[l] = g.y0(t.ty);
    x0[l] = g.x0(t.tx);
    base[l] = fr.corner(t.ty, t.tx);
  }

  // Interleave top segments and subject characters (lane-major packs);
  // column 0 is each lane's own corner, rebased to 0.
  scr.h[0] = p16::broadcast(0);
  scr.e[0] = p16::broadcast(neg_inf16());
  scr.schars[0] = p16::broadcast(0);
  for (index_t jj = 1; jj <= tw; ++jj) {
    p16 hv, ev, sv;
    for (int l = 0; l < W; ++l) {
      hv.v[l] = detail::rebase16(row_h[x0[l] + jj], base[l]);
      ev.v[l] = affine ? detail::rebase16(row_e[x0[l] + jj], base[l])
                       : neg_inf16();
      sv.v[l] = static_cast<score16_t>(s[x0[l] + jj - 1]);
    }
    scr.h[jj] = hv;
    scr.e[jj] = ev;
    scr.schars[jj] = sv;
  }

  // The local-alignment floor (absolute 0) in each lane's rebased
  // representation; saturates to the sentinel when the corner is too far
  // above zero for the clamp to ever fire inside this tile.
  p16 nu;
  for (int l = 0; l < W; ++l) nu.v[l] = detail::rebase_nu16(base[l]);

  // Per-lane local-best tracking (16-bit values + positions).
  p16 best_v = p16::broadcast(neg_inf16());
  p16 best_i = p16::broadcast(0), best_j = p16::broadcast(0);

  for (index_t i = 1; i <= th; ++i) {
    p16 qc, left_h, left_f;
    for (int l = 0; l < W; ++l) {
      qc.v[l] = static_cast<score16_t>(q[y0[l] + i - 1]);
      left_h.v[l] = detail::rebase16(col_h[y0[l] + i], base[l]);
      left_f.v[l] = affine ? detail::rebase16(col_f[y0[l] + i], base[l])
                           : neg_inf16();
    }
    p16 diag = scr.h[0];
    scr.h[0] = left_h;
    p16 f = left_f;
    const p16 row_i = p16::broadcast(static_cast<score16_t>(i));

    for (index_t jj = 1; jj <= tw; ++jj) {
      const prev_cells<p16> prev{diag, scr.h[jj], scr.h[jj - 1], scr.e[jj],
                                 f};
      const auto nx = relax<K, false, p16, p16, p16>(prev, qc, scr.schars[jj],
                                                     gap, scoring, nu);
      diag = scr.h[jj];
      scr.h[jj] = nx.h;
      scr.e[jj] = nx.e;
      f = nx.f;
      if constexpr (tracks_running_max(K)) {
        const auto better = vgt(nx.h, best_v);
        best_v = vselect(better, nx.h, best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, p16::broadcast(static_cast<score16_t>(jj)),
                         best_j);
      }
    }

    // Right segment out (absolute values, live lanes only).
    for (int l = 0; l < live; ++l) {
      col_h[y0[l] + i] = detail::debase16(scr.h[tw].v[l], base[l]);
      if (affine) col_f[y0[l] + i] = detail::debase16(f.v[l], base[l]);
    }
  }

  // Bottom segment and corner out (slot x0 only for tile column 0 — see
  // relax_tile_scalar).
  for (int l = 0; l < live; ++l) {
    for (index_t jj = tiles[l].tx > 0 ? 1 : 0; jj <= tw; ++jj) {
      row_h[x0[l] + jj] = detail::debase16(scr.h[jj].v[l], base[l]);
      if (affine)
        row_e[x0[l] + jj] = detail::debase16(scr.e[jj].v[l], base[l]);
    }
    fr.corner(tiles[l].ty + 1, tiles[l].tx + 1) =
        detail::debase16(scr.h[tw].v[l], base[l]);
  }

  // Merge the live lanes' bests.  Inside a tile the strict `vgt` keeps
  // the first cell in row-major order, i.e. the lowest rank; semiglobal
  // candidates on the true last row/column are read back from the
  // frontier segments this block just wrote.
  tile_best best;
  if constexpr (tracks_running_max(K)) {
    for (int l = 0; l < live; ++l)
      best.consider<K>(detail::debase16(best_v.v[l], base[l]),
                       y0[l] + static_cast<index_t>(best_i.v[l]),
                       x0[l] + static_cast<index_t>(best_j.v[l]), g);
  } else if constexpr (K == align_kind::semiglobal) {
    for (int l = 0; l < live; ++l) {
      if (x0[l] + tw == g.m)  // lane's tile ends at the true last column
        for (index_t i = 1; i <= th; ++i)
          best.consider<K>(col_h[y0[l] + i], y0[l] + i, g.m, g);
      if (y0[l] + th == g.n) {  // true last row
        best.consider<K>(detail::debase16(scr.h[0].v[l], base[l]), g.n,
                         x0[l], g);
        for (index_t jj = 1; jj <= tw; ++jj)
          best.consider<K>(row_h[x0[l] + jj], g.n, x0[l] + jj, g);
      }
    }
  }
  return best;
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::block_scratch;
using v_scalar::tiled::relax_tile_block;
}  // namespace anyseq::tiled
namespace anyseq::tiled::detail {
using v_scalar::tiled::detail::debase16;
using v_scalar::tiled::detail::rebase16;
using v_scalar::tiled::detail::rebase_nu16;
}  // namespace anyseq::tiled::detail
#endif  // scalar exports

#endif  // per-target include guard
