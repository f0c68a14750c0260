#pragma once
/// \file relax.hpp
/// The DP cell relaxation (paper Eq. 1/4/5 and the `relax_global` listing
/// in §III-B) — written exactly once, lane-generically.
///
/// Every engine in the library (full-matrix, rolling-row, tiled scalar,
/// SIMD block, GPU-sim kernel, FPGA-sim processing element) instantiates
/// this function; the alignment kind, gap model, scoring scheme and
/// predecessor tracking are compile-time parameters, so each instantiation
/// collapses to a branch-free max-chain — the C++ equivalent of AnyDSL
/// partially evaluating one generic relax function into each residual
/// program.

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "core/gap.hpp"
#include "core/ops.hpp"
#include "core/types.hpp"

namespace anyseq {

// ---------------------------------------------------------------------------
// Predecessor encoding (one byte per cell when traceback is requested).
// ---------------------------------------------------------------------------

/// Low two bits: where H(i,j) came from.  Bit 2: E(i,j) extended an
/// existing subject-side gap (came from E(i-1,j)); bit 3: F(i,j) extended
/// (came from F(i,j-1)).  The E/F bits are stored unconditionally because
/// the traceback may enter gap state at this cell from the cell below /
/// right of it.
namespace pred {
inline constexpr std::uint8_t stop = 0;   ///< local alignment start (H clamped to 0)
inline constexpr std::uint8_t diag = 1;   ///< (i-1,j-1): align q_i with s_j
inline constexpr std::uint8_t up = 2;     ///< E: q_i against a gap
inline constexpr std::uint8_t left = 3;   ///< F: s_j against a gap
inline constexpr std::uint8_t h_mask = 3;
inline constexpr std::uint8_t e_extend = 4;
inline constexpr std::uint8_t f_extend = 8;
}  // namespace pred

// ---------------------------------------------------------------------------
// Relaxation input/output bundles.
// ---------------------------------------------------------------------------

/// Scores of the ancestral subproblems of cell (i,j) — the paper's
/// `PrevScores` accessor, flattened to values.  For linear gaps `e_up` and
/// `f_left` are ignored (and optimized out of the instantiation).
template <class S>
struct prev_cells {
  S diag;    ///< H(i-1, j-1)
  S up;      ///< H(i-1, j)
  S left;    ///< H(i,   j-1)
  S e_up;    ///< E(i-1, j)   (affine only)
  S f_left;  ///< F(i,   j-1) (affine only)
};

/// Result of relaxing one cell — the paper's `NextStep` plus the gap
/// matrices.  `e`/`f` must be carried by the caller for affine gaps.
template <class S, class P>
struct next_cell {
  S h;
  S e;
  S f;
  P pred;  ///< packed predecessor byte(s); unset when Track == false
};

// ---------------------------------------------------------------------------
// relax<K, Track>
// ---------------------------------------------------------------------------

/// Relax one DP cell.
///
/// \tparam K      alignment kind (local clamps H at nu, Eq. 1's nu = 0)
/// \tparam Track  whether to compute the predecessor byte
/// \tparam S      score value type: score_t, score16_t, or simd::pack
/// \tparam P      predecessor value type (same lane count as S)
/// \tparam C      character value type (same lane count as S)
/// \param qc, sc  the current character pair (the paper's `CharPair`)
/// \param nu      the local-alignment floor in S's representation.  In
///                absolute scores this is 0; SIMD tile blocks store
///                scores relative to a per-lane corner, so "absolute 0"
///                becomes a per-lane constant (-base) there.
template <align_kind K, bool Track, class S, class P, class C, class Gap,
          class Scoring>
[[nodiscard]] ANYSEQ_INLINE next_cell<S, P> relax(const prev_cells<S>& p, C qc,
                                                  C sc, const Gap& gap,
                                                  const Scoring& scoring,
                                                  S nu) noexcept {
  using M = mask_of_t<S>;
  next_cell<S, P> out{};

  // --- gap matrices -------------------------------------------------------
  M e_ext_taken{}, f_ext_taken{};
  if constexpr (Gap::kind == gap_kind::affine) {
    const S e_open = vadd(p.up, vbroadcast<S>(gap.open_extend()));
    const S e_ext = vadd(p.e_up, vbroadcast<S>(gap.extend()));
    const S f_open = vadd(p.left, vbroadcast<S>(gap.open_extend()));
    const S f_ext = vadd(p.f_left, vbroadcast<S>(gap.extend()));
    if constexpr (Track) {
      e_ext_taken = vgt(e_ext, e_open);
      f_ext_taken = vgt(f_ext, f_open);
    }
    out.e = vmax(e_ext, e_open);
    out.f = vmax(f_ext, f_open);
  } else {
    out.e = vadd(p.up, vbroadcast<S>(gap.gap));
    out.f = vadd(p.left, vbroadcast<S>(gap.gap));
  }

  // --- H: max over {diagonal, E, F, nu} (paper's relax_global shape) ------
  S h = vadd(p.diag, scoring.template subst<S>(qc, sc));
  if constexpr (!Track) {
    h = vmax(h, vmax(out.e, out.f));
    if constexpr (K == align_kind::local) h = vmax(h, nu);
    out.h = h;
  } else {
    // Each strict comparison picks the byte; the value it selects is the
    // maximum either way, so H takes vmax and the masks stay off the H
    // chain a sweep carries from cell to cell.
    P pr = vbroadcast<P>(pred::diag);
    const M sgap = vgt(out.e, h);  // "subject gap" branch of the listing
    h = vmax(out.e, h);
    pr = vselect(sgap, vbroadcast<P>(pred::up), pr);
    const M qgap = vgt(out.f, h);  // "query gap" branch
    h = vmax(out.f, h);
    pr = vselect(qgap, vbroadcast<P>(pred::left), pr);
    if constexpr (K == align_kind::local) {
      const M clamped = vgt(nu, h);
      h = vmax(nu, h);
      pr = vselect(clamped, vbroadcast<P>(pred::stop), pr);
    }
    if constexpr (Gap::kind == gap_kind::affine) {
      pr = vselect(e_ext_taken, vadd(pr, vbroadcast<P>(pred::e_extend)), pr);
      pr = vselect(f_ext_taken, vadd(pr, vbroadcast<P>(pred::f_extend)), pr);
    }
    out.h = h;
    out.pred = pr;
  }
  return out;
}

/// relax with the absolute-score convention (nu = 0).
template <align_kind K, bool Track, class S, class P, class C, class Gap,
          class Scoring>
[[nodiscard]] ANYSEQ_INLINE next_cell<S, P> relax(const prev_cells<S>& p, C qc,
                                                  C sc, const Gap& gap,
                                                  const Scoring& scoring) noexcept {
  return relax<K, Track, S, P, C>(p, qc, sc, gap, scoring, vbroadcast<S>(0));
}

// ---------------------------------------------------------------------------
// relax_diff: the same cell in difference form
// ---------------------------------------------------------------------------

/// One cell's state in difference form (Suzuki & Kasahara, BMC
/// Bioinformatics 19(S1):45, 2018; minimap2's ksw2 uses the same
/// recurrences).  For cell (i, j):
///   u = H(i,j) - H(i-1,j)      v = H(i,j) - H(i,j-1)
///   x = E(i+1,j) - H(i,j)      y = F(i,j+1) - H(i,j)   (affine only)
/// Every one of them is bounded by the scoring parameters alone, never by
/// the problem's length (fits_diff_window).  As relax_diff's input the
/// bundle holds the neighbours' values: u and y of the cell to the left,
/// v and x of the cell above.
template <class S>
struct diff_cell {
  S u;
  S v;
  S x;
  S y;
};

/// Relax one DP cell in difference form:
///   a = x_up + v_up,  b = y_left + u_left,  z = max(s, a, b)
///   u = z - v_up,     v = z - u_left
///   x = max(a - z, open) + extend,  y = max(b - z, open) + extend
/// where z = H(i,j) - H(i-1,j-1) and open = (open + extend) - extend.  For
/// linear gaps x and y are the constant gap and drop out.  The arithmetic
/// is exact wherever fits_diff_window holds for S's range: the sums that
/// feed a max (a, b, a - z, b - z) stay inside it, and u and v are exact
/// under wrapping subtraction because their true values do.
template <class S, class C, class Gap, class Scoring>
[[nodiscard]] ANYSEQ_INLINE diff_cell<S> relax_diff(const diff_cell<S>& in,
                                                    C qc, C sc,
                                                    const Gap& gap,
                                                    const Scoring& scoring) noexcept {
  S a, b;
  if constexpr (Gap::kind == gap_kind::affine) {
    a = vadd(in.x, in.v);
    b = vadd(in.y, in.u);
  } else {
    a = vadd(in.v, vbroadcast<S>(gap.gap));
    b = vadd(in.u, vbroadcast<S>(gap.gap));
  }
  const S z = vmax(scoring.template subst<S>(qc, sc), vmax(a, b));
  diff_cell<S> out{vsub(z, in.v), vsub(z, in.u), in.x, in.y};
  if constexpr (Gap::kind == gap_kind::affine) {
    const S open = vbroadcast<S>(gap.open());
    const S extend = vbroadcast<S>(gap.extend());
    out.x = vadd(vmax(vsub(a, z), open), extend);
    out.y = vadd(vmax(vsub(b, z), open), extend);
  }
  return out;
}

/// True if every value relax_diff stores or compares fits int8 under
/// (gap, scoring), at any problem length.  With S = the largest
/// |substitution score|, G = -(open + extend) and g = -extend (gaps <= 0):
///   u, v in [-G, S + G]      x, y in [-G, -g]
///   a, b in [-2G, S + G - g]  z in [-S, S + G - g]
///   a - z, b - z in [-(3G + S - g), 0]
/// (linear gaps: G = g, and a, b, z <= S with no a - z).  u's upper bound
/// follows by induction over the cells: each of z's three terms minus
/// H(i-1,j) is at most S + G, because H(i-1,j) >= F(i-1,j).  The
/// boundary differences (gap.total steps, 0 on free ends, and x = y =
/// open + extend against the -inf gap borders) sit inside the same
/// ranges.  Positive gap scores are never admitted.
template <class Gap, class Scoring>
[[nodiscard]] constexpr bool fits_diff_window(const Gap& gap,
                                              const Scoring& scoring) noexcept {
  if (gap.open() > 0 || gap.extend() > 0) return false;
  const std::int64_t s = scoring.max_abs_unit();
  const std::int64_t big = -static_cast<std::int64_t>(gap.open_extend());
  const std::int64_t small = -static_cast<std::int64_t>(gap.extend());
  const std::int64_t low = Gap::kind == gap_kind::affine
                               ? 3 * big + s - small
                               : 2 * big;
  return s + big <= std::numeric_limits<score8_t>::max() &&
         -low >= std::numeric_limits<score8_t>::min();
}

/// Worst per-cell score delta of one relax step under (gap, scoring) —
/// the `unit` of the (n + m + 2) * unit bound (fits_score_window) and of
/// the checked kernel's saturation watermarks.
template <class Gap, class Scoring>
[[nodiscard]] inline score_t unit_step(const Gap& gap,
                                       const Scoring& scoring) noexcept {
  return std::max(scoring.max_abs_unit(),
                  std::max<score_t>(std::abs(gap.open_extend()),
                                    std::abs(gap.extend())));
}

/// Scalar convenience instantiation used by the reference engines.
template <align_kind K, bool Track, class Gap, class Scoring>
[[nodiscard]] ANYSEQ_INLINE next_cell<score_t, std::uint8_t> relax_scalar(
    const prev_cells<score_t>& p, char_t qc, char_t sc, const Gap& gap,
    const Scoring& scoring) noexcept {
  if constexpr (Track) {
    // Track through an int lane, then narrow to a byte.
    auto r = relax<K, true, score_t, score_t, char_t>(p, qc, sc, gap, scoring);
    return {r.h, r.e, r.f, static_cast<std::uint8_t>(r.pred)};
  } else {
    auto r = relax<K, false, score_t, score_t, char_t>(p, qc, sc, gap, scoring);
    return {r.h, r.e, r.f, 0};
  }
}

}  // namespace anyseq
