#pragma once
/// \file striped.hpp
/// Intra-pair SIMD: the striped int16 kernel of Farrar (Bioinformatics
/// 23(2):156, 2007) in the prefix-scan form of parasail (Daily, BMC
/// Bioinformatics 17:81, 2016), one pass per DP tile.  It runs every tile
/// of the long-genome wavefront that fits the int16 window
/// (`striped_tile`, tiled_engine.hpp), and the score-only pairs that find
/// no batchmates — a lone request, or a pair the batch planner cannot put
/// on lanes (`striped_score`).
///
/// Layout: the query is striped over the W lanes of a
/// `simd::pack<score16_t, W>`.  With seg = ceil(n / W), vector t holds
/// query rows i = l * seg + t + 1 in lane l, so the W rows a vector
/// relaxes at once sit seg rows apart and never depend on each other
/// inside one column.  The outer loop runs over subject columns j.  Every
/// stripe vector t is kept in a row-biased frame, value - t * extend
/// (Khajeh-Saeed, Poole & Perot, J. Comput. Phys., 2010), so a
/// step down a lane's rows costs nothing and the in-lane gap chains are
/// plain running maxima.  Per column:
///   1. Pass 1 computes the left gap F(i, j) (rolling_score's `f`) from
///      the previous column, Ht = max(diag + subst, F) (local: and the
///      floor) with subst shifted by -extend, and the in-lane up-gap
///      carry, a running max of Ht (open is added once, after the loop).
///   2. A log2(W)-step prefix max carries that up-gap across lanes,
///      decaying by seg * extend per lane (the first step is the move
///      from a lane's frame into the next lane's stripe 0).
///   3. Pass 2 computes H = max(Ht, E) with E (rolling_score's `e`) run
///      down each lane as E = max(E, Ht + open).
/// This is exact because E depends on Ht only, never on the corrected H:
///   E(i) = max_{k<i} (Ht(k) + open + extend + (i - 1 - k) * extend)
/// (k = 0 being the tile's top row), since the E(k) term inside
/// H(k) = max(Ht(k), E(k)) re-enters as E(k) + open + extend <=
/// E(k) + extend whenever open <= 0, which validate() guarantees.  There
/// is no data-dependent loop (unlike the lazy-F variant, whose vertical
/// gaps in global alignment run the whole column; DESIGN.md §10).
///
/// Borders: a pass reads the tile's top H/E row segment, its left H/F
/// column segment and its corner, and hands back the bottom row, the
/// right column and the next corner.  Inside the pass every score is an
/// int16 offset from the corner (paper §IV-A: "only differences to the
/// global score are relevant") in the row-biased frame; the local floor
/// (absolute 0) is rebased the same way.  Borders are biased on the way
/// in and unbiased on the way out.  One function template, striped_pass,
/// runs over a border policy: `frontier_io` reads and writes a tile of
/// the border frontier (tiled/borders.hpp) in place; `boundary_io`
/// computes a lone pair's init_h_row0/init_h_col0 boundary on the fly
/// and keeps only H(n, m).
///
/// Bounds: relative to the corner, every real H/E/F value of an h x w
/// tile lies within (2 max(h, w) + 2) * unit (a path leaves the corner's
/// row or column at most one gap away from it), so fits_striped_tile
/// keeps it inside the int16 window; a lone pair's corner is 0 and its
/// absolute bound fits_score_window(n, m) suffices.  The row bias adds
/// at most (seg - 1) * |extend| < 28000 / W, so biased values stay below
/// 29750 at W >= 16 (DESIGN.md §10).  The kernel runs unchecked with
/// saturating adds and a saturating -inf (INT16_MIN).  Rows past the
/// tile's height (the padded tail of the stripe) only feed rows below
/// them, so their clamped garbage never reaches a real row.
///
/// End cells are byte-identical to rolling_score's order: local and
/// extension keep a per-row running max with the first column that
/// reached it and rank the rows' maxima by tile_geometry::rank;
/// semiglobal ranks the cells it writes on the true last row and column
/// the same way.  Global reads H(n, m), the corner the last pass closes.
///
/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/targets.hpp)

#include "simd/set_target.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "core/init.hpp"
#include "core/result.hpp"
#include "core/scoring.hpp"
#include "core/workspace.hpp"
#include "simd/pack.hpp"
#include "stage/views.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

namespace striped_detail {

/// Query-profile rows per stripe vector: simple scoring keeps the query
/// codes and compares on the fly; an A-letter matrix keeps one score row
/// per subject letter.
template <class Scoring>
inline constexpr int profile_rows = 1;
template <int A>
inline constexpr int profile_rows<matrix_scoring<A>> = A;

[[nodiscard]] inline score16_t sat16(index_t x) noexcept {
  return static_cast<score16_t>(
      std::clamp<index_t>(x, std::numeric_limits<score16_t>::min(),
                          std::numeric_limits<score16_t>::max()));
}

/// Stripe vectors one pass carves per stripe: H, the profile, F (affine)
/// and the per-row running max + its column (local/extension).
template <align_kind K, class Gap, class Scoring>
[[nodiscard]] constexpr std::size_t packs_per_segment() noexcept {
  return 1 + static_cast<std::size_t>(profile_rows<Scoring>) +
         (Gap::kind == gap_kind::affine ? 1 : 0) +
         (tracks_running_max(K) ? 2 : 0);
}

}  // namespace striped_detail

/// True if an (h x w) tile runs as one striped int16 pass: its scores,
/// rebased to the tile's corner, stay inside the int16 window (see the
/// file comment), and its column index fits an int16 lane.
[[nodiscard]] constexpr bool fits_striped_tile(index_t h, index_t w,
                                               score_t unit) noexcept {
  const index_t side = std::max(h, w);
  return side <= std::numeric_limits<score16_t>::max() &&
         fits_score_window(side, side, unit, int16_score_window());
}

/// Stripe vectors one pass over a tile of up to `h` rows needs.
template <align_kind K, int W, class Gap, class Scoring>
[[nodiscard]] constexpr std::size_t striped_packs(index_t h) noexcept {
  return static_cast<std::size_t>((h + W - 1) / W) *
         striped_detail::packs_per_segment<K, Gap, Scoring>();
}

namespace striped_detail {

/// The borders of tile (ty, tx) of a border frontier, read and written
/// in place under the frontier's contract (tiled/borders.hpp).
template <class Gap>
class frontier_io {
 public:
  static constexpr bool kAffine = Gap::kind == gap_kind::affine;

  frontier_io(border_frontier& fr, index_t ty, index_t tx)
      : fr_(fr), ty_(ty), tx_(tx) {
    const tile_geometry& g = fr.geometry();
    y0 = g.y0(ty);
    x0 = g.x0(tx);
    n = g.y1(ty) - y0;
    m = g.x1(tx) - x0;
    row_h_ = fr.h_row() + x0;
    row_e_ = kAffine ? fr.e_row() + x0 : nullptr;
    col_h_ = fr.h_col() + y0;
    col_f_ = kAffine ? fr.f_col() + y0 : nullptr;
    h_bottom_left_ = col_h_[n];  // read before the right column lands
  }

  index_t y0, x0, n, m;  ///< the tile's origin and extents

  [[nodiscard]] const tile_geometry& geometry() const noexcept {
    return fr_.geometry();
  }
  [[nodiscard]] score_t corner() const noexcept {
    return fr_.corner(ty_, tx_);
  }
  /// H/E of the top segment, H/F of the left segment (tile-local index).
  [[nodiscard]] score_t h_top(index_t j) const noexcept { return row_h_[j]; }
  [[nodiscard]] score_t e_top(index_t j) const noexcept {
    return kAffine ? row_e_[j] : neg_inf();
  }
  [[nodiscard]] score_t h_left(index_t i) const noexcept { return col_h_[i]; }
  [[nodiscard]] score_t f_left(index_t i) const noexcept {
    return kAffine ? col_f_[i] : neg_inf();
  }
  /// H(y1, x0): the left segment's last cell, as it was on entry.
  [[nodiscard]] score_t h_bottom_left() const noexcept {
    return h_bottom_left_;
  }

  void bottom(index_t j, score_t h, score_t e) noexcept {
    row_h_[j] = h;
    if constexpr (kAffine) row_e_[j] = e;
  }
  void right(index_t i, score_t h, score_t f) noexcept {
    col_h_[i] = h;
    if constexpr (kAffine) col_f_[i] = f;
  }
  static constexpr bool kRight = true;  ///< right() stores something
  static constexpr bool kGapBorders = kAffine;  ///< E/F borders in and out

  /// Slot x0 of the row belongs to the left neighbour's segment and is
  /// written only by tile column 0 (so the finished row frontier carries
  /// H(n, 0) too) — as relax_tile_scalar does; then the next corner.
  void close(score_t h_corner) noexcept {
    if (tx_ == 0) {
      row_h_[0] = h_bottom_left_;
      if constexpr (kAffine) row_e_[0] = neg_inf();
    }
    fr_.corner(ty_ + 1, tx_ + 1) = h_corner;
  }

 private:
  border_frontier& fr_;
  index_t ty_, tx_;
  score_t* row_h_;
  score_t* row_e_;
  score_t* col_h_;
  score_t* col_f_;
  score_t h_bottom_left_;
};

/// The borders of a lone (n x m) pair: its boundary, init_h_row0 and
/// init_h_col0 with E/F at -inf, computed on the fly.  Nothing is
/// written back but H(n, m).
template <align_kind K, class Gap>
class boundary_io {
 public:
  boundary_io(const Gap& gap, index_t n_, index_t m_)
      : n(n_), m(m_), gap_(gap), g_(n_, m_, n_, m_) {}

  index_t y0 = 0, x0 = 0, n, m;
  score_t h_nm = 0;  ///< H(n, m), once the pass closed

  [[nodiscard]] const tile_geometry& geometry() const noexcept { return g_; }
  [[nodiscard]] static score_t corner() noexcept { return 0; }
  [[nodiscard]] score_t h_top(index_t j) const noexcept {
    return init_h_row0<K>(j, gap_);
  }
  [[nodiscard]] static score_t e_top(index_t) noexcept { return neg_inf(); }
  [[nodiscard]] score_t h_left(index_t i) const noexcept {
    return init_h_col0<K>(i, gap_);
  }
  [[nodiscard]] static score_t f_left(index_t) noexcept { return neg_inf(); }
  [[nodiscard]] score_t h_bottom_left() const noexcept { return h_left(n); }
  static void bottom(index_t, score_t, score_t) noexcept {}
  static void right(index_t, score_t, score_t) noexcept {}
  static constexpr bool kRight = false;
  static constexpr bool kGapBorders = false;  ///< E/F stay -inf
  void close(score_t h_corner) noexcept { h_nm = h_corner; }

 private:
  Gap gap_;
  tile_geometry g_;
};

/// One striped pass over the tile `io` describes: reads its top/left
/// borders and corner, hands the bottom row, the right column and the
/// corner (y1, x1) back to `io`, and returns the tile's ranked best.
/// `stripes` holds striped_packs(io.n) vectors; the caller proves the
/// tile's int16 bound.
template <align_kind K, int W, class Gap, class Scoring, class IO,
          stage::sequence_view QV, stage::sequence_view SV>
tile_best striped_pass(const QV& q, const SV& s, IO& io, const Gap& gap,
                       const Scoring& scoring,
                       simd::pack<score16_t, W>* ANYSEQ_RESTRICT stripes) {
  static_assert(W >= 2 && std::has_single_bit(static_cast<unsigned>(W)),
                "the stripe needs a power-of-two lane count");
  using P = simd::pack<score16_t, W>;
  constexpr bool kAffine = Gap::kind == gap_kind::affine;
  constexpr int kRows = profile_rows<Scoring>;
  constexpr score16_t kNegInf = std::numeric_limits<score16_t>::min();
  const tile_geometry& g = io.geometry();
  const index_t y0 = io.y0, x0 = io.x0, n = io.n, m = io.m;
  const index_t seg = (n + W - 1) / W;
  const index_t ext = gap.extend();
  ANYSEQ_ASSERT(index_t{int16_score_window()} - (seg - 1) * ext <=
                    std::numeric_limits<score16_t>::max(),
                "the row bias leaves the int16 window");

  // The row-biased frame: stripe t holds H - corner - t * extend (E, F
  // and Ht alike), saturated on the way in (-inf lands on INT16_MIN);
  // every border out is a real score, corner + value + t * extend.
  const score_t base = io.corner();
  const auto bias = [ext](std::size_t t) {
    return static_cast<index_t>(t) * ext;
  };
  const auto in = [base, bias](score_t v, std::size_t t) {
    return sat16(index_t{v} - base - bias(t));
  };
  const auto out = [base, bias](score16_t v, std::size_t t) -> score_t {
    return static_cast<score_t>(base + v + bias(t));
  };

  const auto useg = static_cast<std::size_t>(seg);
  P* const h = stripes;
  P* const prof = h + useg;
  P* const fgap = prof + kRows * useg;
  P* const rmax = fgap + (kAffine ? useg : 0);
  P* const rbj = tracks_running_max(K) ? rmax + useg : nullptr;

  // The tile's rows, lane by lane: lane l holds rows l * seg + 1 ..
  // (l + 1) * seg; rows past n are padding.
  const auto each_row = [&](auto&& fn) {
    for (int l = 0; l < W; ++l) {
      const index_t lo = l * seg;
      const index_t rows = std::min(seg, n - lo);  // a value: the loop
      for (index_t t = 0; t < rows; ++t)         // bound stays in a register
        fn(lo + t + 1, static_cast<std::size_t>(t), l);
    }
  };

  const P oe = P::broadcast(sat16(gap.open_extend()));
  const P vext = P::broadcast(sat16(ext));

  // The left column and the query profile, stripe by stripe (the lane
  // loop has a fixed trip count); padding rows start at -inf.  The
  // diagonal steps from stripe t - 1 to t, so its substitution scores
  // carry -extend.
  for (std::size_t t = 0; t < useg; ++t) {
    for (int l = 0; l < W; ++l) {
      const index_t i = l * seg + static_cast<index_t>(t) + 1;
      const bool real = i <= n;
      const char_t qc = real ? q[y0 + i - 1] : char_t{0};
      h[t].v[l] = real ? in(io.h_left(i), t) : kNegInf;
      if constexpr (kAffine)
        fgap[t].v[l] =
            IO::kGapBorders && real ? in(io.f_left(i), t) : kNegInf;
      if constexpr (kRows == 1) {
        prof[t].v[l] = static_cast<score16_t>(qc);
      } else {
        for (int c = 0; c < kRows; ++c)
          prof[static_cast<std::size_t>(c) * useg + t].v[l] =
              sat16(scoring.at(qc, c) - ext);
      }
    }
    if constexpr (tracks_running_max(K)) {
      rmax[t] = P::broadcast(kNegInf);
      rbj[t] = P::broadcast(0);
    }
  }
  Scoring diag_scoring = scoring;
  if constexpr (kRows == 1) {
    diag_scoring.match = static_cast<score_t>(scoring.match - ext);
    diag_scoring.mismatch = static_cast<score_t>(scoring.mismatch - ext);
  }

  const P open = P::broadcast(sat16(gap.open()));
  // The local floor, absolute 0, in stripe 0's frame, lifted by -extend
  // per stripe; a corner far above 0 clamps it to INT16_MIN (+ the
  // lift), below every real value of the tile.
  const P nu0 = P::broadcast(K == align_kind::local ? sat16(-index_t{base})
                                                    : kNegInf);
  const P lift = P::broadcast(sat16(-ext));
  // Scan step k adds (2^k * seg) * extend.  A step that feeds a real row
  // spans fewer than n rows, so its decay fits int16 (n * |extend| <
  // 28000); larger decays only reach padded lanes and may clamp.
  // decay[0] also moves a lane's last stripe (bias (seg - 1) * extend,
  // one row further: seg * extend) into the next lane's stripe 0.
  constexpr int kSteps = std::countr_zero(static_cast<unsigned>(W));
  P decay[kSteps]{};
  for (int k = 0; k < kSteps; ++k)
    decay[k] = P::broadcast(sat16((index_t{1} << k) * seg * ext));

  // The stripe vector and lane of the tile's last row; semiglobal ranks
  // the cells of the true last row and column.
  const auto tn = static_cast<std::size_t>((n - 1) % seg);
  const int ln = static_cast<int>((n - 1) / seg);
  const bool last_row = y0 + n == g.n, last_col = x0 + m == g.m;
  tile_best best;
  if (K == align_kind::semiglobal && last_row)
    best.consider<K>(io.h_bottom_left(), g.n, x0, g);

  score16_t top_prev = 0;  // H(y0, x0 + j - 1); the corner at j = 1
  for (index_t j = 1; j <= m; ++j) {
    const score16_t top = in(io.h_top(j), 0);
    const char_t sc = s[x0 + j - 1];
    const P sv = P::broadcast(static_cast<score16_t>(sc));
    const P* const col = kRows == 1 ? prof : prof + sc * useg;

    // Pass 1: F, Ht and the in-lane up-gap carry, a plain running max
    // of Ht (+ open once, after the loop: saturating adds are monotone).
    // Stripe 0's diagonal comes from the lane above (or the top row), so
    // it is shifted by extend to cancel its -extend.
    P diag = simd::vshift_up<1>(vadd(h[useg - 1], decay[0]),
                                sat16(index_t{top_prev} + ext));
    P carry = P::broadcast(kNegInf);
    P nu = nu0;
    for (std::size_t t = 0; t < useg; ++t) {
      const P hp = h[t];
      P f = vadd(hp, oe);  // linear gaps: open + extend == extend
      if constexpr (kAffine) {
        f = vmax(f, vadd(fgap[t], vext));
        fgap[t] = f;
      }
      P sub = col[t];
      if constexpr (kRows == 1) sub = diag_scoring.template subst<P>(sub, sv);
      P ht = vmax(vadd(diag, sub), f);
      if constexpr (K == align_kind::local) {
        ht = vmax(ht, nu);
        nu = vadd(nu, lift);
      }
      h[t] = ht;
      carry = vmax(carry, ht);
      diag = hp;
    }
    if constexpr (kAffine) carry = vadd(carry, open);

    // Cross-lane prefix max: lane l's entry E = max over the lanes above
    // it of their carry-out, decayed by seg * extend per lane crossed;
    // lane 0 enters from the top segment, E(y0 + 1) = max(H + open +
    // extend, E + extend) at row y0.
    P e = simd::vshift_up<1>(
        vadd(carry, decay[0]),
        sat16(std::max<index_t>(top + index_t{gap.open_extend()},
                                in(io.e_top(j), 0) + ext)));
    [&]<int... k>(std::integer_sequence<int, k...>) {
      ((e = vmax(e, vadd(simd::vshift_up<(1 << k)>(e, kNegInf),
                         decay[k]))),
       ...);
    }(std::make_integer_sequence<int, kSteps>{});

    // Pass 2: H = max(Ht, E), E run down each lane as a running max of
    // Ht + open; E of the last row is kept for a bottom segment that
    // carries E.
    const P jv = P::broadcast(static_cast<score16_t>(j));
    P e_last = e;
    for (std::size_t t = 0; t < useg; ++t) {
      if constexpr (IO::kGapBorders)
        if (t == tn) e_last = e;
      const P ht = h[t];
      const P hv = vmax(ht, e);
      h[t] = hv;
      if constexpr (tracks_running_max(K)) {
        rbj[t] = vselect(vgt(hv, rmax[t]), jv, rbj[t]);
        rmax[t] = vmax(hv, rmax[t]);
      }
      e = vmax(e, kAffine ? vadd(ht, open) : ht);
    }

    // Bottom segment out, column by column.
    const score_t h_last = out(h[tn].v[ln], tn);
    io.bottom(j, h_last, out(e_last.v[ln], tn));
    if (K == align_kind::semiglobal && last_row)
      best.consider<K>(h_last, g.n, x0 + j, g);
    top_prev = top;
  }

  // Right segment out, then the corner (y1, x1).
  if constexpr (IO::kRight || K == align_kind::semiglobal) {
    each_row([&](index_t i, std::size_t t, int l) {
      const score_t hv = out(h[t].v[l], t);
      io.right(i, hv, kAffine ? out(fgap[t].v[l], t) : neg_inf());
      if (K == align_kind::semiglobal && last_col)
        best.consider<K>(hv, y0 + i, g.m, g);
    });
  }
  io.close(out(h[tn].v[ln], tn));

  if constexpr (tracks_running_max(K)) {
    each_row([&](index_t i, std::size_t t, int l) {
      best.consider<K>(out(rmax[t].v[l], t), y0 + i, x0 + rbj[t].v[l], g);
    });
  }
  return best;
}

}  // namespace striped_detail

/// Relax tile (ty, tx) of `fr` as one striped pass on W int16 lanes —
/// the striped counterpart of relax_tile_scalar, with the same frontier
/// contract and the same ranked tile_best.  `stripes` holds
/// striped_packs(tile height) vectors; the caller proves the tile's
/// int16 bound (fits_striped_tile).
template <align_kind K, int W, class Gap, class Scoring,
          stage::sequence_view QV, stage::sequence_view SV>
tile_best striped_tile(const QV& q, const SV& s, border_frontier& fr,
                       index_t ty, index_t tx, const Gap& gap,
                       const Scoring& scoring,
                       simd::pack<score16_t, W>* stripes) {
  striped_detail::frontier_io<Gap> io(fr, ty, tx);
  return striped_detail::striped_pass<K, W>(q, s, io, gap, scoring, stripes);
}

/// Arena bytes one striped_score pass carves for an n-row query.
template <align_kind K, int W, class Gap, class Scoring>
[[nodiscard]] inline std::size_t striped_plan_bytes(index_t n) noexcept {
  return carve_bytes<simd::pack<score16_t, W>>(
      striped_packs<K, W, Gap, Scoring>(n));
}

/// Score one (n x m) pair on W int16 lanes: the striped pass over the
/// one-tile grid whose borders are the alignment's boundary.
/// Precondition: fits_score_window(n, m, unit_step, int16 window) (which
/// also implies n, m > 0).  Storage is carved from `ws` and released on
/// return.
template <align_kind K, int W, class Gap, class Scoring,
          stage::sequence_view QV, stage::sequence_view SV>
[[nodiscard]] score_result striped_score(const QV& q, const SV& s,
                                         const Gap& gap,
                                         const Scoring& scoring,
                                         workspace& ws) {
  const index_t n = q.size(), m = s.size();
  ANYSEQ_ASSERT(fits_score_window(n, m, unit_step(gap, scoring),
                                  int16_score_window()),
                "striped_score needs the int16 bound");
  workspace::frame frame(ws);
  auto stripes = ws.make<simd::pack<score16_t, W>>(
      striped_packs<K, W, Gap, Scoring>(n));
  striped_detail::boundary_io<K, Gap> io(gap, n, m);
  const tile_best b = striped_detail::striped_pass<K, W>(q, s, io, gap,
                                                         scoring,
                                                         stripes.data());
  return pass_result<K>(io.geometry(), b, gap, io.h_nm);
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::fits_striped_tile;
using v_scalar::tiled::striped_packs;
using v_scalar::tiled::striped_plan_bytes;
using v_scalar::tiled::striped_score;
using v_scalar::tiled::striped_tile;
}  // namespace anyseq::tiled
#endif  // scalar exports
