/// \file striped.hpp
/// Intra-pair SIMD for one score-only pair: the striped int16 kernel of
/// Farrar (Bioinformatics 23(2):156, 2007) in the prefix-scan form of
/// parasail (Daily, BMC Bioinformatics 17:81, 2016).  It serves the pairs
/// that find no batchmates — a lone request, or a pair the batch planner
/// cannot put on lanes — which neither inter-sequence SIMD (batch_engine)
/// nor the tile wavefront can vectorize.
///
/// Layout: the query is striped over the W lanes of a
/// `simd::pack<score16_t, W>`.  With seg = ceil(n / W), vector t holds
/// query rows i = l * seg + t + 1 in lane l, so the W rows a vector
/// relaxes at once sit seg rows apart and never depend on each other
/// inside one column.  The outer loop runs over subject columns j; per
/// column:
///   1. Pass 1 computes the left gap F(i, j) (rolling_score's `f`) from
///      the previous column, Ht = max(diag + subst, F) (local: and 0), and
///      the in-lane up-gap carry over Ht.
///   2. A log2(W)-step prefix max carries that up-gap across lanes,
///      decaying by seg * extend per lane.
///   3. Pass 2 computes H = max(Ht, E) with E (rolling_score's `e`) run
///      down each lane from the carried value.
/// This is exact because E depends on Ht only, never on the corrected H:
///   E(i) = max_{k<i} (Ht(k) + open + extend + (i - 1 - k) * extend)
/// (k = 0 being the boundary row H(0, j)), since the E(k) term inside
/// H(k) = max(Ht(k), E(k)) re-enters as E(k) + open + extend <=
/// E(k) + extend whenever open <= 0, which validate() guarantees.  There
/// is no data-dependent loop (unlike the lazy-F variant, whose vertical
/// gaps in global alignment run the whole column; DESIGN.md §10).
///
/// Bounds: the caller proves fits_score_window(n, m, unit_step,
/// int16_score_window()), so every real H/E/F value lies in (-28000,
/// 28000) and the kernel runs unchecked with saturating adds and a
/// saturating -inf (INT16_MIN).  Rows past n (the padded tail of the
/// stripe) only feed rows below them, so their clamped garbage never
/// reaches a real row.
///
/// End cells are byte-identical to rolling_score's row-major strict->
/// order: global (n, m); local/extension keep a per-row running max with
/// the first j that reached it, then take the smallest row whose max is
/// the best (extension also ranks row 0 and column 0); semiglobal ranks
/// the last column by ascending i, then the last row by ascending j.
///
/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_STRIPED_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_STRIPED_HPP_
#undef ANYSEQ_TILED_STRIPED_HPP_
#else
#define ANYSEQ_TILED_STRIPED_HPP_
#endif

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

/// Stripe vectors one pass carves: H, the profile, F (affine) and the
/// per-row running max + its column (local/extension).
template <align_kind K, class Gap, class Scoring>
[[nodiscard]] constexpr std::size_t packs_per_segment() noexcept {
  return 1 + static_cast<std::size_t>(profile_rows<Scoring>) +
         (Gap::kind == gap_kind::affine ? 1 : 0) +
         (tracks_running_max(K) ? 2 : 0);
}

}  // namespace striped_detail

/// Arena bytes one striped_score pass carves for an n-row query.
template <align_kind K, int W, class Gap, class Scoring>
[[nodiscard]] inline std::size_t striped_plan_bytes(index_t n) noexcept {
  const auto seg = static_cast<std::size_t>((n + W - 1) / W);
  return carve_bytes<simd::pack<score16_t, W>>(
      seg * striped_detail::packs_per_segment<K, Gap, Scoring>());
}

/// Score one (n x m) pair on W int16 lanes.  Precondition: the int16
/// bound holds (which also implies n, m > 0).  Storage is carved from
/// `ws` and released on return.
template <align_kind K, int W, class Gap, class Scoring,
          stage::sequence_view QV, stage::sequence_view SV>
[[nodiscard]] score_result striped_score(const QV& q, const SV& s,
                                         const Gap& gap,
                                         const Scoring& scoring,
                                         workspace& ws) {
  static_assert(W >= 2 && std::has_single_bit(static_cast<unsigned>(W)),
                "the stripe needs a power-of-two lane count");
  using P = simd::pack<score16_t, W>;
  using striped_detail::sat16;
  constexpr bool kAffine = Gap::kind == gap_kind::affine;
  constexpr int kRows = striped_detail::profile_rows<Scoring>;
  constexpr score16_t kNegInf = std::numeric_limits<score16_t>::min();
  const index_t n = q.size(), m = s.size();
  ANYSEQ_ASSERT(fits_score_window(n, m, unit_step(gap, scoring),
                                  int16_score_window()),
                "striped_score needs the int16 bound");

  const index_t seg = (n + W - 1) / W;
  const auto useg = static_cast<std::size_t>(seg);
  workspace::frame fr(ws);
  auto block = ws.make<P>(
      useg * striped_detail::packs_per_segment<K, Gap, Scoring>());
  P* const h = block.data();
  P* const prof = h + useg;
  P* const fgap = prof + kRows * useg;
  P* const rmax = fgap + (kAffine ? useg : 0);
  P* const rbj = tracks_running_max(K) ? rmax + useg : nullptr;

  // Column 0 and the query profile, stripe by stripe.
  for (index_t t = 0; t < seg; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    for (int l = 0; l < W; ++l) {
      const index_t i = l * seg + t + 1;
      const char_t qc = i <= n ? q[i - 1] : char_t{0};
      h[ut].v[l] = sat16(init_h_col0<K>(i, gap));
      if constexpr (kRows == 1) {
        prof[ut].v[l] = static_cast<score16_t>(qc);
      } else {
        for (int c = 0; c < kRows; ++c)
          prof[static_cast<std::size_t>(c) * useg + ut].v[l] =
              sat16(scoring.at(qc, c));
      }
    }
    if constexpr (kAffine) fgap[ut] = P::broadcast(kNegInf);
    if constexpr (tracks_running_max(K)) {
      // Column 0 opens every row's running max: H(i, 0) for extension
      // (rolling ranks it before the row's j >= 1), 0 for local.
      rmax[ut] = K == align_kind::extension ? h[ut] : P::broadcast(0);
      rbj[ut] = P::broadcast(0);
    }
  }

  const P oe = P::broadcast(sat16(gap.open_extend()));
  const P ext = P::broadcast(sat16(gap.extend()));
  const P zero = P::broadcast(0);
  // Scan step k adds (2^k * seg) * extend.  A step that feeds a real row
  // spans fewer than n rows, so its decay fits int16 (n * |extend| <
  // 28000); larger decays only reach padded lanes and may clamp.
  constexpr int kSteps = std::countr_zero(static_cast<unsigned>(W));
  P decay[kSteps]{};
  for (int k = 0; k < kSteps; ++k)
    decay[k] = P::broadcast(sat16((index_t{1} << k) * seg * gap.extend()));

  // The stripe row of query row n, for the global/semiglobal reads.
  const auto tn = static_cast<std::size_t>((n - 1) % seg);
  const int ln = static_cast<int>((n - 1) / seg);
  score16_t last_row_best = sat16(init_h_col0<K>(n, gap));  // H(n, 0)
  index_t last_row_j = 0;

  score16_t top_prev = sat16(init_h_row0<K>(0, gap));  // H(0, j - 1)
  for (index_t j = 1; j <= m; ++j) {
    const score16_t top = sat16(init_h_row0<K>(j, gap));  // H(0, j)
    const char_t sc = s[j - 1];
    const P sv = P::broadcast(static_cast<score16_t>(sc));
    const P* const col = kRows == 1 ? prof : prof + sc * useg;

    // Pass 1: F, Ht and the in-lane up-gap carry.
    P diag = simd::vshift_up<1>(h[useg - 1], top_prev);
    P carry = P::broadcast(kNegInf);
    for (std::size_t t = 0; t < useg; ++t) {
      const P hp = h[t];
      P f = vadd(hp, ext);  // linear gaps: open + extend == extend
      if constexpr (kAffine) {
        f = vmax(vadd(hp, oe), vadd(fgap[t], ext));
        fgap[t] = f;
      }
      P sub = col[t];
      if constexpr (kRows == 1) sub = scoring.template subst<P>(sub, sv);
      P ht = vmax(vadd(diag, sub), f);
      if constexpr (K == align_kind::local) ht = vmax(ht, zero);
      h[t] = ht;
      carry = vmax(vadd(ht, oe), vadd(carry, ext));
      diag = hp;
    }

    // Cross-lane prefix max: lane l's entry E = max over the lanes above
    // it of their carry-out, decayed by seg * extend per lane crossed;
    // lane 0 enters from the boundary row H(0, j).
    P e = simd::vshift_up<1>(
        carry, sat16(static_cast<index_t>(top) + gap.open_extend()));
    [&]<int... k>(std::integer_sequence<int, k...>) {
      ((e = vmax(e, vadd(simd::vshift_up<(1 << k)>(e, kNegInf),
                         decay[k]))),
       ...);
    }(std::make_integer_sequence<int, kSteps>{});

    // Pass 2: H = max(Ht, E), E run down each lane.
    const P jv = P::broadcast(static_cast<score16_t>(j));
    for (std::size_t t = 0; t < useg; ++t) {
      const P hv = vmax(h[t], e);
      h[t] = hv;
      if constexpr (tracks_running_max(K)) {
        const auto better = vgt(hv, rmax[t]);
        rmax[t] = vselect(better, hv, rmax[t]);
        rbj[t] = vselect(better, jv, rbj[t]);
      }
      e = vmax(vadd(hv, oe), vadd(e, ext));
    }

    if constexpr (K == align_kind::semiglobal) {
      if (h[tn].v[ln] > last_row_best) {
        last_row_best = h[tn].v[ln];
        last_row_j = j;
      }
    }
    top_prev = top;
  }

  const auto at = [&](const P* rows, index_t i) -> score_t {
    return rows[static_cast<std::size_t>((i - 1) % seg)]
        .v[static_cast<int>((i - 1) / seg)];
  };
  score_result best;
  if constexpr (K == align_kind::global) {
    best = {h[tn].v[ln], n, m, 0};
  } else if constexpr (K == align_kind::semiglobal) {
    best = {init_h_row0<K>(m, gap), 0, m, 0};
    for (index_t i = 1; i <= n; ++i)
      if (at(h, i) > best.score) best = {at(h, i), i, m, 0};
    if (last_row_best > best.score) best = {last_row_best, n, last_row_j, 0};
  } else {
    if constexpr (K == align_kind::local) {
      best = {0, 0, 0, 0};
    } else {
      for (index_t j = 0; j <= m; ++j)  // row 0 ranks first
        if (init_h_row0<K>(j, gap) > best.score)
          best = {init_h_row0<K>(j, gap), 0, j, 0};
    }
    for (index_t i = 1; i <= n; ++i)
      if (at(rmax, i) > best.score) best = {at(rmax, i), i, at(rbj, i), 0};
  }
  best.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  return best;
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::striped_plan_bytes;
using v_scalar::tiled::striped_score;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
