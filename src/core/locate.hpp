#pragma once
/// \file locate.hpp
/// Linear-space traceback for local and semi-global alignments.
///
/// Strategy (classic): a forward score pass finds the optimal *end* cell;
/// a reversed anchored pass finds the matching *start* cell; the path
/// between the two endpoints is an ordinary global alignment of the
/// located substrings (its optimum equals the local/semiglobal optimum,
/// else the original optimum would be beatable), which the divide &
/// conquer engine reconstructs in linear space.
///
/// The global aligner is a parameter, so the scalar, tiled-SIMD, and
/// GPU-simulated backends all share this logic — composition by function
/// argument, as everywhere in this library.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant — see simd/targets.hpp)

#include "simd/set_target.hpp"

#include "core/rolling.hpp"
#include "core/traceback.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// Anchored-start pass with the optimum restricted to the last row or
/// column (global boundary init, free end on the border).  Used to locate
/// semiglobal starts: reversing a semiglobal path anchors its end and
/// constrains its start to the border.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
[[nodiscard]] score_result extension_border_score(const QV& q, const SV& s,
                                                  const Gap& gap,
                                                  const Scoring& scoring,
                                                  workspace& ws) {
  const index_t n = q.size(), m = s.size();
  workspace::frame fr(ws);
  auto h = ws.make<score_t>(static_cast<std::size_t>(m + 1));
  auto e = ws.make<score_t>(static_cast<std::size_t>(m + 1), neg_inf());
  for (index_t j = 0; j <= m; ++j)
    h[j] = init_h_row0<align_kind::global>(j, gap);

  score_result best{h[m], 0, m, 0};
  for (index_t i = 1; i <= n; ++i) {
    score_t diag = h[0];
    h[0] = init_h_col0<align_kind::global>(i, gap);
    score_t f = init_f_col0(i);
    const char_t qc = q[i - 1];
    for (index_t j = 1; j <= m; ++j) {
      const prev_cells<score_t> prev{diag, h[j], h[j - 1], e[j], f};
      const auto nx = relax_scalar<align_kind::global, false>(
          prev, qc, s[j - 1], gap, scoring);
      diag = h[j];
      h[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
    }
    if (h[m] > best.score) best = {h[m], i, m, 0};
  }
  for (index_t j = 0; j <= m; ++j)
    if (h[j] > best.score) best = {h[j], n, j, 0};
  if (n == 0 || m == 0) best = {0, n, m, 0};
  best.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  return best;
}

/// Locate the aligned region of a local or semiglobal optimum and
/// reconstruct it through `global_align_into(sub_q, sub_s, out)` (any
/// callable writing a *global* alignment of the views into `out`,
/// recycling its buffers).  All scratch comes from `ws`.
template <align_kind K, class Gap, class Scoring, class GlobalAlignInto>
void locate_align_into(stage::seq_view q, stage::seq_view s, const Gap& gap,
                       const Scoring& scoring,
                       GlobalAlignInto&& global_align_into, workspace& ws,
                       alignment_result& out) {
  static_assert(K == align_kind::local || K == align_kind::semiglobal,
                "locate_align_into handles local/semiglobal only");
  const auto fwd = rolling_score<K>(q, s, gap, scoring, ws);

  if constexpr (K == align_kind::local) {
    if (fwd.score <= 0) {  // empty optimal local alignment
      out.reset();
      out.score = 0;
      out.has_alignment = true;
      out.cells = fwd.cells;
      return;
    }
  }

  // Reversed anchored pass over the end-cell prefixes.
  const stage::rev_view rq(q.sub(0, fwd.end_i));
  const stage::rev_view rs(s.sub(0, fwd.end_j));
  score_result rev;
  if constexpr (K == align_kind::local) {
    rev = rolling_score<align_kind::extension>(rq, rs, gap, scoring, ws);
  } else {
    rev = extension_border_score(rq, rs, gap, scoring, ws);
  }
  ANYSEQ_ASSERT(rev.score == fwd.score,
                "reversed pass must reproduce the forward optimum");

  const index_t qb = fwd.end_i - rev.end_i;
  const index_t sb = fwd.end_j - rev.end_j;
  global_align_into(q.sub(qb, fwd.end_i), s.sub(sb, fwd.end_j), out);
  ANYSEQ_ASSERT(out.score == fwd.score,
                "inner global alignment must reproduce the optimum");

  out.score = fwd.score;
  out.q_begin = qb;
  out.q_end = fwd.end_i;
  out.s_begin = sb;
  out.s_end = fwd.end_j;
  out.has_alignment = true;
  out.cells += fwd.cells + rev.cells;
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::extension_border_score;
using v_scalar::locate_align_into;
}  // namespace anyseq
#endif  // scalar exports
