/// \file rolling.hpp
/// Linear-space score-only engine (paper Fig. 1, right: only one row of H
/// plus the running E row and F scalar are stored), and the boundary-
/// parameterized last-row passes used by the Myers–Miller / Hirschberg
/// divide-and-conquer traceback.
///
/// Per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant.  `score_result` itself is shared (core/result.hpp)
/// with baseline code.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_CORE_ROLLING_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_CORE_ROLLING_HPP_
#undef ANYSEQ_CORE_ROLLING_HPP_
#else
#define ANYSEQ_CORE_ROLLING_HPP_
#endif

#include <span>

#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// Arena bytes one rolling_score pass carves (the plan side).
[[nodiscard]] inline std::size_t rolling_plan_bytes(index_t m) noexcept {
  return 2 * carve_bytes<score_t>(static_cast<std::size_t>(m + 1));
}

/// Score-only alignment in O(min-row) space and O(n*m) time.  The two
/// rolling rows are carved from `ws` (released on return).
template <align_kind K, class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
[[nodiscard]] score_result rolling_score(const QV& q, const SV& s,
                                         const Gap& gap,
                                         const Scoring& scoring,
                                         workspace& ws) {
  const index_t n = q.size(), m = s.size();
  workspace::frame fr(ws);
  auto h = ws.make<score_t>(static_cast<std::size_t>(m + 1));
  auto e = ws.make<score_t>(static_cast<std::size_t>(m + 1), neg_inf());
  for (index_t j = 0; j <= m; ++j) h[j] = init_h_row0<K>(j, gap);

  score_result best;
  if constexpr (K == align_kind::local) {
    best = {0, 0, 0, 0};
  } else if constexpr (K == align_kind::extension) {
    for (index_t j = 0; j <= m; ++j)  // boundary prefixes compete
      if (h[j] > best.score) best = {h[j], 0, j, 0};
  } else {
    best = {h[m], 0, m, 0};  // row-0 candidate for semiglobal / empty global
  }

  for (index_t i = 1; i <= n; ++i) {
    score_t diag = h[0];
    h[0] = init_h_col0<K>(i, gap);
    if constexpr (K == align_kind::extension) {
      if (h[0] > best.score) best = {h[0], i, 0, 0};
    }
    score_t f = init_f_col0(i);
    const char_t qc = q[i - 1];
    for (index_t j = 1; j <= m; ++j) {
      const prev_cells<score_t> prev{diag, h[j], h[j - 1], e[j], f};
      const auto nx =
          relax_scalar<K, false>(prev, qc, s[j - 1], gap, scoring);
      diag = h[j];
      h[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
      if constexpr (tracks_running_max(K)) {
        if (nx.h > best.score) best = {nx.h, i, j, 0};
      }
    }
    if constexpr (K == align_kind::semiglobal) {
      if (h[m] > best.score) best = {h[m], i, m, 0};
    }
  }

  if constexpr (K == align_kind::global) {
    best = {h[m], n, m, 0};
  } else if constexpr (K == align_kind::semiglobal) {
    for (index_t j = 0; j <= m; ++j)
      if (h[j] > best.score) best = {h[j], n, j, 0};
  }
  best.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  return best;
}

/// Global-alignment last-row pass with a parameterized vertical boundary
/// (Myers–Miller): H(i,0) = tb + i*extend — `tb = gap.open()` for a fresh
/// leading deletion, `tb = 0` when the deletion continues a gap opened by
/// the caller's enclosing block.
///
/// On return `hh[j] = H(n, j)` and `ee[j] = E(n, j)` for j = 0..m
/// (`ee` is only meaningful for affine gaps but is always filled so the
/// divide step can treat both models uniformly).
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
void nw_last_row(const QV& q, const SV& s, const Gap& gap,
                 const Scoring& scoring, score_t tb,
                 std::span<score_t> hh, std::span<score_t> ee) {
  const index_t n = q.size(), m = s.size();
  ANYSEQ_ASSERT(static_cast<index_t>(hh.size()) == m + 1 &&
                    static_cast<index_t>(ee.size()) == m + 1,
                "output spans must have m+1 entries");
  for (index_t j = 0; j <= m; ++j) {
    hh[j] = j == 0 ? 0 : static_cast<score_t>(gap.open() + gap.extend() * j);
    ee[j] = neg_inf();
  }
  for (index_t i = 1; i <= n; ++i) {
    score_t diag = hh[0];
    hh[0] = static_cast<score_t>(tb + gap.extend() * i);
    score_t f = init_f_col0(i);
    const char_t qc = q[i - 1];
    for (index_t j = 1; j <= m; ++j) {
      const prev_cells<score_t> prev{diag, hh[j], hh[j - 1], ee[j], f};
      const auto nx = relax_scalar<align_kind::global, false>(prev, qc,
                                                              s[j - 1], gap,
                                                              scoring);
      diag = hh[j];
      hh[j] = nx.h;
      ee[j] = nx.e;
      f = nx.f;
    }
  }
  if (n == 0) {
    // E(0, j) boundary: no vertical gap can be open yet.
    for (index_t j = 0; j <= m; ++j) ee[j] = neg_inf();
  }
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::nw_last_row;
using v_scalar::rolling_plan_bytes;
using v_scalar::rolling_score;
}  // namespace anyseq
#endif  // scalar exports

#endif  // per-target include guard
