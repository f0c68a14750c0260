/// \file banded.hpp
/// Banded global alignment: restrict the DP to diagonals
/// lo <= j - i <= hi (an extension beyond the paper's evaluation; listed
/// in DESIGN.md as an optional feature).  When the two sequences are
/// known to be similar — resequencing, read-vs-candidate verification —
/// a band of width w reduces work from n*m to n*w cells.
///
/// H rolls in two rows and E in one; the predecessor bytes are stored
/// row-compactly: cell (i, j) lives at column k = j - i - lo of row i,
/// so the traceback storage is (n+1) x (hi-lo+1) bytes.  Cells outside
/// the band act as -inf walls; the band must contain both the start
/// diagonal (0) and the end diagonal (m - n) or the global problem is
/// infeasible and an exception is raised.
///
/// `doubling_global_into` builds the exact global traceback on top:
/// band doubling with a strict out-of-band score bound (DESIGN.md §11).

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant — see simd/foreach_target.hpp)
/// The `band` parameter type is shared (core/types.hpp): it crosses the
/// `engine::ops` dispatch boundary.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_CORE_BANDED_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_CORE_BANDED_HPP_
#undef ANYSEQ_CORE_BANDED_HPP_
#else
#define ANYSEQ_CORE_BANDED_HPP_
#endif

#include <algorithm>
#include <utility>

#include "core/errors.hpp"
#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

namespace detail {

/// One banded forward pass.  When `accept(score)` holds, the result —
/// and the traceback when `want_traceback` — goes into `out` and the
/// pass returns true; otherwise `out` is left untouched.  Like
/// full_engine, the relaxation reads H(i-1, j-1), H(i-1, j) and H(i, j-1)
/// from memory — here two swapped rows of m+1 — and E from one row:
/// carrying them in registers instead lets GCC's scalar-to-vector pass
/// move the H -> F -> H chain into vector registers in the AVX TUs,
/// which more than doubled the pass there.  Out-of-band cells read -inf:
/// a slot right of the band was never written, and the slot left of it
/// is set to -inf (or column 0's boundary value) before the row starts.
/// Only the predecessor bytes are kept per in-band cell, row-compactly:
/// (i, j) at i*w + j-i-lo.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV, class Accept>
bool banded_pass(const QV& q, const SV& s, const Gap& gap,
                 const Scoring& scoring, band b, bool want_traceback,
                 workspace& ws, alignment_result& out, Accept&& accept) {
  const index_t n = q.size(), m = s.size(), w = b.width();
  workspace::frame fr(ws);
  const auto row_len = static_cast<std::size_t>(m + 1);
  score_t* hp = ws.make<score_t>(row_len, neg_inf()).data();  // row i-1
  score_t* hc = ws.make<score_t>(row_len, neg_inf()).data();  // row i
  auto e = ws.make<score_t>(row_len, neg_inf());
  // Every in-band cell is written before the walk reads it.
  auto preds = ws.make<std::uint8_t>(
      want_traceback ? static_cast<std::size_t>((n + 1) * w) : 1);
  auto pidx = [&](index_t i, index_t j) { return i * w + (j - i - b.lo); };

  for (index_t j = 0; j <= std::min(m, b.hi); ++j)
    hp[j] = init_h_row0<align_kind::global>(j, gap);

  std::uint64_t cells = 0;
  for (index_t i = 1; i <= n; ++i) {
    const index_t j_lo = std::max<index_t>(1, i + b.lo);
    const index_t j_hi = std::min(m, i + b.hi);
    const char_t qc = q[i - 1];
    hc[j_lo - 1] = j_lo == 1 && i <= -b.lo
                       ? init_h_col0<align_kind::global>(i, gap)
                       : neg_inf();
    score_t f = neg_inf();  // F never survives across the band edge
    const index_t row = pidx(i, 0);
    for (index_t j = j_lo; j <= j_hi; ++j) {
      const prev_cells<score_t> prev{hp[j - 1], hp[j], hc[j - 1], e[j], f};
      const auto nx = relax_scalar<align_kind::global, true>(
          prev, qc, s[j - 1], gap, scoring);
      hc[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
      if (want_traceback) preds[row + j] = nx.pred;
    }
    cells += static_cast<std::uint64_t>(std::max<index_t>(0, j_hi - j_lo + 1));
    std::swap(hp, hc);
  }

  if (!accept(hp[m])) return false;
  out.reset();
  out.score = hp[m];
  out.q_end = n;
  out.s_end = m;
  out.cells = cells;

  if (want_traceback) {
    workspace::builder_lease lease(ws, out);
    auto pred_at = [&](index_t i, index_t j) { return preds[pidx(i, j)]; };
    auto [qb, sb] =
        traceback_walk<align_kind::global>(q, s, n, m, pred_at, lease.get());
    out.q_begin = qb;
    out.s_begin = sb;
    lease.get().take(out);
  }
  return true;
}

}  // namespace detail

/// Arena bytes one banded pass over an n x m problem carves.
[[nodiscard]] inline std::size_t banded_plan_bytes(index_t n, index_t m,
                                                   band b,
                                                   bool want_traceback) {
  return 3 * carve_bytes<score_t>(static_cast<std::size_t>(m + 1)) +
         carve_bytes<std::uint8_t>(
             want_traceback ? static_cast<std::size_t>((n + 1) * b.width())
                            : 1);
}

/// Banded global alignment with optional traceback, carving the band
/// storage from `ws` and recycling `out`'s buffers.
///
/// The returned score is optimal among paths that stay inside the band;
/// it equals the unrestricted optimum whenever the band is wide enough
/// to contain an optimal path (tests sweep this property).
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
void banded_global_into(const QV& q, const SV& s, const Gap& gap,
                        const Scoring& scoring, band b, bool want_traceback,
                        workspace& ws, alignment_result& out) {
  const index_t n = q.size(), m = s.size();
  if (b.lo > b.hi) throw invalid_argument_error("band.lo must be <= band.hi");
  if (b.lo > 0 || b.hi < 0)
    throw invalid_argument_error(
        "band must contain diagonal 0 (the global start)");
  if (b.lo > m - n || b.hi < m - n)
    throw invalid_argument_error(
        "band must contain diagonal m-n (the global end)");
  detail::banded_pass(q, s, gap, scoring, b, want_traceback, ws, out,
                      [](score_t) { return true; });
}

/// Starting radius of the band-doubling traceback; doubled per retry.
inline constexpr index_t kDoublingRadius = 8;

/// Whether band `b` is still worth running instead of the full matrix:
/// its (n+1) x width predecessor bytes stay within half of the
/// (n+1)(m+1) cells.
[[nodiscard]] inline bool doubling_admits(index_t m, band b) noexcept {
  return 2 * b.width() <= m + 1;
}

/// Arena peak of `doubling_global_into`: its widest admitted pass.
[[nodiscard]] inline std::size_t doubling_plan_bytes(index_t n, index_t m) {
  std::size_t peak = 0;
  for (index_t r = kDoublingRadius;; r *= 2) {
    const band b = band::around_main(n, m, r);
    if (!doubling_admits(m, b)) return peak;
    peak = banded_plan_bytes(n, m, b, true);
  }
}

/// Outcome of `doubling_global_into`.
struct doubling_result {
  bool certified = false;  ///< `out` holds the exact global alignment
  int passes = 0;          ///< band passes run, certified or not
};

/// Exact global traceback by band doubling (Ukkonen 1985, as in edlib).
/// Runs banded passes at radius kDoublingRadius, 2x, 4x, ... around the
/// main diagonal and keeps a pass only when its score is STRICTLY above
/// every score a path leaving the band could reach, so every optimal
/// path lies inside the band and the traceback — score, CIGAR, aligned
/// strings, begin cell — is byte-identical to full_engine's (proof in
/// DESIGN.md §11).  `out.cells` reports n*m like the full matrix.
///
/// A path touching diagonal d > hi >= max(0, D), D = m - n, has at
/// least g = 2d - D gap symbols in at least 2 runs and at most
/// floor((n+m-g)/2) substitutions, so it scores at most
/// U = floor((n+m-g)/2)*smax + g*extend + 2*open; the lo side mirrors
/// with g = 2|d| + D.  U does not increase with g (smax >= 0 >=
/// 2*extend), so the check at hi+1 and lo-1 covers every farther
/// diagonal; a side reaching the matrix edge (hi >= m, lo <= -n) is
/// exact.  Returns `certified == false`, with `out` untouched, when the
/// next band would exceed half the full matrix, when n or m is 0, or
/// when the bound does not apply (smax < 0 or a positive gap score):
/// the caller then runs full_engine.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
doubling_result doubling_global_into(const QV& q, const SV& s,
                                     const Gap& gap, const Scoring& scoring,
                                     workspace& ws, alignment_result& out) {
  const index_t n = q.size(), m = s.size();
  const std::int64_t smax = scoring.max_subst();
  doubling_result r;
  if (n == 0 || m == 0 || smax < 0 || gap.open() > 0 || gap.extend() > 0)
    return r;
  const std::int64_t d_end = m - n;
  const auto bound = [&](std::int64_t g) {
    return (n + m - g) / 2 * smax + g * gap.extend() + 2 * gap.open();
  };
  for (index_t radius = kDoublingRadius;; radius *= 2) {
    const band b = band::around_main(n, m, radius);
    if (!doubling_admits(m, b)) return r;
    ++r.passes;
    const auto certify = [&](score_t score) {
      return (b.hi >= m || score > bound(2 * (b.hi + 1) - d_end)) &&
             (b.lo <= -n || score > bound(2 * (1 - b.lo) + d_end));
    };
    if (detail::banded_pass(q, s, gap, scoring, b, true, ws, out, certify)) {
      out.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
      r.certified = true;
      return r;
    }
  }
}

/// One-shot convenience with a private throwaway workspace.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
[[nodiscard]] alignment_result banded_global(const QV& q, const SV& s,
                                             const Gap& gap,
                                             const Scoring& scoring,
                                             band b,
                                             bool want_traceback = true) {
  workspace ws;
  alignment_result out;
  banded_global_into(q, s, gap, scoring, b, want_traceback, ws, out);
  return out;
}

/// Score-only convenience.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
[[nodiscard]] score_t banded_global_score(const QV& q, const SV& s,
                                          const Gap& gap,
                                          const Scoring& scoring, band b) {
  return banded_global(q, s, gap, scoring, b, false).score;
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::doubling_global_into;
using v_scalar::doubling_plan_bytes;
using v_scalar::doubling_result;
using v_scalar::kDoublingRadius;
using v_scalar::banded_global;
using v_scalar::banded_global_into;
using v_scalar::banded_global_score;
}  // namespace anyseq
#endif  // scalar exports

#endif  // per-target include guard
