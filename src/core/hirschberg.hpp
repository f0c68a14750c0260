#pragma once
/// \file hirschberg.hpp
/// Linear-space traceback by divide & conquer (paper §III-A, citing
/// Hirschberg [24]; affine gaps handled in the Myers–Miller fashion).
///
/// The query is split at its middle row; a forward last-row pass over the
/// upper half and a reverse pass over the (view-)reversed lower half meet
/// at the cut, where the optimal crossing column is found either in H
/// (path passes through a cell) or in E (path crosses inside a vertical
/// gap — the two halves' gap opens are merged by subtracting one `open`).
/// Recursion stops at a configurable full-DP cutoff ("recursion on
/// subsequences is only done if the subsequence sizes exceed a
/// hardware-specific threshold", paper §III-B) or at the classic
/// n <= 1 base cases.  Total relaxed cells <= 2*n*m.
///
/// Boundary parameters `tb`/`te` carry the Myers–Miller gap-continuation
/// discounts: `gap.open()` for a fresh vertical gap at the block's top
/// (resp. bottom) boundary, 0 when the block continues a gap its parent
/// already opened.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant — see simd/targets.hpp)

#include "simd/set_target.hpp"

#include <functional>

#include "core/full_engine.hpp"
#include "core/rolling.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// Strategy computing a boundary-parameterized global last-row pass
/// (`hh[j] = H(n,j)`, `ee[j] = E(n,j)`).  The serial default wraps
/// nw_last_row; the tiled multi-threaded engine substitutes its own —
/// the same composition-by-function-argument the paper uses to swap
/// iteration strategies.
///
/// Arguments: (q, s, tb, hh, ee) where q/s may be any sequence view.
template <class Gap, class Scoring>
struct serial_last_row {
  Gap gap;
  Scoring scoring;
  template <stage::sequence_view QV, stage::sequence_view SV>
  void operator()(const QV& q, const SV& s, score_t tb,
                  std::span<score_t> hh, std::span<score_t> ee) const {
    nw_last_row(q, s, gap, scoring, tb, hh, ee);
  }
};

/// Divide-and-conquer global aligner in O(n + m) space.
///
/// \tparam LastRow  last-row pass strategy (see serial_last_row)
template <class Gap, class Scoring, class LastRow>
class hirschberg_engine {
 public:
  struct config {
    /// Recursion switches to a full-matrix DP once n*m falls below this
    /// (ablation: bench_ablation sweeps it).  Must be >= 1.
    index_t base_cells = 1 << 14;
  };

  hirschberg_engine(Gap gap, Scoring scoring, LastRow last_row,
                    config cfg = {})
      : gap_(gap), scoring_(scoring), last_row_(last_row), cfg_(cfg) {
    ANYSEQ_CHECK(cfg_.base_cells >= 1, "base_cells must be >= 1");
  }

  /// Arena bytes one align pass carves (the plan side).  The recursion
  /// releases each level's last-row quadruple *before* recursing, so the
  /// peak is one quadruple plus the larger of the full-DP base case and
  /// whatever the last-row strategy itself carves (`last_row_extra`,
  /// e.g. the tiled engine's frontier + worker scratch; 0 for the serial
  /// strategy).
  [[nodiscard]] static std::size_t plan_bytes(
      index_t n, index_t m, index_t base_cells,
      std::size_t last_row_extra) noexcept {
    const std::size_t quad =
        4 * carve_bytes<score_t>(static_cast<std::size_t>(m + 1));
    // base_full bound: (n'+1)*(m'+1) with n'*m' <= base_cells.
    const std::size_t base_hm = static_cast<std::size_t>(base_cells) +
                                static_cast<std::size_t>(n) +
                                static_cast<std::size_t>(m) + 2;
    const std::size_t base =
        carve_bytes<score_t>(base_hm) + carve_bytes<std::uint8_t>(base_hm) +
        carve_bytes<score_t>(static_cast<std::size_t>(m + 1));
    return quad + (base > last_row_extra ? base : last_row_extra);
  }

  /// Global alignment with full traceback in linear space, carving the
  /// last-row buffers from `ws` and recycling `res`'s string capacity.
  void align_into(stage::seq_view q, stage::seq_view s, workspace& ws,
                  alignment_result& res) {
    cells_ = 0;
    ws_ = &ws;
    res.reset();
    workspace::builder_lease lease(ws, res);
    const score_t sc = solve(q, s, gap_.open(), gap_.open(), lease.get());
    res.score = sc;
    res.q_begin = 0;
    res.q_end = q.size();
    res.s_begin = 0;
    res.s_end = s.size();
    res.cells = cells_;
    lease.get().take(res);
    ws_ = nullptr;
  }

  /// Total DP cells relaxed by the last call (paper: at most doubled).
  [[nodiscard]] std::uint64_t cells() const noexcept { return cells_; }

 private:
  // ---- Myers–Miller recursion ------------------------------------------
  score_t solve(stage::seq_view q, stage::seq_view s, score_t tb, score_t te,
                alignment_builder& out) {
    const index_t n = q.size(), m = s.size();

    if (n == 0) {
      for (index_t j = 0; j < m; ++j) out.ins(s[j]);
      return gap_.total(m);
    }
    if (m == 0) {
      for (index_t i = 0; i < n; ++i) out.del(q[i]);
      return static_cast<score_t>(std::max(tb, te) + gap_.extend() * n);
    }
    if (n == 1) return base_single_row(q, s, tb, te, out);
    if (n * m <= cfg_.base_cells) return base_full(q, s, tb, te, out);

    const index_t mid = n / 2;

    // Find the best crossing column.  The last-row quadruple is carved
    // from the workspace and released before recursing, so the arena's
    // peak is one level's rows, not the whole recursion path's.
    score_t best = neg_inf();
    index_t best_j = 0;
    bool gap_join = false;
    {
      workspace::frame fr(*ws_);
      auto hf = ws_->make<score_t>(static_cast<std::size_t>(m + 1));
      auto ef = ws_->make<score_t>(static_cast<std::size_t>(m + 1));
      auto hr = ws_->make<score_t>(static_cast<std::size_t>(m + 1));
      auto er = ws_->make<score_t>(static_cast<std::size_t>(m + 1));

      // Forward pass over the upper half, reverse pass over the lower.
      last_row_(q.sub(0, mid), s, tb, hf, ef);
      last_row_(stage::rev_view(q.sub(mid, n)), stage::rev_view(s), te, hr,
                er);
      cells_ += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);

      // Column-0 boundaries double as open vertical gaps whose "open"
      // cost is whatever tb/te encoded (see DESIGN.md):
      ef[0] = hf[0];
      er[0] = hr[0];

      for (index_t j = 0; j <= m; ++j) {
        const score_t hj = static_cast<score_t>(hf[j] + hr[m - j]);
        if (hj > best) {
          best = hj;
          best_j = j;
          gap_join = false;
        }
        const score_t ej =
            static_cast<score_t>(ef[j] + er[m - j] - gap_.open());
        if (ej > best) {
          best = ej;
          best_j = j;
          gap_join = true;
        }
      }
    }

    if (!gap_join) {
      solve(q.sub(0, mid), s.sub(0, best_j), tb, gap_.open(), out);
      solve(q.sub(mid, n), s.sub(best_j, m), gap_.open(), te, out);
    } else {
      // The optimal path crosses the cut inside a vertical gap covering
      // rows mid-1 and mid: emit those two deletions explicitly and tell
      // both children the gap is already open at their shared boundary.
      solve(q.sub(0, mid - 1), s.sub(0, best_j), tb, 0, out);
      out.del(q[mid - 1]);
      out.del(q[mid]);
      solve(q.sub(mid + 1, n), s.sub(best_j, m), 0, te, out);
    }
    return best;
  }

  /// n == 1: align the single query character optimally (classic base).
  score_t base_single_row(stage::seq_view q, stage::seq_view s, score_t tb,
                          score_t te, alignment_builder& out) {
    const index_t m = s.size();
    cells_ += static_cast<std::uint64_t>(m);
    // Option A: delete q0, insert all of s.
    score_t best = static_cast<score_t>(std::max(tb, te) + gap_.extend() +
                                        gap_.total(m));
    index_t best_j = 0;  // 0 = deletion option
    // Option B_j: align q0 with s_j, gaps around it.
    for (index_t j = 1; j <= m; ++j) {
      const score_t cand = static_cast<score_t>(
          gap_.total(j - 1) +
          scoring_.template subst<score_t>(q[0], s[j - 1]) +
          gap_.total(m - j));
      if (cand > best) {
        best = cand;
        best_j = j;
      }
    }
    if (best_j == 0) {
      out.del(q[0]);
      for (index_t j = 0; j < m; ++j) out.ins(s[j]);
    } else {
      for (index_t j = 0; j < best_j - 1; ++j) out.ins(s[j]);
      out.pair(q[0], s[best_j - 1]);
      for (index_t j = best_j; j < m; ++j) out.ins(s[j]);
    }
    return best;
  }

  /// Full-DP base case with Myers–Miller boundaries: H(i,0) = tb+i*Ge and
  /// an end-state choice at (n,m) — if the block's optimal path ends
  /// inside a vertical gap that continues below (te discount), traceback
  /// starts in E.
  score_t base_full(stage::seq_view q, stage::seq_view s, score_t tb,
                    score_t te, alignment_builder& out) {
    const index_t n = q.size(), m = s.size();
    cells_ += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);

    workspace::frame fr(*ws_);
    const auto cells =
        static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(m + 1);
    auto h = ws_->make<score_t>(cells);          // every cell written
    auto preds = ws_->make<std::uint8_t>(cells);  // before it is read
    stage::matrix_view<score_t> hv(h.data(), n + 1, m + 1);
    stage::matrix_view<std::uint8_t> pv(preds.data(), n + 1, m + 1);
    for (index_t j = 0; j <= m; ++j) hv.write(0, j, gap_.total(j));
    for (index_t i = 0; i <= n; ++i)
      hv.write(i, 0,
               i == 0 ? 0 : static_cast<score_t>(tb + gap_.extend() * i));

    auto e_row = ws_->make<score_t>(static_cast<std::size_t>(m + 1),
                                    neg_inf());
    score_t e_corner = neg_inf();
    for (index_t i = 1; i <= n; ++i) {
      score_t f = init_f_col0(i);
      const char_t qc = q[i - 1];
      for (index_t j = 1; j <= m; ++j) {
        const prev_cells<score_t> prev{hv.read(i - 1, j - 1),
                                       hv.read(i - 1, j), hv.read(i, j - 1),
                                       e_row[j], f};
        const auto nx = relax_scalar<align_kind::global, true>(prev, qc,
                                                               s[j - 1], gap_,
                                                               scoring_);
        hv.write(i, j, nx.h);
        pv.write(i, j, nx.pred);
        e_row[j] = nx.e;
        f = nx.f;
      }
      e_corner = e_row[m];
    }

    const score_t end_h = hv.read(n, m);
    const score_t end_e =
        static_cast<score_t>(e_corner - gap_.open() + te);
    const bool start_in_e = m > 0 && n > 0 && end_e > end_h;

    workspace::builder_lease piece(*ws_);
    auto pred_at = [&pv](index_t i, index_t j) { return pv.read(i, j); };
    traceback_walk<align_kind::global>(q, s, n, m, pred_at, piece.get(),
                                       start_in_e ? tb_state::e
                                                  : tb_state::h);
    out.append(piece.get());
    return start_in_e ? end_e : end_h;
  }

  Gap gap_;
  Scoring scoring_;
  LastRow last_row_;
  config cfg_;
  std::uint64_t cells_ = 0;
  workspace* ws_ = nullptr;  ///< the pass's arena (set by align_into)
};

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::hirschberg_engine;
using v_scalar::serial_last_row;
}  // namespace anyseq
#endif  // scalar exports
