/// \file full_engine.hpp
/// Full-matrix DP engine: O(n*m) memory, stores H and predecessor codes,
/// supports traceback for all alignment kinds and gap models.
///
/// This is the library's semantic reference: every other engine (rolling,
/// tiled, SIMD, GPU-sim, FPGA-sim, Hirschberg) is validated against it.
/// It is also the production path for short sequences (e.g. Illumina
/// reads) where quadratic memory is cheap.
///
/// Plan/execute split: the matrices are carved from a caller-owned
/// `workspace` (align_into); a reused engine+workspace performs zero
/// steady-state allocations.
///
/// Per-target header: each engine variant gets its own clone inside
/// `anyseq::ANYSEQ_TARGET_NS`, so the batch-traceback path dispatched into
/// an ISA-flagged TU runs a full engine compiled with that TU's flags —
/// never a COMDAT shared with baseline code.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_CORE_FULL_ENGINE_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_CORE_FULL_ENGINE_HPP_
#undef ANYSEQ_CORE_FULL_ENGINE_HPP_
#else
#define ANYSEQ_CORE_FULL_ENGINE_HPP_
#endif

#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// End-of-alignment cell chosen by the forward pass.
struct dp_optimum {
  score_t score = neg_inf();
  index_t i = 0, j = 0;
};

/// Full-matrix engine.  `K`/`Gap`/`Scoring` are compile-time policies —
/// one instantiation per parameter set, the way AnyDSL emits one residual
/// program per specialization.
template <align_kind K, class Gap, class Scoring>
class full_engine {
 public:
  full_engine() = default;
  full_engine(Gap gap, Scoring scoring) : gap_(gap), scoring_(scoring) {}

  /// Arena bytes one align pass carves (the plan side).
  [[nodiscard]] static std::size_t plan_bytes(index_t n, index_t m) noexcept {
    const auto cells =
        static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(m + 1);
    return carve_bytes<score_t>(cells) + carve_bytes<std::uint8_t>(cells) +
           carve_bytes<score_t>(static_cast<std::size_t>(m + 1));
  }

  /// Compute the full DP matrix from `ws` and write score + optional
  /// traceback into `out`, recycling its string capacity.
  template <stage::sequence_view QV, stage::sequence_view SV>
  void align_into(const QV& q, const SV& s, bool want_traceback,
                  workspace& ws, alignment_result& out) {
    const index_t n = q.size(), m = s.size();
    workspace::frame fr(ws);
    const auto cells =
        static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(m + 1);
    auto h_store = ws.make<score_t>(cells);          // every cell written
    auto pred_store = ws.make<std::uint8_t>(cells);  // before it is read
    auto e_row = ws.make<score_t>(static_cast<std::size_t>(m + 1), neg_inf());
    stage::matrix_view<score_t> h(h_store.data(), n + 1, m + 1);
    stage::matrix_view<std::uint8_t> preds(pred_store.data(), n + 1, m + 1);

    // Boundary rows/columns.
    for (index_t j = 0; j <= m; ++j) h.write(0, j, init_h_row0<K>(j, gap_));
    for (index_t i = 0; i <= n; ++i) h.write(i, 0, init_h_col0<K>(i, gap_));

    dp_optimum best;

    for (index_t i = 1; i <= n; ++i) {
      score_t f = init_f_col0(i);
      const char_t qc = q[i - 1];
      for (index_t j = 1; j <= m; ++j) {
        const prev_cells<score_t> prev{h.read(i - 1, j - 1), h.read(i - 1, j),
                                       h.read(i, j - 1), e_row[j], f};
        const auto nx = relax_scalar<K, true>(prev, qc, s[j - 1], gap_, scoring_);
        h.write(i, j, nx.h);
        preds.write(i, j, nx.pred);
        e_row[j] = nx.e;
        f = nx.f;
        if constexpr (tracks_running_max(K)) {
          if (nx.h > best.score) best = {nx.h, i, j};
        }
      }
      if constexpr (K == align_kind::semiglobal) {
        if (h.read(i, m) > best.score) best = {h.read(i, m), i, m};
      }
    }

    if constexpr (K == align_kind::global) {
      best = {h.read(n, m), n, m};
    } else if constexpr (K == align_kind::semiglobal) {
      for (index_t j = 0; j <= m; ++j)
        if (h.read(n, j) > best.score) best = {h.read(n, j), n, j};
    } else if constexpr (K == align_kind::local) {
      if (best.score < 0) best = {0, 0, 0};  // empty local alignment
    } else {  // extension: anchored at (0,0); boundary prefixes also compete
      for (index_t i = 0; i <= n; ++i)
        if (h.read(i, 0) > best.score) best = {h.read(i, 0), i, 0};
      for (index_t j = 0; j <= m; ++j)
        if (h.read(0, j) > best.score) best = {h.read(0, j), 0, j};
    }

    out.reset();
    out.score = best.score;
    out.q_end = best.i;
    out.s_end = best.j;
    out.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);

    if (want_traceback) {
      workspace::builder_lease lease(ws, out);
      auto pred_at = [&preds](index_t i, index_t j) {
        return preds.read(i, j);
      };
      auto [qb, sb] =
          traceback_walk<K>(q, s, best.i, best.j, pred_at, lease.get());
      out.q_begin = qb;
      out.s_begin = sb;
      lease.get().take(out);
    } else {
      out.q_begin = 0;
      out.s_begin = 0;
    }

    // Test accessor bookkeeping (h_matrix): the carved H stays readable
    // until the owning workspace's next pass.
    h_last_ = h_store.data();
  }

  /// Read access to the most recent H matrix (tests compare cell-by-cell).
  /// Valid only while H sits in the serving arena's slab, so only after
  /// align_into on an arena reserved to plan_bytes(n, m) — a cold arena
  /// spills H into an overflow chunk that the pass frees — and only
  /// until that workspace starts a new pass.
  [[nodiscard]] stage::matrix_view<const score_t> h_matrix(index_t n,
                                                           index_t m) const {
    return {h_last_, n + 1, m + 1};
  }

 private:
  Gap gap_{};
  Scoring scoring_{};
  const score_t* h_last_ = nullptr;
};

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::dp_optimum;
using v_scalar::full_engine;
}  // namespace anyseq
#endif  // scalar exports

#endif  // per-target include guard
