/// \file tiled_hirschberg.hpp
/// Long-sequence traceback: the core divide & conquer engine driven by the
/// multi-threaded tiled last-row passes — the composition the paper
/// obtains by passing a different iteration strategy into the same
/// algorithm skeleton.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#undef ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#else
#define ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#endif

#include "core/hirschberg.hpp"
#include "tiled/tiled_engine.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Last-row strategy backed by the tiled MT engine: every pass, however
/// small, runs the wavefront (striped tiles inside the int16 window on
/// the vector variants), so one last-row path serves every variant.
///
/// When `ws` is set, the tiled engine carves its frontier and worker
/// scratch from that workspace (nested inside the enclosing Hirschberg
/// frame); otherwise each pass owns a throwaway engine workspace.  With
/// `stats` set, every tiled pass adds its wavefront accounting there.
template <class Gap, class Scoring, int Lanes>
struct tiled_last_row {
  Gap gap;
  Scoring scoring;
  tiled_config cfg;
  workspace* ws = nullptr;
  wavefront_stats* stats = nullptr;

  template <stage::sequence_view QV, stage::sequence_view SV>
  void operator()(const QV& q, const SV& s, score_t tb,
                  std::span<score_t> hh, std::span<score_t> ee) const {
    tiled_engine<align_kind::global, Gap, Scoring, Lanes> eng(gap, scoring,
                                                              cfg);
    if (ws != nullptr)
      eng.last_row(q, s, tb, hh, ee, *ws);
    else
      eng.last_row(q, s, tb, hh, ee);
    if (stats != nullptr) parallel::accumulate(*stats, eng.last_stats());
  }
};

/// Arena bytes one tiled Hirschberg pass carves (the plan side): the
/// Hirschberg quadruple/base-case peak with the tiled engine's largest
/// last-row pass (the first one, over n/2 x m) as the strategy extra.
template <int Lanes, class Gap, class Scoring>
[[nodiscard]] std::size_t tiled_hirschberg_plan_bytes(index_t n, index_t m,
                                                      const tiled_config& cfg,
                                                      index_t base_cells) {
  using eng_t = tiled_engine<align_kind::global, Gap, Scoring, Lanes>;
  const std::size_t last_row_extra =
      eng_t::plan_bytes(n / 2 + 1, m, cfg);
  return hirschberg_engine<
      Gap, Scoring, tiled_last_row<Gap, Scoring, Lanes>>::plan_bytes(
      n, m, base_cells, last_row_extra);
}

/// Linear-space global alignment with traceback, multi-threaded and
/// SIMD-accelerated — the paper's "traceback" benchmark configuration.
/// Carves everything from `ws`, recycling `out`'s buffers.
template <int Lanes, class Gap, class Scoring>
void tiled_hirschberg_align_into(stage::seq_view q, stage::seq_view s,
                                 const Gap& gap, const Scoring& scoring,
                                 tiled_config cfg, index_t base_cells,
                                 workspace& ws, alignment_result& out,
                                 wavefront_stats* stats = nullptr) {
  using lr = tiled_last_row<Gap, Scoring, Lanes>;
  lr last_row{gap, scoring, cfg};
  last_row.ws = &ws;
  last_row.stats = stats;
  hirschberg_engine<Gap, Scoring, lr> eng(gap, scoring, last_row,
                                          {base_cells});
  eng.align_into(q, s, ws, out);
}

/// One-shot convenience with a private throwaway workspace.
template <int Lanes, class Gap, class Scoring>
[[nodiscard]] alignment_result tiled_hirschberg_align(
    stage::seq_view q, stage::seq_view s, const Gap& gap,
    const Scoring& scoring, tiled_config cfg = {},
    index_t base_cells = 1 << 14) {
  workspace ws;
  alignment_result out;
  tiled_hirschberg_align_into<Lanes>(q, s, gap, scoring, cfg, base_cells, ws,
                                     out);
  return out;
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::tiled_hirschberg_align;
using v_scalar::tiled::tiled_hirschberg_align_into;
using v_scalar::tiled::tiled_hirschberg_plan_bytes;
using v_scalar::tiled::tiled_last_row;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
