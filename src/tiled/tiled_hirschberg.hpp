/// \file tiled_hirschberg.hpp
/// Long-sequence traceback: the core divide & conquer engine driven by the
/// multi-threaded tiled last-row passes — the composition the paper
/// obtains by passing a different iteration strategy into the same
/// algorithm skeleton.  `traceback_route` runs every traceback route
/// `engine::classify_route` picks (full matrix, Hirschberg, locate) for
/// `align` and a batch's traceback pairs alike.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#undef ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#else
#define ANYSEQ_TILED_TILED_HIRSCHBERG_HPP_
#endif

#include "core/banded.hpp"
#include "core/full_engine.hpp"
#include "core/hirschberg.hpp"
#include "core/locate.hpp"
#include "tiled/tiled_engine.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Last-row strategy backed by the tiled MT engine: every pass, however
/// small, runs the wavefront (striped tiles inside the int16 window on
/// the vector variants), so one last-row path serves every variant.
///
/// The tiled engine carves its frontier and worker scratch from `ws`,
/// nested inside the enclosing Hirschberg frame.  With `stats` set,
/// every tiled pass adds its wavefront accounting there.
template <class Gap, class Scoring, int Lanes>
struct tiled_last_row {
  Gap gap;
  Scoring scoring;
  tiled_config cfg;
  workspace& ws;
  wavefront_stats* stats = nullptr;

  template <stage::sequence_view QV, stage::sequence_view SV>
  void operator()(const QV& q, const SV& s, score_t tb,
                  std::span<score_t> hh, std::span<score_t> ee) const {
    tiled_engine<align_kind::global, Gap, Scoring, Lanes> eng(gap, scoring,
                                                              cfg);
    eng.last_row(q, s, tb, hh, ee, ws);
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
  hirschberg_engine<Gap, Scoring, lr> eng(
      gap, scoring, lr{gap, scoring, cfg, ws, stats}, {base_cells});
  eng.align_into(q, s, ws, out);
}

/// Arena bytes of the traceback route `rt` (engine::classify_route's pick
/// for an (n x m) traceback under `opt`): the plan half of
/// `traceback_route`, shared by `plan_bytes_impl` and a traceback batch's
/// worker warm-up.  Band doubling and the full matrix run one at a time;
/// locate adds its two rolling passes to the Hirschberg peak of the
/// located region (bounded by the full problem).
template <align_kind K, int Lanes, class Gap, class Scoring>
[[nodiscard]] std::size_t traceback_plan_bytes(engine::route_kind rt,
                                               index_t n, index_t m,
                                               const align_options& opt) {
  if (rt == engine::route_kind::unsupported) return 0;  // rejected
  if (rt == engine::route_kind::full_matrix) {
    const std::size_t full = full_engine<K, Gap, Scoring>::plan_bytes(n, m);
    return K == align_kind::global ? std::max(full, doubling_plan_bytes(n, m))
                                   : full;
  }
  const std::size_t split = tiled_hirschberg_plan_bytes<Lanes, Gap, Scoring>(
      n, m, make_tiled_config<Lanes>(opt, n, m), engine::kHirschbergBaseCells);
  return rt == engine::route_kind::locate ? 2 * rolling_plan_bytes(m) + split
                                          : split;
}

/// Reject an extension traceback past `full_matrix_cells`: only the full
/// matrix holds its anchored walk from the tracked optimum.
inline void check_traceback_route(engine::route_kind rt) {
  if (rt == engine::route_kind::unsupported)
    throw invalid_argument_error(
        "extension traceback beyond full_matrix_cells is not supported");
}

/// One traceback pair on `rt`, the route engine::classify_route picked
/// for it under `opt`: the traceback half of `align`'s route switch,
/// which a batch's traceback pairs run too.  A global full-matrix pair
/// tries band doubling first and counts it in `stats` when non-null;
/// `wavefront`, when non-null, receives the tiled passes' accounting.
template <align_kind K, int Lanes, class Gap, class Scoring>
void traceback_route(engine::route_kind rt, stage::seq_view q,
                     stage::seq_view s, const Gap& gap,
                     const Scoring& scoring, const align_options& opt,
                     workspace& ws, alignment_result& out,
                     ::anyseq::batch_stats* stats,
                     wavefront_stats* wavefront = nullptr) {
  check_traceback_route(rt);
  if (rt == engine::route_kind::full_matrix) {
    if constexpr (K == align_kind::global) {
      const doubling_result d =
          doubling_global_into(q, s, gap, scoring, ws, out);
      if (stats != nullptr) {
        stats->band_passes += static_cast<std::uint64_t>(d.passes);
        stats->banded_pairs += d.certified ? 1 : 0;
      }
      if (d.certified) return;
    }
    full_engine<K, Gap, Scoring>(gap, scoring).align_into(q, s, true, ws,
                                                          out);
    return;
  }
  const tiled_config cfg = make_tiled_config<Lanes>(opt, q.size(), s.size());
  const auto hirschberg = [&](stage::seq_view subq, stage::seq_view subs,
                              alignment_result& sub) {
    tiled_hirschberg_align_into<Lanes>(subq, subs, gap, scoring, cfg,
                                       engine::kHirschbergBaseCells, ws, sub,
                                       wavefront);
  };
  if constexpr (K == align_kind::global)
    hirschberg(q, s, out);
  else if constexpr (K != align_kind::extension)
    locate_align_into<K>(q, s, gap, scoring, hirschberg, ws, out);
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::tiled_hirschberg_align_into;
using v_scalar::tiled::tiled_hirschberg_plan_bytes;
using v_scalar::tiled::tiled_last_row;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
