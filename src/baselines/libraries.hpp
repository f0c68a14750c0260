#pragma once
/// \file libraries.hpp
/// Faithful reimplementations of the comparison libraries' *structural*
/// behaviour (DESIGN.md §3).  The paper's Fig. 5/6 deltas between AnySeq
/// and SeqAn/Parasail/NVBio trace to documented design differences; those
/// differences — not the proprietary binaries — are what these baselines
/// reproduce:
///
///  * `seqan_like`   — dynamic wavefront (like AnySeq; §V: "SeqAn is also
///    based upon a dynamic wavefront approach") but with the *generic
///    affine machinery always engaged*: SeqAn's intrinsics-based kernel
///    emulates control flow with masked data flow and does not emit a
///    specialized linear-gap variant, so linear scoring runs as affine
///    with open = 0.  AnySeq's linear-gap specialization (dropping E/F
///    entirely) is precisely what partial evaluation buys.
///
///  * `parasail_like` — affine-only scoring ("Parasail does not
///    explicitly specialize the case of linear gap penalties").  Its
///    static per-diagonal wavefront ("Parasail rel[ies] on the latter
///    strategy" — §V explains its low long-genome numbers with exactly
///    this) is simulated only (schedsim/, Fig. 6); on real threads it
///    runs the same dynamic wavefront as the library.
///
///  * `nvbio_like`   — the same GPU work on the simulated device, but a
///    less specialized kernel: more issue slots per cell and row spills
///    to global memory, yielding the paper's ~1.1x AnySeq advantage.

#include "core/hirschberg.hpp"
#include "core/scoring.hpp"
#include "gpusim/gpu_engine.hpp"
#include "tiled/batch_engine.hpp"
#include "tiled/tiled_engine.hpp"
#include "tiled/tiled_hirschberg.hpp"

namespace anyseq::baselines {

/// Shared CPU baseline knobs.
struct cpu_baseline_config {
  int threads = 1;
  index_t tile = 512;
};

/// Map a requested gap model onto the always-affine machinery:
/// linear gap g becomes affine (open = 0, extend = g) — identical scores,
/// but the full Gotoh data path (E/F planes, extra max chains) runs.
[[nodiscard]] constexpr affine_gap as_affine(const linear_gap& g) noexcept {
  return {0, g.gap};
}
[[nodiscard]] constexpr affine_gap as_affine(const affine_gap& g) noexcept {
  return g;
}

// ---------------------------------------------------------------------
// seqan_like
// ---------------------------------------------------------------------
template <align_kind K, int Lanes>
class seqan_like {
 public:
  template <class Gap>
  seqan_like(score_t match, score_t mismatch, Gap gap,
             cpu_baseline_config cfg = {})
      : scoring_(match, mismatch), gap_(as_affine(gap)), cfg_(cfg) {}

  [[nodiscard]] score_result score(stage::seq_view q, stage::seq_view s) {
    tiled::tiled_engine<K, affine_gap, simple_scoring, Lanes> eng(
        gap_, scoring_, {cfg_.tile, cfg_.tile, cfg_.threads});
    return eng.score(q, s);
  }

  [[nodiscard]] alignment_result align(stage::seq_view q,
                                       stage::seq_view s) {
    static_assert(K == align_kind::global,
                  "baseline traceback is exercised on global alignments");
    return tiled::tiled_hirschberg_align<Lanes>(
        q, s, gap_, scoring_, {cfg_.tile, cfg_.tile, cfg_.threads});
  }

  [[nodiscard]] std::vector<score_t> batch_scores(
      std::span<const tiled::pair_view> pairs) {
    tiled::batch_engine<K, affine_gap, simple_scoring, Lanes> eng(
        gap_, scoring_, {cfg_.threads});
    return eng.scores(pairs);
  }

  [[nodiscard]] std::vector<alignment_result> batch_align(
      std::span<const tiled::pair_view> pairs) {
    tiled::batch_engine<K, affine_gap, simple_scoring, Lanes> eng(
        gap_, scoring_, {cfg_.threads});
    return eng.align_all(pairs);
  }

 private:
  simple_scoring scoring_;
  affine_gap gap_;
  cpu_baseline_config cfg_;
};

// ---------------------------------------------------------------------
// parasail_like
// ---------------------------------------------------------------------
template <align_kind K, int Lanes>
class parasail_like {
 public:
  template <class Gap>
  parasail_like(score_t match, score_t mismatch, Gap gap,
                cpu_baseline_config cfg = {})
      : scoring_(match, mismatch), gap_(as_affine(gap)), cfg_(cfg) {}

  [[nodiscard]] score_result score(stage::seq_view q, stage::seq_view s) {
    tiled::tiled_engine<K, affine_gap, simple_scoring, Lanes> eng(
        gap_, scoring_,
        {cfg_.tile, cfg_.tile, cfg_.threads});
    return eng.score(q, s);
  }

  [[nodiscard]] alignment_result align(stage::seq_view q,
                                       stage::seq_view s) {
    static_assert(K == align_kind::global);
    using lr = tiled::tiled_last_row<affine_gap, simple_scoring, Lanes>;
    hirschberg_engine<affine_gap, simple_scoring, lr> eng(
        gap_, scoring_,
        lr{gap_, scoring_,
           {cfg_.tile, cfg_.tile, cfg_.threads}},
        {1 << 14});
    return eng.align(q, s);
  }

  [[nodiscard]] std::vector<score_t> batch_scores(
      std::span<const tiled::pair_view> pairs) {
    // Parasail's batch mode is a plain loop over its single-pair kernel;
    // pairs do not share SIMD lanes across alignments, so each pair runs
    // the (affine) scalar kernel, parallelized over pairs only.
    tiled::batch_engine<K, affine_gap, simple_scoring, 1> eng(
        gap_, scoring_, {cfg_.threads});
    return eng.scores(pairs);
  }

  [[nodiscard]] std::vector<alignment_result> batch_align(
      std::span<const tiled::pair_view> pairs) {
    tiled::batch_engine<K, affine_gap, simple_scoring, 1> eng(
        gap_, scoring_, {cfg_.threads});
    return eng.align_all(pairs);
  }

 private:
  simple_scoring scoring_;
  affine_gap gap_;
  cpu_baseline_config cfg_;
};

// ---------------------------------------------------------------------
// nvbio_like
// ---------------------------------------------------------------------

/// Model parameters of the less-specialized GPU kernel: more instructions
/// per cell (generic inner loop, no partial evaluation) and lower
/// achieved occupancy.
[[nodiscard]] inline gpusim::gpu_model nvbio_model() {
  gpusim::gpu_model m;
  m.name = "nvbio_like";
  m.issue_per_cell = 14.0;
  m.occupancy = 0.55;
  return m;
}

template <align_kind K, class Gap>
class nvbio_like {
 public:
  nvbio_like(gpusim::device& dev, score_t match, score_t mismatch, Gap gap)
      : dev_(dev), eng_(dev, gap, simple_scoring{match, mismatch}) {}

  [[nodiscard]] score_result score(stage::seq_view q, stage::seq_view s) {
    const auto r = eng_.score(q, s);
    log_row_spills(q.size(), s.size());
    return r;
  }

  [[nodiscard]] alignment_result align(stage::seq_view q,
                                       stage::seq_view s) {
    auto r = eng_.align(q, s);
    log_row_spills(q.size(), s.size());
    log_row_spills(q.size(), s.size());  // reverse passes of the D&C
    return r;
  }

  [[nodiscard]] std::vector<alignment_result> batch(
      std::span<const tiled::pair_view> pairs, bool want_traceback) {
    auto out = eng_.batch(pairs, want_traceback);
    for (const auto& p : pairs) log_row_spills(p.q.size(), p.s.size());
    return out;
  }

  [[nodiscard]] gpusim::model_result estimate() const {
    return gpusim::estimate(dev_.counters(), nvbio_model());
  }

 private:
  /// NVBio's kernels keep whole DP rows in global memory once per warp
  /// sweep instead of the shared-memory stripe reuse AnySeq performs.
  void log_row_spills(index_t n, index_t m) {
    const auto rows = static_cast<std::uint64_t>((n + 127) / 128);
    dev_.log_range_access(0, rows * static_cast<std::uint64_t>(m), 4, 4,
                          true);
  }

  gpusim::device& dev_;
  gpusim::gpu_engine<K, Gap, simple_scoring> eng_;
};

}  // namespace anyseq::baselines
