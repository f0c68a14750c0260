/// \file batch_engine.hpp
/// Inter-sequence SIMD alignment of many short pairs (the paper's second
/// use case: millions of Illumina read pairs).  Lane `l` of every vector
/// instruction processes pair `l` of a chunk; chunks run in parallel on
/// the thread pool.
///
/// Adaptive precision: each uniform chunk picks the narrowest score
/// element type whose worst-case bound (n + m + 2) * unit provably fits —
/// int8 at twice the lane count when |score| <= 96, else the classic
/// 16-bit kernel below 28000, else the scalar rolling engine.  Forcing a
/// narrow precision through `batch_config` runs the *checked* kernel
/// instead: a sticky per-lane overflow mask flags any value that drifts
/// within one relax step of the representable window (where a saturating
/// add could silently clamp), and flagged pairs are transparently
/// re-scored by the int32 rolling engine inside the same workspace pass.
/// Unit-cost option sets can additionally hint the Myers bit-parallel
/// engine (core/bitpar.hpp) per pair.  Every mode returns results
/// byte-identical to the int32 path.
///
/// Mixed-length chunks no longer force the scalar fallback: when a group
/// of W consecutive pairs is not exactly uniform, `group_plan` pads each
/// lane to the chunk-max shape (nbar x mbar) as long as the padding
/// waste sum(nbar*mbar - n_l*m_l) stays within a configurable cap, and
/// the *ragged* kernel captures every lane's result at its own (n_l,
/// m_l) boundary through per-lane retirement masks — byte-identical to
/// the int32 rolling route in every mode, padded or not.  Only chunks
/// past the waste cap (or containing empty sequences) still fall back
/// to one pair at a time — under auto on a vector variant through the
/// intra-pair striped int16 kernel (tiled/striped.hpp), otherwise the
/// paper's Fig. 3 scalar dichotomy.
///
/// Plan/execute split: when run single-threaded (the service's
/// steady-state configuration on small hosts), every chunk's interleaved
/// rows come from the caller-owned workspace and the `*_into` entry
/// points write into caller-sized storage — zero allocations after
/// warm-up.  Multi-threaded runs pull groups off a shared atomic cursor
/// and carve from pooled per-worker arenas (caller-provided through
/// `batch_config::worker_ws`, or engine-owned), so the warm parallel
/// fan-out allocates nothing either.
///
/// The pair type is generic over anything with `.q`/`.s` views, so the
/// public `seq_pair` batches dispatch straight through without being
/// copied into per-target `pair_view` vectors first.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_BATCH_ENGINE_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_BATCH_ENGINE_HPP_
#undef ANYSEQ_TILED_BATCH_ENGINE_HPP_
#else
#define ANYSEQ_TILED_BATCH_ENGINE_HPP_
#endif

#include <atomic>
#include <bit>
#include <mutex>
#include <type_traits>
#include <vector>

#include "core/bitpar.hpp"
#include "core/errors.hpp"
#include "core/full_engine.hpp"
#include "core/rolling.hpp"
#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/pack.hpp"
#include "tiled/striped.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// One alignment job.
struct pair_view {
  stage::seq_view q, s;
};

struct batch_config {
  int threads = 1;
  /// Precision hint (engine::classify_batch_precision): auto_select
  /// resolves per chunk from the worst-case bound; a forced narrow type
  /// runs the checked kernel + escalation; bitpar runs the bit-parallel
  /// engine per pair (the caller guarantees a unit-cost option set).
  score_precision precision = score_precision::auto_select;
  /// Padding-waste cap (percent) for ragged chunks: a mixed-length group
  /// is lane-padded to its chunk-max shape while the padded-cell
  /// overhead stays within this fraction of the padded chunk; 0 disables
  /// lane padding (mixed-length groups roll scalar, the pre-ragged
  /// behavior).
  int pad_waste_cap_pct = 25;
  /// Per-worker arenas for the multi-threaded fan-out (one per thread).
  /// When empty (direct instantiation), the engine pools its own.
  std::span<workspace> worker_ws{};
};

/// Statistics for tests/benches: how much work took which path.  The
/// struct itself is the shared-baseline `anyseq::batch_stats`
/// (core/result.hpp) — it crosses the engine::ops dispatch boundary.
using batch_stats = ::anyseq::batch_stats;

/// Arena bytes one narrow chunk pass carves (h + e + subject-char rows).
template <class E, int W>
[[nodiscard]] inline std::size_t narrow_chunk_plan_bytes(index_t m) noexcept {
  return 3 * carve_bytes<simd::pack<E, W>>(static_cast<std::size_t>(m + 1));
}

/// Relax one uniform chunk of `W` equal-shape (n x m) pairs with score
/// element type E, calling `sink(pair_index, result)` for every lane that
/// completed safely.  Returns a bitmask of lanes the caller must escalate
/// to the int32 rolling engine (always 0 when !Checked — the caller has
/// proven the worst-case bound fits E).
///
/// `live < W` runs a sub-width *tail*: only pairs [lo, lo + live) exist,
/// the dead lanes replay the last live pair (so every lane relaxes real,
/// in-window characters), and their results never reach `sink`.
///
/// Checked mode maintains a sticky per-lane mask: a lane is flagged the
/// moment any H value (or, for affine gaps, any E/F value) leaves the
/// window [sentinel + step, max(E) - step].  Inside that window every
/// saturating add is exact (its operands are at least one `step` away
/// from both rails), so by induction an unflagged lane never clamped and
/// its score is exact; everything else is shed.  Lane-uniform hazards —
/// boundary inits outside the window, end-cell indices that do not fit
/// E, a step wider than the window itself — escalate the whole chunk
/// upfront.
template <align_kind K, class E, int W, bool Checked, class Gap,
          class Scoring, class Pair, class Sink>
std::uint64_t narrow_chunk_score(std::span<const Pair> pairs, std::size_t lo,
                                 index_t n, index_t m, const Gap& gap,
                                 const Scoring& scoring, workspace& ws,
                                 Sink&& sink, int live = W) {
  using P = simd::pack<E, W>;
  constexpr E kSentinel = sizeof(E) == 1 ? static_cast<E>(neg_inf8())
                                         : static_cast<E>(neg_inf16());
  constexpr score_t kMax = std::numeric_limits<E>::max();
  const std::uint64_t all =
      live >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << live) - 1);
  const score_t step = unit_step(gap, scoring);
  const score_t hi_w = kMax - step;
  const score_t lo_w = static_cast<score_t>(kSentinel) + step;

  if constexpr (Checked) {
    if (hi_w < lo_w) return all;  // step wider than the usable window
    const score_t bmin =
        std::min(std::min(init_h_row0<K>(index_t{0}, gap),
                          init_h_row0<K>(m, gap)),
                 std::min(init_h_col0<K>(index_t{0}, gap),
                          init_h_col0<K>(n, gap)));
    if (bmin < lo_w) return all;  // boundary already in the shed zone
    if constexpr (K != align_kind::global)
      if (n > kMax || m > kMax) return all;  // lane-typed end indices
  }
  const auto lane_pair = [&](int l) -> const Pair& {
    return pairs[lo + static_cast<std::size_t>(l < live ? l : live - 1)];
  };

  workspace::frame fr(ws);
  auto h = ws.make<P>(static_cast<std::size_t>(m + 1));
  auto e = ws.make<P>(static_cast<std::size_t>(m + 1),
                      P::broadcast(kSentinel));
  auto schars = ws.make<P>(static_cast<std::size_t>(m + 1));

  for (index_t j = 0; j <= m; ++j) {
    h[j] = P::broadcast(static_cast<E>(init_h_row0<K>(j, gap)));
    P sv = P::broadcast(0);
    if (j > 0) {
      for (int l = 0; l < W; ++l)
        sv.v[l] = static_cast<E>(lane_pair(l).s[j - 1]);
    }
    schars[j] = sv;
  }

  P sticky = P::broadcast(0);
  P hi_p = P::broadcast(0), lo_p = P::broadcast(0);
  if constexpr (Checked) {
    hi_p = P::broadcast(static_cast<E>(hi_w));
    lo_p = P::broadcast(static_cast<E>(lo_w));
  }

  P best_v = P::broadcast(kSentinel);
  P best_i = P::broadcast(0), best_j = P::broadcast(0);
  if constexpr (K == align_kind::semiglobal ||
                K == align_kind::extension) {
    // Row-0 boundary candidates: (0, m) for semiglobal, all j for
    // extension (gap totals <= 0 make (0,0) = 0 the best boundary, but
    // track exactly anyway).
    if constexpr (K == align_kind::semiglobal) {
      best_v = h[m];
      best_j = P::broadcast(static_cast<E>(m));
    } else {
      best_v = P::broadcast(0);
    }
  } else if constexpr (K == align_kind::local) {
    best_v = P::broadcast(0);
  }

  for (index_t i = 1; i <= n; ++i) {
    P qc;
    for (int l = 0; l < W; ++l)
      qc.v[l] = static_cast<E>(lane_pair(l).q[i - 1]);
    P diag = h[0];
    h[0] = P::broadcast(static_cast<E>(init_h_col0<K>(i, gap)));
    P f = P::broadcast(kSentinel);
    const P row_i = P::broadcast(static_cast<E>(i));

    for (index_t j = 1; j <= m; ++j) {
      const prev_cells<P> prev{diag, h[j], h[j - 1], e[j], f};
      const auto nx =
          relax<K, false, P, P, P>(prev, qc, schars[j], gap, scoring);
      diag = h[j];
      h[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
      if constexpr (Checked) {
        // High rail: only H grows (gap penalties are <= 0, so E/F never
        // exceed their H sources).  Low rail: any value near the
        // sentinel may have clamped — for affine gaps E/F are carried
        // across cells and must be watched too; for linear gaps they
        // are consumed into this H immediately.
        P bad = vgt(nx.h, hi_p);
        bad = vor(bad, vgt(lo_p, nx.h));
        if constexpr (Gap::kind == gap_kind::affine) {
          bad = vor(bad, vgt(lo_p, nx.e));
          bad = vor(bad, vgt(lo_p, nx.f));
        }
        sticky = vor(sticky, bad);
      }
      if constexpr (tracks_running_max(K)) {
        const auto better = vgt(nx.h, best_v);
        best_v = vselect(better, nx.h, best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
    }
    if constexpr (K == align_kind::semiglobal) {
      const auto better = vgt(h[m], best_v);
      best_v = vselect(better, h[m], best_v);
      best_i = vselect(better, row_i, best_i);
      best_j = vselect(better, P::broadcast(static_cast<E>(m)), best_j);
    }
  }

  if constexpr (K == align_kind::semiglobal) {
    const P row_n = P::broadcast(static_cast<E>(n));
    for (index_t j = 0; j <= m; ++j) {
      const auto better = vgt(h[j], best_v);
      best_v = vselect(better, h[j], best_v);
      best_i = vselect(better, row_n, best_i);
      best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
    }
  }

  std::uint64_t esc = 0;
  if constexpr (Checked) {
    for (int l = 0; l < live; ++l)
      if (sticky.v[l] != 0) esc |= std::uint64_t{1} << l;
  }
  for (int l = 0; l < live; ++l) {
    if ((esc >> l) & 1) continue;
    score_result r;
    r.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
    if constexpr (K == align_kind::global) {
      r.score = h[m].v[l];
      r.end_i = n;
      r.end_j = m;
    } else {
      r.score = best_v.v[l];
      r.end_i = best_i.v[l];
      r.end_j = best_j.v[l];
    }
    sink(lo + static_cast<std::size_t>(l), r);
  }
  return esc;
}

/// Arena bytes one ragged (lane-padded) chunk pass carves: the three
/// narrow rows plus the per-column validity and last-column masks.
template <class E, int W>
[[nodiscard]] inline std::size_t ragged_chunk_plan_bytes(index_t m) noexcept {
  return 5 * carve_bytes<simd::pack<E, W>>(static_cast<std::size_t>(m + 1));
}

/// Relax one *ragged* chunk of `W` non-empty pairs lane-padded to the
/// chunk-max shape (nbar x mbar), with each lane's true shape (n_l, m_l)
/// read from its pair.  Calls `sink(pair_index, result)` for every lane
/// that completed safely; returns the bitmask of lanes to escalate,
/// exactly like narrow_chunk_score.
///
/// Correctness of padding: a DP cell (i, j) reads only cells with
/// smaller indices and the lane-uniform boundary inits, so lane l's
/// valid region (i <= n_l, j <= m_l) is computed from real characters
/// only; cells beyond it hold garbage that no valid cell ever reads
/// (saturating adds keep the garbage clamped, never wrapped into UB).
/// Each lane's result is captured at its own boundary — "retirement"
/// after row i == n_l, before the padded rows beyond can touch anything:
///   * global: h[m_l] at retirement is exactly H(n_l, m_l).
///   * local/extension: the per-cell running max is masked to
///     colmask[j] & alive, so the candidate visit order over *valid*
///     cells is row-major — identical to rolling_score's, strict-> ties
///     included.
///   * semiglobal: last-column candidates fire per cell under the
///     colend[j] mask (the lane whose subject ends at column j), the
///     row-0 candidate is seeded per lane at (0, m_l), and the final-row
///     sweep runs j-ascending at retirement — rolling_score's exact
///     candidate order.
/// Checked mode masks the sticky overflow test to colmask[j] & alive, so
/// clamped garbage in the padded region never sheds a healthy lane; the
/// lane-uniform upfront bails are judged on (nbar, mbar), which is
/// conservative (never admits an unsafe lane).
template <align_kind K, class E, int W, bool Checked, class Gap,
          class Scoring, class Pair, class Sink>
std::uint64_t ragged_chunk_score(std::span<const Pair> pairs, std::size_t lo,
                                 index_t nbar, index_t mbar, const Gap& gap,
                                 const Scoring& scoring, workspace& ws,
                                 Sink&& sink) {
  using P = simd::pack<E, W>;
  constexpr E kSentinel = sizeof(E) == 1 ? static_cast<E>(neg_inf8())
                                         : static_cast<E>(neg_inf16());
  constexpr score_t kMax = std::numeric_limits<E>::max();
  const std::uint64_t all =
      W >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << W) - 1);
  const score_t step = unit_step(gap, scoring);
  const score_t hi_w = kMax - step;
  const score_t lo_w = static_cast<score_t>(kSentinel) + step;

  if constexpr (Checked) {
    if (hi_w < lo_w) return all;  // step wider than the usable window
    const score_t bmin =
        std::min(std::min(init_h_row0<K>(index_t{0}, gap),
                          init_h_row0<K>(mbar, gap)),
                 std::min(init_h_col0<K>(index_t{0}, gap),
                          init_h_col0<K>(nbar, gap)));
    if (bmin < lo_w) return all;  // boundary already in the shed zone
    if constexpr (K != align_kind::global)
      if (nbar > kMax || mbar > kMax) return all;  // lane-typed indices
  }

  index_t nl[W], ml[W];
  for (int l = 0; l < W; ++l) {
    nl[l] = pairs[lo + static_cast<std::size_t>(l)].q.size();
    ml[l] = pairs[lo + static_cast<std::size_t>(l)].s.size();
  }

  workspace::frame fr(ws);
  auto h = ws.make<P>(static_cast<std::size_t>(mbar + 1));
  auto e = ws.make<P>(static_cast<std::size_t>(mbar + 1),
                      P::broadcast(kSentinel));
  auto schars = ws.make<P>(static_cast<std::size_t>(mbar + 1));
  auto colmask = ws.make<P>(static_cast<std::size_t>(mbar + 1));
  auto colend = ws.make<P>(static_cast<std::size_t>(mbar + 1));

  for (index_t j = 0; j <= mbar; ++j) {
    h[j] = P::broadcast(static_cast<E>(init_h_row0<K>(j, gap)));
    P sv = P::broadcast(0);
    P cm = P::broadcast(0);
    for (int l = 0; l < W; ++l) {
      if (j <= ml[l]) {
        cm.v[l] = static_cast<E>(-1);
        if (j > 0)
          sv.v[l] = static_cast<E>(
              pairs[lo + static_cast<std::size_t>(l)].s[j - 1]);
      }
    }
    schars[j] = sv;
    colmask[j] = cm;
  }
  // colend[j]: lanes whose subject ends exactly at column j (the
  // column-side retirement boundary).
  for (index_t j = 0; j < mbar; ++j)
    colend[j] = vandnot(colmask[j], colmask[j + 1]);
  colend[mbar] = colmask[mbar];

  P sticky = P::broadcast(0);
  P hi_p = P::broadcast(0), lo_p = P::broadcast(0);
  if constexpr (Checked) {
    hi_p = P::broadcast(static_cast<E>(hi_w));
    lo_p = P::broadcast(static_cast<E>(lo_w));
  }

  // Per-lane bests, initialized exactly as rolling_score initializes
  // them — per lane at that lane's true shape.
  P best_v = P::broadcast(kSentinel);
  P best_i = P::broadcast(0), best_j = P::broadcast(0);
  if constexpr (K == align_kind::semiglobal) {
    for (int l = 0; l < W; ++l) {
      best_v.v[l] = static_cast<E>(init_h_row0<K>(ml[l], gap));
      best_j.v[l] = static_cast<E>(ml[l]);
    }
  } else if constexpr (tracks_running_max(K)) {
    best_v = P::broadcast(0);  // boundary totals are <= 0 (see narrow)
  }

  P alive = P::broadcast(static_cast<E>(-1));  // lanes with i <= n_l

  std::uint64_t esc = 0;
  for (index_t i = 1; i <= nbar; ++i) {
    P qc = P::broadcast(0);
    for (int l = 0; l < W; ++l)
      if (i <= nl[l])
        qc.v[l] = static_cast<E>(
            pairs[lo + static_cast<std::size_t>(l)].q[i - 1]);
    P diag = h[0];
    h[0] = P::broadcast(static_cast<E>(init_h_col0<K>(i, gap)));
    P f = P::broadcast(kSentinel);
    const P row_i = P::broadcast(static_cast<E>(i));

    for (index_t j = 1; j <= mbar; ++j) {
      const prev_cells<P> prev{diag, h[j], h[j - 1], e[j], f};
      const auto nx =
          relax<K, false, P, P, P>(prev, qc, schars[j], gap, scoring);
      diag = h[j];
      h[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
      if constexpr (Checked) {
        P bad = vgt(nx.h, hi_p);
        bad = vor(bad, vgt(lo_p, nx.h));
        if constexpr (Gap::kind == gap_kind::affine) {
          bad = vor(bad, vgt(lo_p, nx.e));
          bad = vor(bad, vgt(lo_p, nx.f));
        }
        // Only a lane's own valid region may shed it — padded cells
        // clamp freely and harmlessly.
        sticky = vor(sticky, vand(bad, vand(colmask[j], alive)));
      }
      if constexpr (tracks_running_max(K)) {
        const auto better =
            vand(vgt(nx.h, best_v), vand(colmask[j], alive));
        best_v = vselect(better, nx.h, best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
      if constexpr (K == align_kind::semiglobal) {
        // Last-column candidate of the lane whose subject ends at j —
        // the same visit point as rolling_score's per-row h[m] check.
        const auto better =
            vand(vgt(nx.h, best_v), vand(colend[j], alive));
        best_v = vselect(better, nx.h, best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
    }

    // Retirement: lanes whose query ends at this row capture their
    // result before the padded rows beyond n_l can touch anything.
    for (int l = 0; l < W; ++l) {
      if (nl[l] != i) continue;
      alive.v[l] = 0;
      if (Checked && sticky.v[l] != 0) {
        esc |= std::uint64_t{1} << l;
        continue;
      }
      score_result r;
      r.cells = static_cast<std::uint64_t>(nl[l]) *
                static_cast<std::uint64_t>(ml[l]);
      if constexpr (K == align_kind::global) {
        r.score = h[ml[l]].v[l];
        r.end_i = nl[l];
        r.end_j = ml[l];
      } else if constexpr (K == align_kind::semiglobal) {
        // Final-row sweep, j ascending with strict >, exactly as
        // rolling_score orders its last-row candidates.
        E bv = best_v.v[l];
        index_t bi = best_i.v[l], bj = best_j.v[l];
        for (index_t j = 0; j <= ml[l]; ++j) {
          if (h[j].v[l] > bv) {
            bv = h[j].v[l];
            bi = nl[l];
            bj = j;
          }
        }
        r.score = bv;
        r.end_i = bi;
        r.end_j = bj;
      } else {
        r.score = best_v.v[l];
        r.end_i = best_i.v[l];
        r.end_j = best_j.v[l];
      }
      sink(lo + static_cast<std::size_t>(l), r);
    }
  }
  return esc;
}

template <align_kind K, class Gap, class Scoring, int Lanes>
class batch_engine {
 public:
  /// int8 runs twice the lanes of the 16-bit kernel on the same vector
  /// width (and stays width 1 on the scalar variant).
  static constexpr int kLanes8 = Lanes > 1 ? 2 * Lanes : 1;
  /// Fewest live pairs a sub-width uniform tail needs to run as one
  /// lane-padded chunk instead of running each pair through the striped
  /// kernel (`lone_pair`).  A padded chunk costs the same whatever its
  /// live count, so the tail pays off once c striped pairs cost more than
  /// one chunk.  Measured on one thread (Xeon with AVX-512BW, GCC 12),
  /// gap open -2 / extend -1 or linear -1, match 2 / mismatch -1; break-
  /// even c = chunk / striped pair:
  ///
  ///   | lanes | gaps   | 100 x 100 | 150 x 150            | 250 x 250 |
  ///   |-------|--------|-----------|----------------------|-----------|
  ///   | 32    | linear | 11 - 15   | 14 - 20 (146 / 7.2)  | 18 - 26   |
  ///   | 32    | affine | 21 - 24   | 27 - 29 (231 / 8.1)  | 34 - 37   |
  ///   | 16    | either | 22 - 36   | 27 - 42 (402 / 10.3) | 32 - 53   |
  ///
  /// (ranges over global, local and semiglobal; the bracket is the
  /// global chunk / pair cost in us).  So 32 lanes need 20 live pairs
  /// with linear gaps and 28 with affine gaps, and a 16-lane tail never
  /// pays: a full AVX2 chunk already costs more than 16 striped pairs,
  /// so its floor is the lane count and the tail branch stays shut.
  static constexpr int kTailMinLive =
      Lanes >= 32 ? (Gap::kind == gap_kind::affine ? 28 : 20) : Lanes;

  batch_engine(Gap gap, Scoring scoring, batch_config cfg = {})
      : gap_(gap), scoring_(scoring), cfg_(cfg) {
    if (cfg_.threads < 1)
      throw invalid_argument_error("threads must be >= 1");
  }

  /// Score every pair into caller-sized `out` (order preserved),
  /// carving chunk scratch from `ws` when running single-threaded.
  template <class Pair>
  void score_into(std::span<const Pair> pairs, workspace& ws,
                  std::span<score_result> out) {
    ANYSEQ_CHECK(out.size() == pairs.size(),
                 "score_into: out must have one slot per pair");
    run(pairs, &ws,
        [&out](std::size_t idx, const score_result& r) { out[idx] = r; });
  }

  /// Align every pair with traceback into caller-sized `out` (order
  /// preserved), recycling each slot's string capacity.
  template <class Pair>
  void align_into(std::span<const Pair> pairs, workspace& ws,
                  std::span<alignment_result> out) {
    ANYSEQ_CHECK(out.size() == pairs.size(),
                 "align_into: out must have one slot per pair");
    stats_ = {};
    const auto count = static_cast<index_t>(pairs.size());
    if (cfg_.threads <= 1 || count <= 1) {
      full_engine<K, Gap, Scoring> eng(gap_, scoring_);
      for (index_t i = 0; i < count; ++i)
        eng.align_into(pairs[static_cast<std::size_t>(i)].q,
                       pairs[static_cast<std::size_t>(i)].s, true, ws,
                       out[static_cast<std::size_t>(i)]);
      stats_.scalar_pairs = static_cast<std::uint64_t>(count);
      return;
    }
    parallel::thread_pool pool(cfg_.threads);
    pool.parallel_for(0, count, [&](index_t i) {
      full_engine<K, Gap, Scoring> eng(gap_, scoring_);
      out[static_cast<std::size_t>(i)] =
          eng.align(pairs[static_cast<std::size_t>(i)].q,
                    pairs[static_cast<std::size_t>(i)].s, true);
    });
    stats_.scalar_pairs = static_cast<std::uint64_t>(count);
  }

  /// Score every pair (order preserved).
  [[nodiscard]] std::vector<score_t> scores(std::span<const pair_view> pairs) {
    std::vector<score_t> out(pairs.size());
    own_ws_.begin_pass();
    run(pairs, &own_ws_, [&](std::size_t idx, const score_result& r) {
      out[idx] = r.score;
    });
    return out;
  }

  /// Score every pair, keeping the full score_result — the optimum's end
  /// cell and cell count included (order preserved).  This is what the
  /// public `align_batch` score path uses so its results carry the same
  /// end coordinates as a per-pair `align` call.
  [[nodiscard]] std::vector<score_result> score_results(
      std::span<const pair_view> pairs) {
    std::vector<score_result> out(pairs.size());
    own_ws_.begin_pass();
    score_into(std::span<const pair_view>(pairs), own_ws_,
               std::span<score_result>(out));
    return out;
  }

  /// Align every pair with traceback (order preserved).
  [[nodiscard]] std::vector<alignment_result> align_all(
      std::span<const pair_view> pairs) {
    std::vector<alignment_result> out(pairs.size());
    own_ws_.begin_pass();
    align_into(std::span<const pair_view>(pairs), own_ws_,
               std::span<alignment_result>(out));
    return out;
  }

  [[nodiscard]] batch_stats last_stats() const noexcept { return stats_; }

 private:
  /// How one group of consecutive pairs executes.
  struct chunk_plan {
    std::size_t hi;        ///< group end (exclusive)
    score_precision prec;  ///< int8/int16 = narrow kernel at full width,
                           ///< bitpar = per pair, int32 = one pair at a
                           ///< time (striped or rolling, see lone_pair)
    bool ragged = false;   ///< lane-padded kernel at (nbar x mbar)
    index_t nbar = 0, mbar = 0;  ///< padded chunk-max shape (ragged only)
  };

  /// Decide the widest/narrowest execution for the group starting at
  /// `lo`: a full uniform group at the narrow width when the (possibly
  /// forced) precision allows it; a lane-padded *ragged* group when the
  /// shapes differ but the padding waste stays within the cap; under
  /// auto, a sub-width uniform *tail* of the last c >= kTailMinLive
  /// pairs; otherwise the per-pair fallback (`lone_pair`) over the
  /// classic Lanes-wide stride.  Deterministic in (pairs, lo) alone —
  /// the MT fan-out relies on workers re-deriving identical boundaries.
  template <class Pair>
  [[nodiscard]] chunk_plan group_plan(std::span<const Pair> pairs,
                                      std::size_t lo) const {
    const std::size_t tail =
        std::min(pairs.size(), lo + static_cast<std::size_t>(Lanes));
    if (cfg_.precision == score_precision::bitpar)
      return {lo + 1, score_precision::bitpar};
    if (cfg_.precision == score_precision::int32)
      return {tail, score_precision::int32};
    const index_t n = pairs[lo].q.size(), m = pairs[lo].s.size();
    const auto uniform = [&](std::size_t w) {
      if (n <= 0 || m <= 0 || lo + w > pairs.size()) return false;
      for (std::size_t i = lo; i < lo + w; ++i)
        if (pairs[i].q.size() != n || pairs[i].s.size() != m) return false;
      return true;
    };
    // Ragged admission: w consecutive non-empty pairs, padded to the
    // chunk-max shape, admitted while the padding waste
    // sum(nbar*mbar - n_l*m_l) stays within pad_waste_cap_pct percent of
    // the padded chunk w*nbar*mbar.  The cap is a policy, not the
    // break-even: from the chunk and striped-pair costs at kTailMinLive,
    // a padded 32-lane chunk beats striping its lanes one by one up to
    // ~35% waste with linear gaps but only ~10% with affine gaps, and a
    // padded 16-lane chunk never does (against int32 rolling the
    // break-evens were ~90% waste on 32 lanes and ~70% on 16).
    const auto ragged_shape = [&](std::size_t w, index_t& nb, index_t& mb) {
      if (cfg_.pad_waste_cap_pct <= 0 || lo + w > pairs.size())
        return false;
      nb = 0;
      mb = 0;
      std::uint64_t used = 0;
      for (std::size_t i = lo; i < lo + w; ++i) {
        const index_t ni = pairs[i].q.size(), mi = pairs[i].s.size();
        if (ni <= 0 || mi <= 0) return false;
        nb = std::max(nb, ni);
        mb = std::max(mb, mi);
        used += static_cast<std::uint64_t>(ni) *
                static_cast<std::uint64_t>(mi);
      }
      const std::uint64_t padded = static_cast<std::uint64_t>(w) *
                                   static_cast<std::uint64_t>(nb) *
                                   static_cast<std::uint64_t>(mb);
      return (padded - used) * 100 <=
             padded * static_cast<std::uint64_t>(cfg_.pad_waste_cap_pct);
    };
    index_t nb = 0, mb = 0;
    if (cfg_.precision == score_precision::int8) {
      if (uniform(static_cast<std::size_t>(kLanes8)))
        return {lo + kLanes8, score_precision::int8};
      if (ragged_shape(static_cast<std::size_t>(kLanes8), nb, mb))
        return {lo + kLanes8, score_precision::int8, true, nb, mb};
      return {tail, score_precision::int32};
    }
    if (cfg_.precision == score_precision::int16) {
      if (uniform(static_cast<std::size_t>(Lanes)))
        return {lo + Lanes, score_precision::int16};
      if (ragged_shape(static_cast<std::size_t>(Lanes), nb, mb))
        return {lo + Lanes, score_precision::int16, true, nb, mb};
      return {tail, score_precision::int32};
    }
    // auto_select at one lane: the narrow kernels only emulate lanes
    // there and run at ~0.5x the int32 rolling engine, so auto rolls.
    if constexpr (Lanes == 1) return {tail, score_precision::int32};
    // auto_select: narrowest element type whose worst-case bound fits
    // AND that can fill all its lanes — exactly-uniform groups first
    // (no masking overhead), lane-padded ragged groups second (the
    // bound is judged on the padded shape, so the unchecked kernel
    // stays provably exact for every lane).
    const score_t unit = unit_step(gap_, scoring_);
    if (fits_score_window(n, m, unit, int8_score_window()) &&
        uniform(static_cast<std::size_t>(kLanes8)))
      return {lo + kLanes8, score_precision::int8};
    if (fits_score_window(n, m, unit, int16_score_window()) &&
        uniform(static_cast<std::size_t>(Lanes)))
      return {lo + Lanes, score_precision::int16};
    if (ragged_shape(static_cast<std::size_t>(kLanes8), nb, mb) &&
        fits_score_window(nb, mb, unit, int8_score_window()))
      return {lo + kLanes8, score_precision::int8, true, nb, mb};
    if (ragged_shape(static_cast<std::size_t>(Lanes), nb, mb) &&
        fits_score_window(nb, mb, unit, int16_score_window()))
      return {lo + Lanes, score_precision::int16, true, nb, mb};
    // Sub-width uniform tail: the last c < Lanes pairs run as one
    // lane-padded narrow chunk (dead lanes replay a live pair) once c
    // reaches kTailMinLive — see narrow_group; below it they go striped.
    const std::size_t left = pairs.size() - lo;
    if (left < static_cast<std::size_t>(Lanes) &&
        left >= static_cast<std::size_t>(kTailMinLive) && uniform(left)) {
      if (fits_score_window(n, m, unit, int8_score_window()))
        return {pairs.size(), score_precision::int8};
      if (fits_score_window(n, m, unit, int16_score_window()))
        return {pairs.size(), score_precision::int16};
    }
    return {tail, score_precision::int32};
  }

  template <class Pair, class Sink>
  void run(std::span<const Pair> pairs, workspace* ws, Sink&& sink) {
    stats_ = {};
    if (pairs.empty()) return;
    if (cfg_.threads <= 1 ||
        pairs.size() <= static_cast<std::size_t>(Lanes)) {
      // Serial: every group carves from the caller's arena.
      std::size_t lo = 0;
      while (lo < pairs.size()) {
        const chunk_plan g = group_plan(pairs, lo);
        process_group(pairs, lo, g, ws, sink, stats_);
        lo = g.hi;
      }
      return;
    }
    // Multi-threaded: workers claim groups off a shared cursor by CAS.
    // `group_plan` is a deterministic function of (pairs, lo), so a lost
    // race just re-derives the winner's boundary and moves on — no
    // boundary vector, no per-chunk workspace: each worker carves every
    // group from one pooled arena (caller-provided or engine-owned),
    // which regrows to its high-water mark once and then stays warm.
    const std::size_t want =
        (pairs.size() + static_cast<std::size_t>(Lanes) - 1) /
        static_cast<std::size_t>(Lanes);
    const auto workers = static_cast<index_t>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.threads), want));
    std::span<workspace> pool_ws = cfg_.worker_ws;
    if (pool_ws.size() < static_cast<std::size_t>(workers)) {
      if (own_worker_ws_.size() < static_cast<std::size_t>(workers))
        own_worker_ws_.resize(static_cast<std::size_t>(workers));
      pool_ws = std::span<workspace>(own_worker_ws_);
    }
    std::atomic<std::size_t> cursor{0};
    std::mutex stats_mutex;
    parallel::thread_pool::global().parallel_for(
        0, workers,
        [&](index_t t) {
          workspace& wws = pool_ws[static_cast<std::size_t>(t)];
          wws.begin_pass();
          batch_stats local{};
          std::size_t lo = cursor.load(std::memory_order_relaxed);
          while (lo < pairs.size()) {
            const chunk_plan g = group_plan(pairs, lo);
            if (cursor.compare_exchange_weak(lo, g.hi,
                                             std::memory_order_relaxed)) {
              process_group(pairs, lo, g, &wws, sink, local);
              lo = g.hi;
            }
          }
          std::lock_guard lock(stats_mutex);
          stats_.simd_pairs += local.simd_pairs;
          stats_.scalar_pairs += local.scalar_pairs;
          stats_.int8_pairs += local.int8_pairs;
          stats_.int16_pairs += local.int16_pairs;
          stats_.bitpar_pairs += local.bitpar_pairs;
          stats_.escalated_pairs += local.escalated_pairs;
          stats_.ragged_pairs += local.ragged_pairs;
          stats_.striped_pairs += local.striped_pairs;
          stats_.padded_cells += local.padded_cells;
        },
        /*chunks_per_thread=*/1);
  }

  template <class Pair, class Sink>
  void process_group(std::span<const Pair> pairs, std::size_t lo,
                     const chunk_plan& g, workspace* ws, Sink& sink,
                     batch_stats& stats) {
    switch (g.prec) {
      case score_precision::int8:
        if (g.ragged)
          ragged_group<score8_t, kLanes8>(pairs, lo, g, *ws, sink, stats);
        else
          narrow_group<score8_t, kLanes8>(pairs, lo, g.hi, *ws, sink, stats);
        return;
      case score_precision::int16:
        if (g.ragged)
          ragged_group<score16_t, Lanes>(pairs, lo, g, *ws, sink, stats);
        else
          narrow_group<score16_t, Lanes>(pairs, lo, g.hi, *ws, sink, stats);
        return;
      case score_precision::bitpar:
        bitpar_pair(pairs, lo, *ws, sink, stats);
        return;
      default:
        for (std::size_t i = lo; i < g.hi; ++i)
          lone_pair(pairs, i, *ws, sink, stats);
        return;
    }
  }

  /// One uniform group through the narrow kernel; flagged lanes are
  /// shed to the rolling engine in the same workspace pass.  auto mode
  /// proved the bound, so it runs unchecked; a forced precision runs the
  /// checked kernel.  A group shorter than W is an auto-mode tail: its
  /// W - live dead lanes relax real cells that no result uses, so they
  /// count as padding.
  template <class E, int W, class Pair, class Sink>
  void narrow_group(std::span<const Pair> pairs, std::size_t lo,
                    std::size_t hi, workspace& ws, Sink& sink,
                    batch_stats& stats) {
    const index_t n = pairs[lo].q.size(), m = pairs[lo].s.size();
    const int live = static_cast<int>(hi - lo);
    std::uint64_t esc = 0;
    if (cfg_.precision == score_precision::auto_select)
      esc = narrow_chunk_score<K, E, W, false>(pairs, lo, n, m, gap_,
                                               scoring_, ws, sink, live);
    else
      esc = narrow_chunk_score<K, E, W, true>(pairs, lo, n, m, gap_,
                                              scoring_, ws, sink, live);
    const auto shed = static_cast<std::uint64_t>(std::popcount(esc));
    const std::uint64_t ok = static_cast<std::uint64_t>(live) - shed;
    (sizeof(E) == 1 ? stats.int8_pairs : stats.int16_pairs) += ok;
    if constexpr (W > 1) stats.simd_pairs += ok;
    stats.padded_cells += static_cast<std::uint64_t>(W - live) *
                          static_cast<std::uint64_t>(n) *
                          static_cast<std::uint64_t>(m);
    for (int l = 0; l < live; ++l) {
      if (!((esc >> l) & 1)) continue;
      const std::size_t i = lo + static_cast<std::size_t>(l);
      sink(i, rolling_score<K>(pairs[i].q, pairs[i].s, gap_, scoring_, ws));
      ++stats.escalated_pairs;
      ++stats.scalar_pairs;
    }
  }

  /// One mixed-length group through the lane-padded kernel at the padded
  /// shape (g.nbar x g.mbar); each lane retires at its own true boundary.
  /// Same checked/unchecked split as `narrow_group` — auto mode proved
  /// the bound on the *padded* shape (which dominates every lane), so it
  /// runs unchecked; a forced precision runs the checked kernel and
  /// sheds flagged lanes to the rolling engine in the same pass.
  template <class E, int W, class Pair, class Sink>
  void ragged_group(std::span<const Pair> pairs, std::size_t lo,
                    const chunk_plan& g, workspace& ws, Sink& sink,
                    batch_stats& stats) {
    std::uint64_t esc = 0;
    if (cfg_.precision == score_precision::auto_select)
      esc = ragged_chunk_score<K, E, W, false>(pairs, lo, g.nbar, g.mbar,
                                               gap_, scoring_, ws, sink);
    else
      esc = ragged_chunk_score<K, E, W, true>(pairs, lo, g.nbar, g.mbar,
                                              gap_, scoring_, ws, sink);
    const auto shed = static_cast<std::uint64_t>(std::popcount(esc));
    const std::uint64_t ok = static_cast<std::uint64_t>(W) - shed;
    (sizeof(E) == 1 ? stats.int8_pairs : stats.int16_pairs) += ok;
    if constexpr (W > 1) {
      stats.simd_pairs += ok;
      stats.ragged_pairs += ok;
    }
    std::uint64_t used = 0;
    for (int l = 0; l < W; ++l) {
      const auto& p = pairs[lo + static_cast<std::size_t>(l)];
      used += static_cast<std::uint64_t>(p.q.size()) *
              static_cast<std::uint64_t>(p.s.size());
    }
    stats.padded_cells += static_cast<std::uint64_t>(W) *
                              static_cast<std::uint64_t>(g.nbar) *
                              static_cast<std::uint64_t>(g.mbar) -
                          used;
    for (int l = 0; l < W; ++l) {
      if (!((esc >> l) & 1)) continue;
      const std::size_t i = lo + static_cast<std::size_t>(l);
      sink(i, rolling_score<K>(pairs[i].q, pairs[i].s, gap_, scoring_, ws));
      ++stats.escalated_pairs;
      ++stats.scalar_pairs;
    }
  }

  /// One pair of a group the planner could not put on lanes.  Under auto
  /// on a vector variant it runs the intra-pair striped kernel when its
  /// own int16 bound holds; forced int32, the scalar variant, a bound past
  /// the window and empty sequences roll in int32.
  template <class Pair, class Sink>
  void lone_pair(std::span<const Pair> pairs, std::size_t i, workspace& ws,
                 Sink& sink, batch_stats& stats) {
    const auto& p = pairs[i];
    if constexpr (Lanes > 1) {
      if (cfg_.precision == score_precision::auto_select &&
          fits_score_window(p.q.size(), p.s.size(),
                            unit_step(gap_, scoring_),
                            int16_score_window())) {
        sink(i, striped_score<K, Lanes>(p.q, p.s, gap_, scoring_, ws));
        ++stats.int16_pairs;
        ++stats.simd_pairs;
        ++stats.striped_pairs;
        return;
      }
    }
    sink(i, rolling_score<K>(p.q, p.s, gap_, scoring_, ws));
    ++stats.scalar_pairs;
  }

  /// One pair through the bit-parallel engine when this instantiation
  /// can express it (global + linear + simple scoring — the classifier
  /// only hints bitpar for unit-cost option sets, which dispatch to
  /// exactly that instantiation); anything else rolls.
  template <class Pair, class Sink>
  void bitpar_pair(std::span<const Pair> pairs, std::size_t i,
                   workspace& ws, Sink& sink, batch_stats& stats) {
    if constexpr (K == align_kind::global &&
                  Gap::kind == gap_kind::linear &&
                  std::is_same_v<Scoring, simple_scoring>) {
      const auto& p = pairs[i];
      if (p.q.size() > 0 && p.s.size() > 0) {
        sink(i, bitpar_score(p.q, p.s, gap_.extend(), ws));
        ++stats.bitpar_pairs;
        return;
      }
    }
    sink(i, rolling_score<K>(pairs[i].q, pairs[i].s, gap_, scoring_, ws));
    ++stats.scalar_pairs;
  }

  Gap gap_;
  Scoring scoring_;
  batch_config cfg_;
  batch_stats stats_{};
  workspace own_ws_;  ///< backs the one-shot convenience overloads
  /// Engine-pooled per-worker arenas for the multi-threaded fan-out when
  /// the caller did not supply `batch_config::worker_ws`; grown once to
  /// the worker count, then recycled across runs.
  std::vector<workspace> own_worker_ws_;
};

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::batch_config;
using v_scalar::tiled::batch_engine;
using v_scalar::tiled::batch_stats;
using v_scalar::tiled::narrow_chunk_plan_bytes;
using v_scalar::tiled::narrow_chunk_score;
using v_scalar::tiled::pair_view;
using v_scalar::tiled::ragged_chunk_plan_bytes;
using v_scalar::tiled::ragged_chunk_score;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
