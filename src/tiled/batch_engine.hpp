/// \file batch_engine.hpp
/// Inter-sequence SIMD alignment of many short pairs (the paper's second
/// use case: millions of Illumina read pairs).  Lane `l` of every vector
/// instruction processes pair `l` of a chunk; chunks run in parallel on
/// the thread pool.
///
/// One kernel serves every chunk: `ragged_chunk_score` pads each lane to
/// the chunk-max shape (nbar x mbar) and captures every lane's result at
/// its own (n_l, m_l) boundary through per-lane retirement — a uniform
/// chunk is the zero-waste case, a sub-width tail a chunk with dead
/// lanes.  `group_plan` admits a window of pairs as one chunk by a single
/// rule: the padded shape's worst-case bound (n + m + 2) * unit fits the
/// element type (int8 at twice the lane count when |score| <= 96, else
/// int16 below 28000) and the window's cells fill at least `kMinLive`
/// full-shape pairs.  The scalar variant, the int32 reference and
/// unit-cost option sets put no pair on lanes.  Every other pair runs on
/// its own, on the route `engine::classify_route` picks for it at
/// `threads = 1` — the route a one-thread `align` call takes
/// (`score_route`): a batch parallelizes across pairs, never inside one.
/// Every mode returns results byte-identical to the int32 path.  Traceback
/// pairs run the same way, each on its own route under the request's
/// `full_matrix_cells` (`traceback_route`).
///
/// Plan/execute split: when run single-threaded (the service's
/// steady-state configuration on small hosts), every chunk's interleaved
/// rows come from the caller-owned workspace and the `*_into` entry
/// points write into caller-sized storage — zero allocations after
/// warm-up.  Multi-threaded runs (score and traceback alike) pull work
/// off a shared atomic cursor and carve from the caller's per-worker
/// arenas (`batch_config::worker_ws`), so the warm parallel fan-out
/// allocates nothing either.
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

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <type_traits>

#include "core/errors.hpp"
#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/pack.hpp"
#include "tiled/tile_kernel.hpp"
#include "tiled/tiled_engine.hpp"
#include "tiled/tiled_hirschberg.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// One alignment job.
struct pair_view {
  stage::seq_view q, s;
};

struct batch_config {
  int threads = 1;
  /// The request's precision: auto_select resolves per chunk from the
  /// worst-case bound; int32 rolls every pair.
  score_precision precision = score_precision::auto_select;
  /// The caller's per-worker arenas for the multi-threaded fan-out: a
  /// run on `threads > 1` needs one per worker it fans out to (at most
  /// `threads`), else it throws before any pair runs.
  std::span<workspace> worker_ws{};
};

/// Statistics for tests/benches: how much work took which path.  The
/// struct itself is the shared-baseline `anyseq::batch_stats`
/// (core/result.hpp) — it crosses the engine::ops dispatch boundary.
using batch_stats = ::anyseq::batch_stats;

/// Arena bytes one chunk pass carves: the h, e and subject-char rows plus
/// the per-column validity and last-column masks.
template <class E, int W>
[[nodiscard]] inline std::size_t ragged_chunk_plan_bytes(index_t m) noexcept {
  return 5 * carve_bytes<simd::pack<E, W>>(static_cast<std::size_t>(m + 1));
}

/// Relax one chunk of `live <= W` non-empty pairs [lo, lo + live) with
/// score element type E, every lane padded to the chunk-max shape
/// (nbar x mbar) and each lane's true shape (n_l, m_l) read from its
/// pair.  A uniform chunk is the zero-waste case; a sub-width tail's dead
/// lanes l >= live replay the last live pair and never reach `sink`.
/// Calls `sink(pair_index, result)` for every live lane.  The caller has
/// proven fits_score_window(nbar, mbar, unit_step, E's window), so no
/// value of any lane's valid region can saturate.
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
///     colmask[j] (lane l all-ones up to column m_l; a masked lane
///     offers 0, never above its best), so the candidate
///     visit order over *valid* cells is row-major — identical to
///     rolling_score's, strict-> ties included.  (Rows past n_l may move
///     a retired lane's best; nothing reads it.)
///   * semiglobal: after each row, one masked check per distinct m_l
///     offers h[m_l] under colend[m_l] (the lanes whose subject ends
///     there), the row-0 candidate is seeded per lane at (0, m_l), and
///     at retirement one vector sweep runs j-ascending over the final
///     row of the retiring lanes — rolling_score's exact candidate
///     order.
template <align_kind K, class E, int W, class Gap, class Scoring, class Pair,
          class Sink>
ANYSEQ_NOCLONE void ragged_chunk_score(std::span<const Pair> pairs,
                                       std::size_t lo, index_t nbar,
                                       index_t mbar, const Gap& gap,
                                       const Scoring& scoring, workspace& ws,
                                       Sink&& sink, int live = W) {
  using P = simd::pack<E, W>;
  constexpr E kSentinel = sizeof(E) == 1 ? static_cast<E>(neg_inf8())
                                         : static_cast<E>(neg_inf16());
  // The end cell (best_i, best_j) rides in E lanes unchecked.  The
  // caller's window proof gives nbar + mbar + 2 < window (fits_score_window
  // takes unit >= 1), and the window fits E, so every index does too.
  constexpr score_t kWindow =
      sizeof(E) == 1 ? int8_score_window() : int16_score_window();
  static_assert(kWindow <= std::numeric_limits<E>::max(),
                "lane-typed end indices need the score window to fit E");
  ANYSEQ_ASSERT(fits_score_window(nbar, mbar, unit_step(gap, scoring),
                                  kWindow),
                "ragged_chunk_score: the padded shape must fit E's window");

  const char_t* qp[W];
  const char_t* sp[W];
  index_t nl[W], ml[W];
  index_t nmin = nbar, mmin = mbar;
  for (int l = 0; l < W; ++l) {
    const auto& p =
        pairs[lo + static_cast<std::size_t>(std::min(l, live - 1))];
    qp[l] = p.q.data();
    sp[l] = p.s.data();
    nl[l] = p.q.size();
    ml[l] = p.s.size();
    nmin = std::min(nmin, nl[l]);
    mmin = std::min(mmin, ml[l]);
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
        if (j > 0) sv.v[l] = static_cast<E>(sp[l][j - 1]);
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

  // The distinct subject lengths, for the semiglobal last-column checks.
  index_t mdist[W];
  int nd = 0;
  if constexpr (K == align_kind::semiglobal) {
    for (int l = 0; l < W; ++l)
      if (std::find(mdist, mdist + nd, ml[l]) == mdist + nd)
        mdist[nd++] = ml[l];
  }

  // Per-lane bests, initialized exactly as rolling_score initializes
  // them — per lane at that lane's true shape.  Extension's boundary
  // totals are <= 0, so (0, 0) = 0 is its best boundary candidate.
  P best_v = P::broadcast(kSentinel);
  P best_i = P::broadcast(0), best_j = P::broadcast(0);
  if constexpr (K == align_kind::semiglobal) {
    std::array<E, W> v0, j0;
    for (int l = 0; l < W; ++l) {
      v0[l] = static_cast<E>(init_h_row0<K>(ml[l], gap));
      j0[l] = static_cast<E>(ml[l]);
    }
    best_v = P::load(v0.data());
    best_j = P::load(j0.data());
  } else if constexpr (tracks_running_max(K)) {
    best_v = P::broadcast(0);
  }

  for (index_t i = 1; i <= nbar; ++i) {
    // Branch-free gather: a lane past its own query re-reads its last
    // character — padded rows are garbage either way.
    P qc;
    for (int l = 0; l < W; ++l)
      qc.v[l] = static_cast<E>(qp[l][std::min(i, nl[l]) - 1]);
    // The row's loop-carried state — H(i, j - 1), H(i - 1, j - 1) and F —
    // stays in registers: each cell reads h[j] and e[j] once, writes them
    // once, and never re-reads the row it just stored.
    P diag = h[0];
    P left = P::broadcast(static_cast<E>(init_h_col0<K>(i, gap)));
    h[0] = left;
    P f = P::broadcast(kSentinel);
    const P row_i = P::broadcast(static_cast<E>(i));

    for (index_t j = 1; j <= mbar; ++j) {
      const P up = h[j];
      const prev_cells<P> prev{diag, up, left, e[j], f};
      const auto nx =
          relax<K, false, P, P, P>(prev, qc, schars[j], gap, scoring);
      // Copy the cell out member by member before storing it: storing
      // nx's members straight into the rows keeps nx itself in memory
      // (GCC 12: two dead 64-byte stack stores a cell).
      diag = up;
      left = nx.h;
      f = nx.f;
      const P en = nx.e;
      h[j] = left;
      e[j] = en;
      if constexpr (tracks_running_max(K)) {
        // Columns up to min m_l are valid in every lane; beyond it an
        // invalid lane offers 0, which never beats its best (>= 0 from
        // the start).  The value chain is a plain max; the strict-> mask
        // only picks the end cell, keeping rolling_score's row-major
        // tie order.
        P hv = left;
        if (j > mmin) hv = vand(hv, colmask[j]);
        const auto better = vgt(hv, best_v);
        best_v = vmax(hv, best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
    }
    if constexpr (K == align_kind::semiglobal) {
      // Last-column candidate of the lanes whose subject ends at m_l —
      // the same visit point as rolling_score's per-row h[m] check.
      for (int d = 0; d < nd; ++d) {
        const index_t j = mdist[d];
        const auto better = vand(vgt(h[j], best_v), colend[j]);
        best_v = vselect(better, h[j], best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
    }
    if (i < nmin) continue;

    // Retirement: live lanes whose query ends at this row capture their
    // result before the padded rows beyond n_l can touch anything.
    P retiring = P::broadcast(0);
    bool any = false;
    for (int l = 0; l < live; ++l) {
      if (nl[l] != i) continue;
      retiring.v[l] = static_cast<E>(-1);
      any = true;
    }
    if (!any) continue;
    if constexpr (K == align_kind::semiglobal) {
      // Final-row sweep of the retiring lanes, j ascending with strict >,
      // exactly as rolling_score orders its last-row candidates.
      for (index_t j = 0; j <= mbar; ++j) {
        const auto better =
            vand(vgt(h[j], best_v), vand(colmask[j], retiring));
        best_v = vselect(better, h[j], best_v);
        best_i = vselect(better, row_i, best_i);
        best_j = vselect(better, P::broadcast(static_cast<E>(j)), best_j);
      }
    }
    // Lane reads go through one snapshot per retiring row: a lane read
    // by a variable index would pin the bests to the stack (to_array).
    [[maybe_unused]] const auto bv = best_v.to_array();
    [[maybe_unused]] const auto bi = best_i.to_array();
    [[maybe_unused]] const auto bj = best_j.to_array();
    for (int l = 0; l < live; ++l) {
      if (nl[l] != i) continue;
      score_result r;
      r.cells = static_cast<std::uint64_t>(nl[l]) *
                static_cast<std::uint64_t>(ml[l]);
      if constexpr (K == align_kind::global) {
        r.score = h[ml[l]].v[l];
        r.end_i = nl[l];
        r.end_j = ml[l];
      } else {
        r.score = bv[l];
        r.end_i = bi[l];
        r.end_j = bj[l];
      }
      sink(lo + static_cast<std::size_t>(l), r);
    }
  }
}

/// Write a score pass's outcome into a batch slot.  An alignment_result
/// slot is reset (keeping its string capacity) and gets the score, the
/// optimum's end cell and the cell count — exactly what a solo score-only
/// `align` call returns.
inline void put_score(score_result& out, const score_result& r) noexcept {
  out = r;
}
inline void put_score(alignment_result& out, const score_result& r) noexcept {
  out.reset();
  out.score = r.score;
  out.q_end = r.end_i;
  out.s_end = r.end_j;
  out.cells = r.cells;
}

template <align_kind K, class Gap, class Scoring, int Lanes>
class batch_engine {
 public:
  /// int8 runs twice the lanes of the 16-bit kernel on the same vector
  /// width.  The scalar variant runs no padded chunks.
  static constexpr int kLanes8 = 2 * Lanes;

  /// Admission floor of a padded chunk, in full-shape pairs: a window
  /// runs as one chunk iff sum(n_l * m_l) >= kMinLive * nbar * mbar.  A
  /// chunk costs the same whatever its fill (and an int8 chunk of kLanes8
  /// lanes about what an int16 chunk of Lanes lanes costs), while a pair
  /// run on its own through the striped kernel (`lone_pair`) costs in
  /// proportion to its n_l * m_l, so the break-even is chunk cost /
  /// full-shape striped pair cost.  Measured on one thread (Xeon with
  /// AVX-512BW, GCC 12), gap open -2 / extend -1 or linear -1, match 2 /
  /// mismatch -1: the median of ten runs for each of global, local and
  /// semiglobal, shown as the range over the three (DESIGN.md section
  /// 8); the floor is the largest 150 bp break-even, rounded down (on
  /// 16-lane affine, 8.9 against the floor of 9 the first two runs
  /// gave, left there: both routes cost the same at the break-even):
  ///
  ///   | lanes | gaps   | break-even (100/150/250 bp)       | floor |
  ///   |-------|--------|-----------------------------------|-------|
  ///   | 32    | linear | 6.8-8.1 / 8.3-10.6 / 13.1-15.3    | 10    |
  ///   | 32    | affine | 10.4-11.1 / 13.6-14.5 / 16.7-17.6 | 14    |
  ///   | 16    | linear | 5.2-5.8 / 5.9-7.0 / 6.2-7.9       | 7     |
  ///   | 16    | affine | 6.7-7.4 / 7.8-8.9 / 8.3-9.9       | 9     |
  static constexpr int kMinLive =
      Lanes >= 32 ? (Gap::kind == gap_kind::affine ? 14 : 10)
                  : (Gap::kind == gap_kind::affine ? 9 : 7);

  /// `full_matrix_cells` is the request's traceback bound: a traceback
  /// pair past it runs Hirschberg or locate, as under `align`.
  batch_engine(Gap gap, Scoring scoring, batch_config cfg = {},
               index_t full_matrix_cells = align_options{}.full_matrix_cells)
      : gap_(gap), scoring_(scoring), cfg_(cfg) {
    if (cfg_.threads < 1)
      throw invalid_argument_error("threads must be >= 1");
    lone_.kind = K;
    lone_.gap_open = gap.open();
    lone_.gap_extend = gap.extend();
    if constexpr (std::is_same_v<Scoring, simple_scoring>) {
      lone_.match = scoring.match;
      lone_.mismatch = scoring.mismatch;
    } else {
      lone_.matrix = scoring;
    }
    lone_.threads = 1;
    lone_.precision = cfg_.precision;
    lone_.full_matrix_cells = full_matrix_cells;
  }

  /// Score every pair into caller-sized `out` (order preserved),
  /// carving chunk scratch from `ws` when running single-threaded.
  /// `Out` is score_result or alignment_result (see put_score).
  template <class Pair, class Out>
  void score_into(std::span<const Pair> pairs, workspace& ws,
                  std::span<Out> out) {
    ANYSEQ_CHECK(out.size() == pairs.size(),
                 "score_into: out must have one slot per pair");
    run(pairs, ws, [&out](std::size_t idx, const score_result& r) {
      put_score(out[idx], r);
    });
  }

  /// Align every pair with traceback into caller-sized `out` (order
  /// preserved), recycling each slot's string capacity.  Each pair runs
  /// `traceback_route` on the route `classify_route` picks for it alone
  /// at one thread, so its result equals `align`'s; a pair no route runs
  /// (extension past the bound) rejects the batch before any pair runs.
  /// `last_stats()` counts the band-doubled pairs and passes.
  /// Multi-threaded runs claim pairs off a shared cursor, each worker
  /// carving from its `batch_config::worker_ws` arena like the score
  /// path.
  template <class Pair>
  void align_into(std::span<const Pair> pairs, workspace& ws,
                  std::span<alignment_result> out) {
    ANYSEQ_CHECK(out.size() == pairs.size(),
                 "align_into: out must have one slot per pair");
    stats_ = {};
    align_options tb = lone_;
    tb.want_alignment = true;
    const auto route_of = [&tb](const Pair& p) {
      return engine::classify_route(p.q.size(), p.s.size(), tb, Lanes);
    };
    // Checked up front: a pool worker's exception would reach no caller.
    // `peak` is the batch's largest route footprint, `longest` the
    // longest pair a Hirschberg base case can span.
    std::size_t peak = 0, longest = 0;
    for (const auto& p : pairs) {
      const engine::route_kind rt = route_of(p);
      check_traceback_route(rt);
      peak = std::max(peak, traceback_plan_bytes<K, Lanes, Gap, Scoring>(
                                rt, p.q.size(), p.s.size(), tb));
      if (rt != engine::route_kind::full_matrix)
        longest = std::max(longest,
                           static_cast<std::size_t>(p.q.size() + p.s.size()));
    }
    std::atomic<std::size_t> next{0};
    std::mutex stats_mutex;
    const auto align_from = [&](workspace& w) {
      batch_stats local{};
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < pairs.size();
           i = next.fetch_add(1, std::memory_order_relaxed))
        traceback_route<K, Lanes>(route_of(pairs[i]), pairs[i].q, pairs[i].s,
                                  gap_, scoring_, tb, w, out[i], &local);
      std::lock_guard lock(stats_mutex);
      merge(stats_, local);
    };
    if (cfg_.threads <= 1 || pairs.size() <= 1) {
      align_from(ws);
      return;
    }
    fan_out(pairs.size(), [&](workspace& w) {
      // Warm the arena to the batch's largest route, and the builder pool
      // to the two builders a Hirschberg pass leases (its result and a
      // base-case piece), before claiming: a worker that claimed nothing
      // in earlier runs then allocates nothing when it does claim a pair.
      w.reserve_bytes(peak);
      {
        workspace::builder_lease top(w), piece(w);
        piece.get().reserve(longest);
      }
      align_from(w);
    });
  }

  [[nodiscard]] batch_stats last_stats() const noexcept { return stats_; }

 private:
  /// How one group of consecutive pairs executes.
  struct chunk_plan {
    std::size_t hi;        ///< group end (exclusive)
    score_precision prec;  ///< int8/int16 = one padded chunk, int32 = one
                           ///< pair at a time (see lone_pair)
    index_t nbar = 0, mbar = 0;  ///< padded chunk-max shape
  };

  /// Decide how the group starting at `lo` runs.  One rule covers full
  /// chunks, ragged windows and sub-width tails: take the next
  /// min(width, left) pairs — int8 at kLanes8 first, then int16 at Lanes
  /// — and admit them as one padded chunk iff every pair is non-empty,
  /// the bound fits the padded (nbar x mbar) shape (so the kernel stays
  /// exact for every lane), and the fill reaches kMinLive.  Otherwise the
  /// next min(Lanes, left) pairs run one at a time (`lone_pair`).
  /// Deterministic in (pairs, lo) alone — the MT fan-out relies on
  /// workers re-deriving identical boundaries.
  template <class Pair>
  [[nodiscard]] chunk_plan group_plan(std::span<const Pair> pairs,
                                      std::size_t lo) const {
    const std::size_t left = pairs.size() - lo;
    const chunk_plan singles{
        lo + std::min(left, static_cast<std::size_t>(Lanes)),
        score_precision::int32};
    // At one lane the narrow kernels would only emulate lanes, at ~0.5x
    // the int32 rolling engine.  A unit-cost set keeps its lone route.
    if (Lanes == 1 || lone_.precision == score_precision::int32 ||
        engine::bitpar_admissible(lone_))
      return singles;
    const score_t unit = unit_step(gap_, scoring_);
    const auto fill = [&](int width, score_t window, score_precision p,
                          chunk_plan& g) {
      const std::size_t w = std::min(left, static_cast<std::size_t>(width));
      index_t nb = 0, mb = 0;
      std::uint64_t used = 0;
      for (std::size_t i = lo; i < lo + w; ++i) {
        const index_t ni = pairs[i].q.size(), mi = pairs[i].s.size();
        if (ni <= 0 || mi <= 0) return false;
        nb = std::max(nb, ni);
        mb = std::max(mb, mi);
        used += static_cast<std::uint64_t>(ni) *
                static_cast<std::uint64_t>(mi);
      }
      if (!fits_score_window(nb, mb, unit, window)) return false;
      if (used < static_cast<std::uint64_t>(kMinLive) *
                     static_cast<std::uint64_t>(nb) *
                     static_cast<std::uint64_t>(mb))
        return false;
      g = {lo + w, p, nb, mb};
      return true;
    };
    chunk_plan g = singles;
    if (fill(kLanes8, int8_score_window(), score_precision::int8, g) ||
        fill(Lanes, int16_score_window(), score_precision::int16, g))
      return g;
    return singles;
  }

  /// Run `body(arena)` once on each of min(threads, want) workers — the
  /// calling thread and global-pool threads (`parallel_for` lets its
  /// caller claim work) — worker `t` on the caller's arena
  /// `cfg_.worker_ws[t]`, which regrows to its high-water mark once and
  /// then stays warm.  Too few arenas is a caller error, thrown before
  /// any pair runs.
  template <class Body>
  void fan_out(std::size_t want, Body&& body) {
    const auto workers = static_cast<index_t>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.threads), want));
    if (cfg_.worker_ws.size() < static_cast<std::size_t>(workers))
      throw invalid_argument_error(
          "batch_config::worker_ws must hold one arena per worker");
    parallel::thread_pool::global().parallel_for(
        0, workers,
        [&](index_t t) {
          workspace& wws = cfg_.worker_ws[static_cast<std::size_t>(t)];
          wws.begin_pass();
          body(wws);
        },
        /*chunks_per_thread=*/1);
  }

  template <class Pair, class Sink>
  void run(std::span<const Pair> pairs, workspace& ws, Sink&& sink) {
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
    // boundary vector, no per-chunk workspace.
    std::atomic<std::size_t> cursor{0};
    std::mutex stats_mutex;
    const std::size_t groups =
        (pairs.size() + static_cast<std::size_t>(Lanes) - 1) /
        static_cast<std::size_t>(Lanes);
    fan_out(groups, [&](workspace& wws) {
      batch_stats local{};
      std::size_t lo = cursor.load(std::memory_order_relaxed);
      while (lo < pairs.size()) {
        const chunk_plan g = group_plan(pairs, lo);
        if (cursor.compare_exchange_weak(lo, g.hi,
                                         std::memory_order_relaxed)) {
          process_group(pairs, lo, g, wws, sink, local);
          lo = g.hi;
        }
      }
      std::lock_guard lock(stats_mutex);
      merge(stats_, local);
    });
  }

  /// Fold one worker's accounting into the run's.
  static void merge(batch_stats& into, const batch_stats& from) noexcept {
    into.simd_pairs += from.simd_pairs;
    into.scalar_pairs += from.scalar_pairs;
    into.int8_pairs += from.int8_pairs;
    into.int16_pairs += from.int16_pairs;
    into.bitpar_pairs += from.bitpar_pairs;
    into.ragged_pairs += from.ragged_pairs;
    into.striped_pairs += from.striped_pairs;
    into.padded_cells += from.padded_cells;
    into.banded_pairs += from.banded_pairs;
    into.band_passes += from.band_passes;
  }

  template <class Pair, class Sink>
  void process_group(std::span<const Pair> pairs, std::size_t lo,
                     const chunk_plan& g, workspace& ws, Sink& sink,
                     batch_stats& stats) {
    if constexpr (Lanes > 1) {
      if (g.prec == score_precision::int8) {
        padded_group<score8_t, kLanes8>(pairs, lo, g, ws, sink, stats);
        return;
      }
      if (g.prec == score_precision::int16) {
        padded_group<score16_t, Lanes>(pairs, lo, g, ws, sink, stats);
        return;
      }
    }
    for (std::size_t i = lo; i < g.hi; ++i)
      lone_pair(pairs, i, ws, sink, stats);
  }

  /// One admitted group through the padded kernel at (g.nbar x g.mbar);
  /// each live lane retires at its own true boundary.  group_plan proved
  /// the bound on the padded shape, which dominates every lane.  Every
  /// relaxed cell outside a live pair's own matrix — ragged lanes'
  /// padding and a tail's dead lanes — counts as a padded cell.
  template <class E, int W, class Pair, class Sink>
  void padded_group(std::span<const Pair> pairs, std::size_t lo,
                    const chunk_plan& g, workspace& ws, Sink& sink,
                    batch_stats& stats) {
    const auto live = static_cast<std::uint64_t>(g.hi - lo);
    ragged_chunk_score<K, E, W>(pairs, lo, g.nbar, g.mbar, gap_, scoring_,
                                ws, sink, static_cast<int>(live));
    const std::uint64_t shape = static_cast<std::uint64_t>(g.nbar) *
                                static_cast<std::uint64_t>(g.mbar);
    std::uint64_t used = 0;
    for (std::size_t i = lo; i < g.hi; ++i)
      used += static_cast<std::uint64_t>(pairs[i].q.size()) *
              static_cast<std::uint64_t>(pairs[i].s.size());
    (sizeof(E) == 1 ? stats.int8_pairs : stats.int16_pairs) += live;
    stats.simd_pairs += live;
    if (used != live * shape) stats.ragged_pairs += live;  // mixed shapes
    stats.padded_cells += static_cast<std::uint64_t>(W) * shape - used;
  }

  /// One pair of a group the planner could not put on lanes, on the
  /// route `classify_route` picks for it alone at one thread.  A striped
  /// pair counts as `striped_pairs`, a bit-parallel one as
  /// `bitpar_pairs`, a rolling or tiled one as `scalar_pairs`.
  template <class Pair, class Sink>
  void lone_pair(std::span<const Pair> pairs, std::size_t i, workspace& ws,
                 Sink& sink, batch_stats& stats) {
    const auto& p = pairs[i];
    const engine::route_kind rt =
        engine::classify_route(p.q.size(), p.s.size(), lone_, Lanes);
    sink(i, score_route<K, Lanes>(rt, p.q, p.s, gap_, scoring_, lone_, ws));
    if (rt == engine::route_kind::striped_score) {
      ++stats.int16_pairs;
      ++stats.simd_pairs;
      ++stats.striped_pairs;
    } else {
      ++(rt == engine::route_kind::bitpar_score ? stats.bitpar_pairs
                                                : stats.scalar_pairs);
    }
  }

  Gap gap_;
  Scoring scoring_;
  batch_config cfg_;
  /// The request each lone pair is classified and run under: this
  /// engine's kind, gap, scoring and traceback bound, score-only (a
  /// traceback run copies it with want_alignment set), on one thread.
  align_options lone_;
  batch_stats stats_{};
};

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::batch_config;
using v_scalar::tiled::batch_engine;
using v_scalar::tiled::batch_stats;
using v_scalar::tiled::pair_view;
using v_scalar::tiled::ragged_chunk_plan_bytes;
using v_scalar::tiled::ragged_chunk_score;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
