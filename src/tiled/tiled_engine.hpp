/// \file tiled_engine.hpp
/// Multi-threaded tiled score engine for long sequences — the paper's CPU
/// backend: dynamic wavefront over the tile grid, border-frontier storage
/// (O(n + m) space).  Threads own
/// the anti-diagonal; SIMD runs inside each tile.
///
/// `Lanes` is the variant's 16-bit lane count: 1 = the scalar variant
/// (exact int32 tiles on many threads), 16 = AVX2, 32 = AVX-512BW.  On
/// the vector variants every tile that fits the int16 window
/// (fits_striped_tile) — clipped edge tiles included — runs as one
/// striped pass (tiled/striped.hpp); tiles past it run as exact int32
/// tiles (relax_tile_scalar).
///
/// Plan/execute split: the border frontier and all per-worker tile
/// scratch (int32 rolling rows + stripe vectors) are carved from a
/// caller-owned `workspace` on the driving thread before the wavefront
/// starts — workers only index their pre-carved slice.

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS::tiled`,
/// once per engine variant — see simd/foreach_target.hpp)

#include "simd/set_target.hpp"

#if defined(ANYSEQ_TILED_TILED_ENGINE_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_TILED_TILED_ENGINE_HPP_
#undef ANYSEQ_TILED_TILED_ENGINE_HPP_
#else
#define ANYSEQ_TILED_TILED_ENGINE_HPP_
#endif

#include <mutex>

#include "anyseq/engine_table.hpp"
#include "core/bitpar.hpp"
#include "core/errors.hpp"
#include "core/init.hpp"
#include "core/rolling.hpp"
#include "core/workspace.hpp"
#include "parallel/wavefront.hpp"
#include "tiled/striped.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Tuning/scheduling configuration (bench_ablation sweeps these; the
/// dispatcher derives the tile at plan time, make_tiled_config below).
struct tiled_config {
  index_t tile_h = 512;
  index_t tile_w = 512;
  int threads = 1;
};

template <align_kind K, class Gap, class Scoring, int Lanes>
class tiled_engine {
  static_assert(Lanes == 1 || Lanes == 8 || Lanes == 16 || Lanes == 32,
                "supported lane counts: 1 (scalar), 8/16/32 (SIMD)");

 public:
  tiled_engine(Gap gap, Scoring scoring, tiled_config cfg = {})
      : gap_(gap), scoring_(scoring), cfg_(cfg) {
    if (cfg_.tile_h < 1 || cfg_.tile_w < 1)
      throw invalid_argument_error("tile extents must be >= 1");
    if (cfg_.threads < 1)
      throw invalid_argument_error("threads must be >= 1");
    if (gap_.extend() > 0)
      throw invalid_argument_error("gap penalties must be <= 0");
    // Oversize tiles are not an error: they run as exact int32 tiles.
  }

  /// Arena bytes one pass carves for an (n x m) problem (the plan side):
  /// the border frontier plus per-worker int32 rows and stripes.
  [[nodiscard]] static std::size_t plan_bytes(index_t n, index_t m,
                                              const tiled_config& cfg) {
    if (n == 0 || m == 0) return 0;
    const tile_geometry geom(n, m, cfg.tile_h, cfg.tile_w);
    const parallel::grid_dims dims{geom.tiles_y, geom.tiles_x};
    const auto workers = static_cast<std::size_t>(
        parallel::wavefront_workers(cfg.threads, dims));
    return border_frontier::plan_bytes(geom, Gap::kind == gap_kind::affine) +
           workers * per_worker_bytes(cfg) +
           parallel::dynamic_wavefront::plan_bytes(dims);
  }

  /// Score-only alignment (any kind), carving from `ws`.
  template <stage::sequence_view QV, stage::sequence_view SV>
  [[nodiscard]] score_result score(const QV& q, const SV& s, workspace& ws) {
    return run_pass(q, s, gap_.open(), nullptr, nullptr, ws);
  }

  /// Boundary-parameterized global last-row pass for the divide & conquer
  /// traceback (only meaningful when K == global).
  template <stage::sequence_view QV, stage::sequence_view SV>
  void last_row(const QV& q, const SV& s, score_t tb,
                std::span<score_t> hh, std::span<score_t> ee,
                workspace& ws) {
    static_assert(K == align_kind::global,
                  "last_row requires the global engine");
    run_pass(q, s, tb, &hh, &ee, ws);
  }

  [[nodiscard]] const tiled_config& config() const noexcept { return cfg_; }
  /// False when the full tile exceeds the int16 window (or the variant
  /// is scalar): its tiles run exact int32.
  [[nodiscard]] bool striped() const noexcept {
    return Lanes > 1 && fits_striped_tile(cfg_.tile_h, cfg_.tile_w,
                                          unit_step(gap_, scoring_));
  }
  [[nodiscard]] parallel::wavefront_stats last_stats() const noexcept {
    return stats_;
  }

 private:
  // Stripe vectors of the variant (a dummy width on the scalar variant,
  // which never carves them).
  using stripe_t = simd::pack<score16_t, Lanes == 1 ? 2 : Lanes>;

  /// One worker's scratch: int32 H/E rows of tile_w + 1 cells, and the
  /// stripes of a tile_h-row striped pass on the vector variants.
  [[nodiscard]] static std::size_t int32_pitch(const tiled_config& cfg) {
    return static_cast<std::size_t>(cfg.tile_w + 1);
  }
  /// Each worker's stripes start a whole number of 4 KiB pages after
  /// worker 0's, so every worker sees the same in-page layout.  With a
  /// packed 3 KiB pitch (tile 512, affine, AVX-512) the column loops of
  /// workers 1..3 measured 1.6x slower than worker 0's, likely 4K
  /// aliasing against their own stack slots; page-multiple pitches
  /// measured level with one thread.
  [[nodiscard]] static std::size_t stripe_pitch(const tiled_config& cfg) {
    constexpr std::size_t kPage = 4096 / sizeof(stripe_t);
    if constexpr (Lanes == 1) return 0;
    const std::size_t packs =
        striped_packs<K, Lanes, Gap, Scoring>(cfg.tile_h);
    return (packs + kPage - 1) / kPage * kPage;
  }
  [[nodiscard]] static std::size_t per_worker_bytes(const tiled_config& cfg) {
    return 2 * carve_bytes<score_t>(int32_pitch(cfg)) +
           carve_bytes<stripe_t>(stripe_pitch(cfg));
  }

  // Kernel adapter satisfying the wavefront scheduler interface.  All
  // scratch is carved from the pass workspace up front; worker `tid`
  // owns slice `tid` for the duration of the wavefront.
  template <class QV, class SV>
  struct kernel_adapter {
    tiled_engine& eng;
    const QV& q;
    const SV& s;
    border_frontier& fr;
    std::span<score_t> h_rows;    ///< workers x int32_pitch H scratch
    std::span<score_t> e_rows;    ///< workers x int32_pitch E scratch
    std::span<stripe_t> stripes;  ///< workers x stripe_pitch vectors
    std::mutex best_mutex;
    tile_best best;

    void merge(const tile_best& b) {
      if (b.score <= neg_inf() / 2) return;
      std::lock_guard lock(best_mutex);
      best.merge(b);
    }

    bool run(parallel::tile_coord t, int tid) {
      const auto w = static_cast<std::size_t>(tid);
      const tiled_config& cfg = eng.cfg_;
      if constexpr (Lanes > 1) {
        const tile_geometry& g = fr.geometry();
        if (fits_striped_tile(g.y1(t.ty) - g.y0(t.ty),
                              g.x1(t.tx) - g.x0(t.tx),
                              unit_step(eng.gap_, eng.scoring_))) {
          merge(striped_tile<K, Lanes>(
              q, s, fr, t.ty, t.tx, eng.gap_, eng.scoring_,
              stripes.data() + w * stripe_pitch(cfg)));
          return true;
        }
      }
      merge(relax_tile_scalar<K>(q, s, fr, t.ty, t.tx, eng.gap_,
                                 eng.scoring_,
                                 h_rows.data() + w * int32_pitch(cfg),
                                 e_rows.data() + w * int32_pitch(cfg)));
      return false;
    }
  };

  template <class QV, class SV>
  score_result run_pass(const QV& q, const SV& s, score_t tb,
                        std::span<score_t>* hh_out,
                        std::span<score_t>* ee_out, workspace& ws) {
    const index_t n = q.size(), m = s.size();
    score_result out;
    out.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);

    if (n == 0 || m == 0) {
      degenerate(n, m, tb, out, hh_out, ee_out);
      stats_ = {};
      return out;
    }

    workspace::frame frame(ws);
    tile_geometry geom(n, m, cfg_.tile_h, cfg_.tile_w);
    border_frontier fr(geom, Gap::kind == gap_kind::affine, ws);
    const auto h_col0 = [&](index_t i) -> score_t {
      if constexpr (K == align_kind::global)
        return i == 0 ? 0 : static_cast<score_t>(tb + gap_.extend() * i);
      else
        return init_h_col0<K>(i, gap_);
    };
    fr.init([&](index_t j) { return init_h_row0<K>(j, gap_); }, h_col0);

    // Per-worker scratch, carved on the driving thread (plan) so the
    // workers never touch the arena (execute).
    const parallel::grid_dims dims{geom.tiles_y, geom.tiles_x};
    const auto workers = static_cast<std::size_t>(
        parallel::wavefront_workers(cfg_.threads, dims));
    auto h_rows = ws.make<score_t>(workers * int32_pitch(cfg_));
    auto e_rows = ws.make<score_t>(workers * int32_pitch(cfg_));
    auto stripes = ws.make<stripe_t>(workers * stripe_pitch(cfg_));

    kernel_adapter<QV, SV> kernel{*this, q, s, fr, h_rows, e_rows, stripes,
                                  {},    {}};
    stats_ = parallel::dynamic_wavefront::run(static_cast<int>(workers), dims,
                                              kernel, ws);
    out = pass_result<K>(geom, kernel.best, gap_, fr.h_row()[m]);

    if (hh_out != nullptr) {
      ANYSEQ_CHECK(static_cast<index_t>(hh_out->size()) == m + 1 &&
                       static_cast<index_t>(ee_out->size()) == m + 1,
                   "last_row spans must have m+1 entries");
      const score_t* hrow = fr.h_row();
      for (index_t j = 0; j <= m; ++j) (*hh_out)[j] = hrow[j];
      if (fr.affine()) {
        const score_t* erow = fr.e_row();
        for (index_t j = 0; j <= m; ++j) (*ee_out)[j] = erow[j];
      } else {
        for (index_t j = 0; j <= m; ++j) (*ee_out)[j] = neg_inf();
      }
    }
    return out;
  }

  void degenerate(index_t n, index_t m, score_t tb, score_result& out,
                  std::span<score_t>* hh_out, std::span<score_t>* ee_out) {
    if constexpr (K == align_kind::global) {
      out.score = n == 0 ? gap_.total(m)
                         : (m == 0 && n > 0
                                ? static_cast<score_t>(tb + gap_.extend() * n)
                                : 0);
      out.end_i = n;
      out.end_j = m;
    } else {
      out.score = 0;
      out.end_i = 0;
      out.end_j = 0;
    }
    if (hh_out != nullptr) {
      for (index_t j = 0; j <= m; ++j) {
        (*hh_out)[j] = j == 0 ? (n == 0 ? 0
                                        : static_cast<score_t>(
                                              tb + gap_.extend() * n))
                              : static_cast<score_t>(
                                    (n == 0 ? 0 : tb + gap_.extend() * n) +
                                    gap_.total(j));
        (*ee_out)[j] = neg_inf();
      }
    }
  }

  Gap gap_;
  Scoring scoring_;
  tiled_config cfg_;
  parallel::wavefront_stats stats_{};
};

/// The plan-time tile for an (n x m) problem when `opt.tile` is 0: the
/// largest of 512, 256, 128 that runs striped (fits_striped_tile) and
/// whose longest anti-diagonal holds two tiles per thread, else 128 when
/// it still runs striped.  The scalar variant, and scores too large for
/// any striped tile, keep 512.  From the `wave` rows of
/// BENCH_precision.json (DESIGN.md §9).
template <int Lanes>
[[nodiscard]] index_t derive_tile(index_t n, index_t m, int threads,
                                  score_t unit) {
  constexpr index_t kMaxTile = 512, kMinTile = 128;
  if (Lanes == 1) return kMaxTile;
  for (index_t t = kMaxTile; t > kMinTile; t /= 2)
    if (fits_striped_tile(t, t, unit) &&
        std::min(stage::tile_count(n, t), stage::tile_count(m, t)) >=
            2 * threads)
      return t;
  return fits_striped_tile(kMinTile, kMinTile, unit) ? kMinTile : kMaxTile;
}

/// Wavefront configuration of one call under `opt`, derived once from
/// the top-level (n x m) shape: the plan and every tiled route (tiled
/// score, tiled Hirschberg, locate) use the same tile.
template <int Lanes>
[[nodiscard]] tiled_config make_tiled_config(const align_options& opt,
                                             index_t n, index_t m) {
  const int threads = ::anyseq::parallel::resolve_threads(opt.threads);
  const index_t tile =
      opt.tile > 0 ? opt.tile
                   : derive_tile<Lanes>(n, m, threads,
                                        engine::score_unit(opt));
  return {tile, tile, threads};
}

/// One score-only pair on `rt`, the route engine::classify_route picked
/// for it under `opt`: the score half of `align`'s route switch, which a
/// batch's lone pairs run too.  `wavefront`, when non-null, receives the
/// tiled pass's accounting.
template <align_kind K, int Lanes, class Gap, class Scoring>
[[nodiscard]] score_result score_route(engine::route_kind rt,
                                       stage::seq_view q, stage::seq_view s,
                                       const Gap& gap, const Scoring& scoring,
                                       const align_options& opt,
                                       workspace& ws,
                                       wavefront_stats* wavefront = nullptr) {
  switch (rt) {
    case engine::route_kind::bitpar_score:
      // classify_route admitted a unit-cost option set (match == 0,
      // mismatch == gap_extend < 0, no gap open) and n, m > 0.
      return bitpar_score(q, s, gap.extend(), ws);
    case engine::route_kind::striped_score:
      if constexpr (Lanes > 1)
        return striped_score<K, Lanes>(q, s, gap, scoring, ws);
      break;
    case engine::route_kind::tiled_score: {
      tiled_engine<K, Gap, Scoring, Lanes> eng(
          gap, scoring, make_tiled_config<Lanes>(opt, q.size(), s.size()));
      const score_result r = eng.score(q, s, ws);
      if (wavefront != nullptr) *wavefront = eng.last_stats();
      return r;
    }
    default:
      break;
  }
  return rolling_score<K>(q, s, gap, scoring, ws);
}

}  // namespace tiled
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq::tiled {
using v_scalar::tiled::tiled_config;
using v_scalar::tiled::tiled_engine;
}  // namespace anyseq::tiled
#endif  // scalar exports

#endif  // per-target include guard
