/// \file tiled_engine.hpp
/// Multi-threaded tiled score engine for long sequences — the paper's CPU
/// backend: dynamic (or static, for the Fig. 6 baseline) wavefront over
/// the tile grid, scalar tiles or SIMD blocks of up to `Lanes`
/// independent tiles, border-frontier storage (O(n + m) space).
///
/// `Lanes` is the variant's 16-bit lane count: 1 = the scalar variant
/// (scalar tiles on many threads), 16 = AVX2, 32 = AVX-512BW.  Tile sizes
/// whose 16-bit differential span does not fit run every tile as an
/// exact int32 single instead.
///
/// Plan/execute split: the border frontier and all per-worker tile
/// scratch (rolling rows + SIMD block rows) are carved from a
/// caller-owned `workspace` on the driving thread before the wavefront
/// starts — workers only index their pre-carved slice.  This replaces
/// the old growth-only `static thread_local` buffers (which never
/// shrank and were duplicated per variant AND per thread).

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

#include "core/errors.hpp"
#include "core/init.hpp"
#include "core/rolling.hpp"
#include "core/workspace.hpp"
#include "parallel/wavefront.hpp"
#include "tiled/simd_block.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace tiled {

/// Tuning/scheduling configuration (bench_ablation sweeps these; the
/// dispatcher derives the tile at plan time, engine_impl.hpp).
struct tiled_config {
  index_t tile_h = 512;
  index_t tile_w = 512;
  int threads = 1;
  bool dynamic_schedule = true;  ///< false = static per-diagonal barrier
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
    // Oversize tiles are not an error: their tiles run as int32 singles.
    simd_ = Lanes > 1 &&
            fits_score_window(cfg_.tile_h, cfg_.tile_w,
                              unit_step(gap_, scoring_),
                              int16_score_window());
  }

  /// Arena bytes one pass carves for an (n x m) problem (the plan side):
  /// the border frontier plus per-worker scalar rows and SIMD block rows.
  [[nodiscard]] static std::size_t plan_bytes(index_t n, index_t m,
                                              const tiled_config& cfg) {
    if (n == 0 || m == 0) return 0;
    const tile_geometry geom(n, m, cfg.tile_h, cfg.tile_w);
    const bool affine = Gap::kind == gap_kind::affine;
    const auto workers = static_cast<std::size_t>(cfg.threads);
    std::size_t per_worker =
        2 * carve_bytes<score_t>(static_cast<std::size_t>(cfg.tile_w + 1));
    if constexpr (Lanes > 1)
      per_worker += block_scratch<Lanes>::plan_bytes(cfg.tile_w);
    const parallel::grid_dims dims{geom.tiles_y, geom.tiles_x};
    const std::size_t sched =
        cfg.dynamic_schedule
            ? parallel::dynamic_wavefront::plan_bytes(std::span(&dims, 1),
                                                      cfg.threads, Lanes)
            : parallel::static_wavefront::plan_bytes(std::span(&dims, 1),
                                                     cfg.threads);
    return border_frontier::plan_bytes(geom, affine) +
           workers * per_worker +
           carve_bytes<block_scratch<Lanes>>(workers) + sched;
  }

  /// Score-only alignment (any kind), carving from `ws`.
  template <stage::sequence_view QV, stage::sequence_view SV>
  [[nodiscard]] score_result score(const QV& q, const SV& s, workspace& ws) {
    return run_pass(q, s, gap_.open(), nullptr, nullptr, ws);
  }

  /// One-shot convenience over a member workspace.
  template <stage::sequence_view QV, stage::sequence_view SV>
  [[nodiscard]] score_result score(const QV& q, const SV& s) {
    own_ws_.begin_pass();
    return score(q, s, own_ws_);
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

  /// One-shot convenience over a member workspace.
  template <stage::sequence_view QV, stage::sequence_view SV>
  void last_row(const QV& q, const SV& s, score_t tb,
                std::span<score_t> hh, std::span<score_t> ee) {
    own_ws_.begin_pass();
    last_row(q, s, tb, hh, ee, own_ws_);
  }

  [[nodiscard]] const tiled_config& config() const noexcept { return cfg_; }
  /// False when the tile exceeds the 16-bit span: tiles run as singles.
  [[nodiscard]] bool simd_blocks() const noexcept { return simd_; }
  [[nodiscard]] parallel::wavefront_stats last_stats() const noexcept {
    return stats_;
  }

 private:
  // Kernel adapter satisfying the wavefront scheduler interface.  All
  // scratch is carved from the pass workspace up front; worker `tid`
  // owns slice `tid` for the duration of the wavefront.
  template <class QV, class SV>
  struct kernel_adapter {
    tiled_engine& eng;
    const QV& q;
    const SV& s;
    border_frontier& fr;
    std::span<score_t> h_rows;  ///< threads x (tile_w+1) scalar H scratch
    std::span<score_t> e_rows;  ///< threads x (tile_w+1) scalar E scratch
    std::span<block_scratch<Lanes>> blocks;  ///< threads SIMD scratches
    std::mutex best_mutex;
    tile_best best;

    [[nodiscard]] int batch_width() const { return eng.simd_ ? Lanes : 1; }

    void merge(const tile_best& b) {
      if (b.score <= neg_inf() / 2) return;
      std::lock_guard lock(best_mutex);
      best.merge(b);
    }

    void run_single(parallel::tile_coord t, int tid) {
      const auto pitch = static_cast<std::size_t>(eng.cfg_.tile_w + 1);
      score_t* h = h_rows.data() + static_cast<std::size_t>(tid) * pitch;
      score_t* e = e_rows.data() + static_cast<std::size_t>(tid) * pitch;
      merge(relax_tile_scalar<K>(q, s, fr, t.ty, t.tx, eng.gap_,
                                 eng.scoring_, h, e));
    }

    /// Full tiles run as one (possibly partial) block, clipped edge tiles
    /// as singles; returns the block's live-lane count.
    std::size_t run_block(std::span<const parallel::tile_coord> tiles,
                          int tid) {
      std::size_t live = 0;
      if constexpr (Lanes > 1) {
        const auto& g = fr.geometry();
        parallel::tile_coord full[Lanes];
        for (const auto& t : tiles)
          if (g.full(t.ty, t.tx)) full[live++] = t;
        if (live >= static_cast<std::size_t>(parallel::block_floor(Lanes))) {
          merge(relax_tile_block<K, Gap, Scoring, Lanes>(
              q, s, fr, full, static_cast<int>(live), eng.gap_,
              eng.scoring_, blocks[static_cast<std::size_t>(tid)]));
        } else {
          live = 0;
        }
        for (const auto& t : tiles)
          if (live == 0 || !g.full(t.ty, t.tx)) run_single(t, tid);
      } else {
        for (const auto& t : tiles) run_single(t, tid);
      }
      return live;
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
    const auto workers = static_cast<std::size_t>(cfg_.threads);
    const auto pitch = static_cast<std::size_t>(cfg_.tile_w + 1);
    auto h_rows = ws.make<score_t>(workers * pitch);
    auto e_rows = ws.make<score_t>(workers * pitch);
    std::span<block_scratch<Lanes>> blocks;
    if constexpr (Lanes > 1) {
      blocks = ws.make<block_scratch<Lanes>>(workers);
      for (auto& b : blocks) b.bind(ws, cfg_.tile_w);
    }

    kernel_adapter<QV, SV> kernel{*this, q,      s,  fr, h_rows,
                                  e_rows, blocks, {}, {}};
    const parallel::grid_dims dims{geom.tiles_y, geom.tiles_x};
    stats_ = cfg_.dynamic_schedule
                 ? parallel::dynamic_wavefront::run(
                       cfg_.threads, std::span(&dims, 1), kernel, &ws)
                 : parallel::static_wavefront::run(
                       cfg_.threads, std::span(&dims, 1), kernel, &ws);

    // Collect the optimum.
    if constexpr (K == align_kind::global) {
      out.score = fr.h_row()[m];
      out.end_i = n;
      out.end_j = m;
    } else {
      // Kernels tracked interior candidates; add the boundary cells they
      // cannot see, ranked like the serial engine visits them.
      tile_best b = kernel.best;
      if constexpr (K == align_kind::semiglobal) {
        b.consider<K>(init_h_row0<K>(m, gap_), 0, m, geom);  // (0, m)
        b.consider<K>(h_col0(n), n, 0, geom);                // (n, 0)
      } else {
        b.consider<K>(0, 0, 0, geom);  // the empty alignment / prefix
      }
      out.score = b.score;
      out.end_i = b.i;
      out.end_j = b.j;
    }

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
  bool simd_ = false;  ///< tiles fit the 16-bit block span
  parallel::wavefront_stats stats_{};
  workspace own_ws_;  ///< backs the one-shot convenience overloads
};

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
