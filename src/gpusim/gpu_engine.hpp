#pragma once
/// \file gpu_engine.hpp
/// The paper's GPU mapping (§IV-B, Fig. 4) on the simulated device:
///
///  * the host iterates tile anti-diagonals and launches one kernel per
///    diagonal ("host code that starts a GPU kernel for each diagonal");
///  * each thread block computes one tile; the tile is cut into stripes
///    whose height is the block's thread count;
///  * inside a stripe, threads sweep anti-diagonals in lockstep phases;
///  * sequence segments and the row above the stripe live in shared
///    memory; tile border rows/columns round-trip through global memory
///    (the same border_frontier the CPU backend uses — here it plays the
///    role of GPU global memory, with every access counted);
///  * scores are 32-bit ("alignment computation on the GPU relies on
///    32-bit integer arithmetic", §V).
///
/// Traceback for long sequences is host-driven divide & conquer with GPU
/// last-row passes; short-read batches store predecessor bytes in global
/// memory (counted) and walk them on the host.

#include "core/hirschberg.hpp"
#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/rolling.hpp"
#include "core/traceback.hpp"
#include "gpusim/model.hpp"
#include "gpusim/runtime.hpp"
#include "tiled/batch_engine.hpp"
#include "tiled/borders.hpp"
#include "tiled/tile_kernel.hpp"

namespace anyseq::gpusim {

struct gpu_config {
  index_t tile_h = 512;
  index_t tile_w = 512;
  int block_threads = 128;  ///< stripe height
};

template <align_kind K, class Gap, class Scoring>
class gpu_engine {
 public:
  gpu_engine(device& dev, Gap gap, Scoring scoring, gpu_config cfg = {})
      : dev_(dev), gap_(gap), scoring_(scoring), cfg_(cfg) {
    if (cfg_.tile_h < 1 || cfg_.tile_w < 1 || cfg_.block_threads < 1)
      throw invalid_argument_error("bad gpu_config");
  }

  /// Score-only pass over one pair (any kind).
  template <stage::sequence_view QV, stage::sequence_view SV>
  [[nodiscard]] score_result score(const QV& q, const SV& s) {
    return pass(q, s, gap_.open(), nullptr, nullptr);
  }

  /// Boundary-parameterized last row (global kind) for the host-driven
  /// divide & conquer traceback.
  template <stage::sequence_view QV, stage::sequence_view SV>
  void last_row(const QV& q, const SV& s, score_t tb, std::span<score_t> hh,
                std::span<score_t> ee) {
    static_assert(K == align_kind::global);
    pass(q, s, tb, &hh, &ee);
  }

  /// Last-row strategy for the divide & conquer traceback: device passes
  /// for big subproblems, host passes below the cutoff (a real hybrid).
  struct gpu_last_row {
    gpu_engine* eng;
    template <class QV2, class SV2>
    void operator()(const QV2& qq, const SV2& ss, score_t tb,
                    std::span<score_t> hh, std::span<score_t> ee) const {
      if (qq.size() * ss.size() <= 1 << 14) {
        nw_last_row(qq, ss, eng->gap_, eng->scoring_, tb, hh, ee);
        return;
      }
      eng->last_row(qq, ss, tb, hh, ee);
    }
  };

  /// Global alignment with traceback: D&C on the host, passes on the
  /// device.  The host's last-row rows come from one arena per call.
  [[nodiscard]] alignment_result align(stage::seq_view q, stage::seq_view s) {
    static_assert(K == align_kind::global);
    hirschberg_engine<Gap, Scoring, gpu_last_row> h(
        gap_, scoring_, gpu_last_row{this}, {1 << 14});
    workspace ws;
    alignment_result out;
    h.align_into(q, s, ws, out);
    return out;
  }

  /// Batch of short pairs: one thread block per pair, one launch per
  /// batch; predecessor bytes are stored in global memory when traceback
  /// is requested (counted as device traffic) and walked on the host.
  [[nodiscard]] std::vector<alignment_result> batch(
      std::span<const tiled::pair_view> pairs, bool want_traceback) {
    std::vector<alignment_result> out(pairs.size());
    workspace ws;  // every pair's matrix, in turn
    full_engine<K, Gap, Scoring> eng(gap_, scoring_);
    ++const_cast<device_counters&>(dev_.counters()).kernel_launches;
    const_cast<device_counters&>(dev_.counters()).blocks += pairs.size();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto& pv = pairs[p];
      const index_t n = pv.q.size(), m = pv.s.size();
      dev_.log_cells(static_cast<std::uint64_t>(n) * m);
      // Sequence loads.
      dev_.log_range_access(0, static_cast<std::uint64_t>(n + m), 1, 1,
                            false);
      ws.begin_pass();
      eng.align_into(pv.q, pv.s, want_traceback, ws, out[p]);
      if (want_traceback) {
        // Pred byte per cell written + the traceback path re-read.
        dev_.log_range_access(0, static_cast<std::uint64_t>(n) * m, 1, 1,
                              true);
        dev_.log_range_access(0, static_cast<std::uint64_t>(n + m), 1, 1,
                              false);
      } else {
        // Rolling rows spill to global per block row.
        dev_.log_range_access(0, static_cast<std::uint64_t>(m) * 4, 4, 4,
                              true);
      }
    }
    return out;
  }

  [[nodiscard]] device& dev() noexcept { return dev_; }

 private:
  // -------------------------------------------------------------------
  // The striped tile kernel (Fig. 4), bit-exact and fully counted.
  // -------------------------------------------------------------------
  template <class QV, class SV>
  score_result pass(const QV& q, const SV& s, score_t tb,
                    std::span<score_t>* hh_out, std::span<score_t>* ee_out) {
    const index_t n = q.size(), m = s.size();
    score_result out;
    out.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
    dev_.log_cells(out.cells);

    if (n == 0 || m == 0) {
      degenerate(n, m, tb, out, hh_out, ee_out);
      return out;
    }

    tiled::tile_geometry geom(n, m, cfg_.tile_h, cfg_.tile_w);
    workspace ws;  // the device's global memory for this pass
    tiled::border_frontier fr(geom, Gap::kind == gap_kind::affine, ws);
    const auto h_col0 = [&](index_t i) -> score_t {
      if constexpr (K == align_kind::global)
        return i == 0 ? 0 : static_cast<score_t>(tb + gap_.extend() * i);
      else
        return init_h_col0<K>(i, gap_);
    };
    fr.init([&](index_t j) { return init_h_row0<K>(j, gap_); }, h_col0);

    tiled::tile_best best;
    std::mutex best_mutex;

    // Host loop over tile anti-diagonals; one launch per diagonal.
    for (index_t d = 0; d < geom.tiles_y + geom.tiles_x - 1; ++d) {
      const index_t ty_lo = d < geom.tiles_x ? 0 : d - geom.tiles_x + 1;
      const index_t ty_hi = d < geom.tiles_y ? d : geom.tiles_y - 1;
      const int blocks = static_cast<int>(ty_hi - ty_lo + 1);
      launch(dev_, blocks, cfg_.block_threads, [&](block_context& ctx) {
        const index_t ty = ty_lo + ctx.block_idx();
        const index_t tx = d - ty;
        const auto b = tile_block(ctx, q, s, fr, ty, tx);
        if constexpr (K != align_kind::global) {
          std::lock_guard lock(best_mutex);
          best.merge(b);
        }
      });
    }

    collect(n, m, fr, best, h_col0(n), out, hh_out, ee_out);
    return out;
  }

  /// One thread block computing one tile in stripes.
  template <class QV, class SV>
  tiled::tile_best tile_block(block_context& ctx, const QV& q, const SV& s,
                              tiled::border_frontier& fr, index_t ty,
                              index_t tx) {
    const tiled::tile_geometry& geom = fr.geometry();
    const index_t y0 = geom.y0(ty), y1 = geom.y1(ty);
    const index_t x0 = geom.x0(tx), x1 = geom.x1(tx);
    const index_t h_rows = y1 - y0, w = x1 - x0;
    const bool affine = Gap::kind == gap_kind::affine;
    const int sh = ctx.block_dim();

    // Shared memory: sequence segments + the row above the current stripe.
    auto q_seg = ctx.shared<char_t>(static_cast<std::size_t>(h_rows));
    auto s_seg = ctx.shared<char_t>(static_cast<std::size_t>(w));
    auto row_h = ctx.shared<score_t>(static_cast<std::size_t>(w + 1));
    auto row_e = ctx.shared<score_t>(static_cast<std::size_t>(w + 1));
    for (index_t i = 0; i < h_rows; ++i) q_seg[i] = q[y0 + i];
    for (index_t j = 0; j < w; ++j) s_seg[j] = s[x0 + j];
    dev_.log_range_access(0, static_cast<std::uint64_t>(h_rows + w), 1, 1,
                          false);

    // Load the corner and the top border (coalesced: contiguous 4-byte
    // words).
    row_h[0] = fr.corner(ty, tx);
    row_e[0] = neg_inf();
    for (index_t j = 1; j <= w; ++j) {
      row_h[j] = fr.h_row()[x0 + j];
      row_e[j] = affine ? fr.e_row()[x0 + j] : neg_inf();
    }
    dev_.log_range_access(0, static_cast<std::uint64_t>(w + 1), 4, 4, false);
    if (affine)
      dev_.log_range_access(0, static_cast<std::uint64_t>(w + 1), 4, 4,
                            false);
    // Left border (one element per row: strided, poorly coalesced — the
    // frontier column is contiguous though, so it coalesces fine).
    dev_.log_range_access(0, static_cast<std::uint64_t>(h_rows), 4, 4, false);
    if (affine)
      dev_.log_range_access(0, static_cast<std::uint64_t>(h_rows), 4, 4,
                            false);

    // Stripe scratch ("registers" of the stripe's threads).
    std::vector<score_t> sh_h((sh + 1) * (w + 1));
    std::vector<score_t> sh_e((sh + 1) * (w + 1));
    std::vector<score_t> sh_f((sh + 1) * (w + 1));
    tiled::tile_best best;

    for (index_t stripe0 = 0; stripe0 < h_rows;
         stripe0 += static_cast<index_t>(sh)) {
      const index_t rows =
          std::min<index_t>(sh, h_rows - stripe0);  // rows in this stripe
      // Row 0 of the stripe scratch is the row above.
      for (index_t j = 0; j <= w; ++j) {
        sh_h[j] = row_h[j];
        sh_e[j] = row_e[j];
      }
      // Column 0 from the left border (E has no column-0 values; keep
      // the sentinel so the reported last row stays consistent).
      for (index_t r = 1; r <= rows; ++r) {
        sh_h[r * (w + 1)] = fr.h_col()[y0 + stripe0 + r];
        sh_e[r * (w + 1)] = neg_inf();
        sh_f[r * (w + 1)] =
            affine ? fr.f_col()[y0 + stripe0 + r] : neg_inf();
      }

      // Anti-diagonal phases: thread t computes stripe row t+1.
      const index_t n_diag = rows + w - 1;
      for (index_t dd = 0; dd < n_diag; ++dd) {
        ctx.threads([&](int t) {
          const index_t r = t + 1;
          const index_t j = dd - t + 1;
          if (r > rows || j < 1 || j > w) return;
          const std::size_t at = r * (w + 1) + j;
          const std::size_t up = (r - 1) * (w + 1) + j;
          const prev_cells<score_t> prev{sh_h[up - 1], sh_h[up],
                                         sh_h[at - 1], sh_e[up],
                                         sh_f[at - 1]};
          const auto nx = relax_scalar<K, false>(
              prev, q_seg[stripe0 + r - 1], s_seg[j - 1], gap_, scoring_);
          sh_h[at] = nx.h;
          sh_e[at] = nx.e;
          sh_f[at] = nx.f;
          dev_.log_shared(6);
          if constexpr (tracks_running_max(K))
            best.consider<K>(nx.h, y0 + stripe0 + r, x0 + j, geom);
        });
      }

      // The stripe's last row becomes the row above the next stripe
      // (re-using the shared buffer, as Fig. 4 describes).
      for (index_t j = 0; j <= w; ++j) {
        row_h[j] = sh_h[rows * (w + 1) + j];
        row_e[j] = sh_e[rows * (w + 1) + j];
      }
      // Right border column out (in place over the left border: each
      // row was read above, before this stripe overwrites it).
      for (index_t r = 1; r <= rows; ++r) {
        fr.h_col()[y0 + stripe0 + r] = sh_h[r * (w + 1) + w];
        if (affine) fr.f_col()[y0 + stripe0 + r] = sh_f[r * (w + 1) + w];
      }
      dev_.log_range_access(0, static_cast<std::uint64_t>(rows), 4, 4, true);
      if constexpr (K == align_kind::semiglobal) {
        if (x1 == geom.m)
          for (index_t r = 1; r <= rows; ++r)
            best.consider<K>(sh_h[r * (w + 1) + w], y0 + stripe0 + r, x1,
                             geom);
      }
    }

    // Bottom border and corner out (coalesced write through the rotated
    // view).
    for (index_t j = tx > 0 ? 1 : 0; j <= w; ++j) {
      fr.h_row()[x0 + j] = row_h[j];
      if (affine) fr.e_row()[x0 + j] = row_e[j];
    }
    fr.corner(ty + 1, tx + 1) = row_h[w];
    dev_.log_range_access(0, static_cast<std::uint64_t>(w + 1), 4, 4, true);
    if (affine)
      dev_.log_range_access(0, static_cast<std::uint64_t>(w + 1), 4, 4, true);
    if constexpr (K == align_kind::semiglobal) {
      if (y1 == geom.n)
        for (index_t j = 0; j <= w; ++j)
          best.consider<K>(row_h[j], y1, x0 + j, geom);
    }
    return best;
  }

  void collect(index_t n, index_t m, tiled::border_frontier& fr,
               const tiled::tile_best& best, score_t h_n0, score_result& out,
               std::span<score_t>* hh_out, std::span<score_t>* ee_out) {
    const tiled::tile_geometry& geom = fr.geometry();
    if constexpr (K == align_kind::global) {
      out.score = fr.h_row()[m];
      out.end_i = n;
      out.end_j = m;
    } else {
      tiled::tile_best b = best;
      if constexpr (K == align_kind::semiglobal) {
        b.consider<K>(init_h_row0<K>(m, gap_), 0, m, geom);
        b.consider<K>(h_n0, n, 0, geom);
      } else {
        b.consider<K>(0, 0, 0, geom);
      }
      out.score = b.score;
      out.end_i = b.i;
      out.end_j = b.j;
      dev_.log_atomic();
    }
    if (hh_out != nullptr) {
      const score_t* hrow = fr.h_row();
      for (index_t j = 0; j <= m; ++j) (*hh_out)[j] = hrow[j];
      if (fr.affine()) {
        const score_t* erow = fr.e_row();
        for (index_t j = 0; j <= m; ++j) (*ee_out)[j] = erow[j];
      } else {
        for (index_t j = 0; j <= m; ++j) (*ee_out)[j] = neg_inf();
      }
      dev_.log_range_access(0, static_cast<std::uint64_t>(m + 1), 4, 4, true);
    }
  }

  void degenerate(index_t n, index_t m, score_t tb, score_result& out,
                  std::span<score_t>* hh_out, std::span<score_t>* ee_out) {
    if constexpr (K == align_kind::global) {
      out.score = n == 0 ? gap_.total(m)
                         : static_cast<score_t>(tb + gap_.extend() * n);
      if (n == 0 && m == 0) out.score = 0;
      out.end_i = n;
      out.end_j = m;
    } else {
      out.score = 0;  // the empty alignment at (0, 0)
    }
    if (hh_out != nullptr) {
      for (index_t j = 0; j <= m; ++j) {
        (*hh_out)[j] =
            n == 0 ? gap_.total(j)
                   : static_cast<score_t>(tb + gap_.extend() * n);
        (*ee_out)[j] = neg_inf();
      }
    }
  }

  device& dev_;
  Gap gap_;
  Scoring scoring_;
  gpu_config cfg_;
};

}  // namespace anyseq::gpusim
