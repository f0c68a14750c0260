/// \file banded.hpp
/// Banded global alignment: restrict the DP to diagonals
/// lo <= j - i <= hi (an extension beyond the paper's evaluation; listed
/// in DESIGN.md as an optional feature).  When the two sequences are
/// known to be similar — resequencing, read-vs-candidate verification —
/// a band of width w reduces work from n*m to about n*w cells.
///
/// On the vector variants the pass sweeps the band anti-diagonal by
/// anti-diagonal on `simd::pack` lanes (DESIGN.md §11): the two previous
/// anti-diagonals are the only state, one lane shift lines a cell up with
/// its up or left neighbour, and the predecessor bytes are stored one
/// pack per anti-diagonal.  The scalar variant keeps a row loop.  Cells
/// outside the band act as -inf walls; the band
/// must contain both the start diagonal (0) and the end diagonal (m - n)
/// or the global problem is infeasible and an exception is raised.
///
/// `doubling_global_into` builds the exact global traceback on top:
/// band doubling with a strict out-of-band score bound (DESIGN.md §11).

/// (per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant — see simd/foreach_target.hpp)
/// The `band` parameter type is shared (core/types.hpp): it crosses the
/// `engine::ops` dispatch boundary.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_CORE_BANDED_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_CORE_BANDED_HPP_
#undef ANYSEQ_CORE_BANDED_HPP_
#else
#define ANYSEQ_CORE_BANDED_HPP_
#endif

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>
#include <utility>

#include "core/errors.hpp"
#include "core/init.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "simd/pack.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

namespace detail {

/// Lanes per pack of the band pass on E lanes: the vector variant's
/// int16 width for int16 lanes, the same register's int32 width for
/// int32 lanes.
template <class E>
inline constexpr int kBandLanes = sizeof(E) == sizeof(score16_t)
                                      ? ANYSEQ_TARGET_LANES
                                      : ANYSEQ_TARGET_LANES / 2;

/// The -inf sentinel of E lanes.
template <class E>
inline constexpr E kLaneNegInf = std::is_same_v<E, score_t>
                                     ? static_cast<E>(neg_inf())
                                     : static_cast<E>(neg_inf16());

/// Anti-diagonal layout of a band over an n x m problem.  Lane k of
/// anti-diagonal r = i + j holds cell i = base(r) + k, j = r - i, where
/// base(r) = ceil((r - hi) / 2) is the band's top cell on r.  So the
/// diagonal neighbour (i-1, j-1) sits in the same lane of r - 2; the up
/// neighbour (i-1, j) one lane lower on r - 1 when r - hi is even (the
/// same lane when odd); the left neighbour (i, j-1) in the same lane
/// when r - hi is even (one lane higher when odd).  The band is clamped
/// to the matrix first, which changes no cell.  W is the pack width.
struct ad_layout {
  index_t n, m, lo, hi;
  index_t lanes;   ///< band cells on the widest anti-diagonal
  index_t packs;   ///< packs per anti-diagonal
  index_t stride;  ///< packs * W: predecessor bytes per anti-diagonal
  index_t q_lo, q_len;  ///< q char slots: i - 1 over every lane
  index_t s_lo, s_len;  ///< reversed-s slots: m - j over every lane

  ad_layout(index_t n_, index_t m_, band b, int w) noexcept
      : n(n_), m(m_), lo(std::max(b.lo, -n_)), hi(std::min(b.hi, m_)) {
    lanes = (hi - lo) / 2 + 1;
    packs = (lanes + w - 1) / w;
    stride = packs * w;
    q_lo = base(1) - 1;
    q_len = base(n + m) + stride - 1 - q_lo;
    s_lo = base(n + m) - n;
    s_len = m + base(1) + stride - 1 - s_lo;
  }
  [[nodiscard]] index_t base(index_t r) const noexcept {
    return (r - hi + 1) >> 1;
  }
  /// Predecessor byte offset of in-band cell (i, j).
  [[nodiscard]] index_t pred_index(index_t i, index_t j) const noexcept {
    return (i + j) * stride + (i - base(i + j));
  }
};

/// Lanes max(a, 0) .. min(b, W - 1) of a W-lane pack set, the rest
/// clear: two unaligned loads off sliding tables — from[W - a + k] is
/// set iff k >= a, upto[W - 1 - b + k] iff k <= b — so a kernel builds
/// its masks without a compare or a lane insert.
template <class P>
[[nodiscard]] ANYSEQ_INLINE P lane_window(index_t a, index_t b) noexcept {
  using E = typename P::value_type;
  constexpr int W = P::lanes;
  static constexpr auto table = [](bool low_half) {
    std::array<E, 2 * W> t{};
    for (int x = 0; x < W; ++x) t[low_half ? x : W + x] = static_cast<E>(-1);
    return t;
  };
  alignas(64) static constexpr std::array<E, 2 * W> from = table(false);
  alignas(64) static constexpr std::array<E, 2 * W> upto = table(true);
  a = std::clamp<index_t>(a, 0, W);
  b = std::clamp<index_t>(b, -1, W - 1);
  return vand(P::load(from.data() + (W - a)),
              P::load(upto.data() + (W - 1 - b)));
}

/// The low byte of every lane, stored W bytes at `dst`.
template <class P>
ANYSEQ_INLINE void store_low_bytes(std::uint8_t* dst, P p) noexcept {
  typedef std::uint8_t bytes __attribute__((vector_size(P::lanes)));
  const bytes b = __builtin_convertvector(p.v, bytes);
  std::memcpy(dst, &b, sizeof b);
}

/// Sweep state of one pack held by value: the two previous
/// anti-diagonals (H twice, E and F once) stay in registers.
template <class P>
struct ad_regs {
  P h1_, h2_, e_, f_;  // H(r-1), H(r-2), E(r-1), F(r-1)
  [[nodiscard]] static constexpr index_t packs() noexcept { return 1; }
  P& h1(index_t) noexcept { return h1_; }
  P& h2(index_t) noexcept { return h2_; }
  P& e(index_t) noexcept { return e_; }
  P& f(index_t) noexcept { return f_; }
  void rotate() noexcept { std::swap(h1_, h2_); }
};

/// Sweep state of any number of packs in arena rows.
template <class P>
struct ad_rows {
  P* h1_;
  P* h2_;
  P* e_;
  P* f_;
  index_t np;
  [[nodiscard]] index_t packs() const noexcept { return np; }
  P& h1(index_t p) noexcept { return h1_[p]; }
  P& h2(index_t p) noexcept { return h2_[p]; }
  P& e(index_t p) noexcept { return e_[p]; }
  P& f(index_t p) noexcept { return f_[p]; }
  void rotate() noexcept { std::swap(h1_, h2_); }
};

/// The anti-diagonal sweep: relaxes anti-diagonals 1 .. n+m of layout
/// `g` from the state `st` (which holds anti-diagonal 0 and an all -inf
/// anti-diagonal -1), storing each anti-diagonal's predecessor bytes at
/// `preds + r * stride` unless `preds` is null, and returns H(n, m).
/// `qw` / `sw` hold the query and the reversed subject as lane values,
/// offset by the layout's q_lo / s_lo.
///
/// Per pack of anti-diagonal r: one lane shift of H(r-1) and of E or F
/// (by the parity of r - hi), the shared `relax<global, true>`, and -inf
/// for the lanes a valid cell must not read.  While an anti-diagonal
/// holds a row-0 or column-0 cell (r <= edge_end), that is every lane
/// off the matrix or the band, in H, E and F, and the boundary lanes
/// then take their H.  Past it, only H of the lanes below the band's low
/// edge: no valid cell reads a cell right of or below the matrix, E of a
/// lane below the band only feeds lanes further below, and F there only
/// comes from lanes further below, so it stays -inf.  Those lanes all
/// sit in the last pack, under a mask fixed per parity.  The layout and the scoring come by value: the byte stores
/// may alias anything a reference points at, which would reload them,
/// and rebuild their broadcasts, every anti-diagonal.
template <class St, class Gap, class Scoring, class E>
ANYSEQ_NOINLINE score_t antidiag_pass(St st, const ad_layout g, const E* qw,
                                      const E* sw, std::uint8_t* preds,
                                      const Gap gap, const Scoring scoring) {
  using P = std::remove_cvref_t<decltype(st.h1(0))>;
  constexpr int W = P::lanes;
  constexpr E ninf = kLaneNegInf<E>;
  const P ninf_p = P::broadcast(ninf);
  const index_t n = g.n, m = g.m, lo = g.lo, hi = g.hi, np = st.packs();
  const index_t row0_end = std::min(hi, m), col0_end = std::min(-lo, n);
  const index_t edge_end = std::max(row0_end, col0_end);
  const index_t last_lane = (np - 1) * W;
  const P tail_up = lane_window<P>(0, ((hi - lo) >> 1) - last_lane);
  const P tail_down = lane_window<P>(0, ((hi - lo + 1) >> 1) - 1 - last_lane);

  const auto step = [&](index_t r, auto up, auto edge) ANYSEQ_INLINE_LAMBDA {
    const index_t base = g.base(r);
    const E* qc = qw + (base - 1 - g.q_lo);
    const E* sc = sw + (m - r + base - g.s_lo);
    index_t klo = 0, khi = 0;
    if constexpr (decltype(edge)::value) {
      klo = std::max<index_t>(0, r - m) - base;
      khi = std::min(std::min(n, r), (r - lo) >> 1) - base;
    }
    // Pack p from H(r-1) and F(r-1) of packs p and p + 1 (the pack above
    // the last one is all -inf) and the top lanes of pack p - 1.
    E carry_h = ninf, carry_e = ninf;
    const auto relax_pack = [&](index_t p, P h1, P f1, P h1_next, P f1_next,
                                auto last) ANYSEQ_INLINE_LAMBDA {
      const P e1 = st.e(p);
      prev_cells<P> prev;
      if constexpr (decltype(up)::value) {
        prev = {st.h2(p), simd::vshift_up<1>(h1, carry_h), h1,
                simd::vshift_up<1>(e1, carry_e), f1};
        carry_h = h1[W - 1];
        carry_e = e1[W - 1];
      } else {
        prev = {st.h2(p), h1, simd::vshift_down<1>(h1, h1_next[0]), e1,
                simd::vshift_down<1>(f1, f1_next[0])};
      }
      auto nx = relax<align_kind::global, true, P, P, P>(
          prev, P::load(qc + p * W), P::load(sc + p * W), gap, scoring);
      if constexpr (decltype(edge)::value) {
        const P valid = lane_window<P>(klo - p * W, khi - p * W);
        nx.h = vselect(valid, nx.h, ninf_p);
        nx.e = vselect(valid, nx.e, ninf_p);
        nx.f = vselect(valid, nx.f, ninf_p);
      } else if constexpr (decltype(last)::value) {
        const P valid = decltype(up)::value ? tail_up : tail_down;
        nx.h = vselect(valid, nx.h, ninf_p);
      }
      st.h2(p) = nx.h;
      st.e(p) = nx.e;
      st.f(p) = nx.f;
      if (preds) store_low_bytes(preds + r * g.stride + p * W, nx.pred);
    };
    P h1 = st.h1(0), f1 = st.f(0);
    for (index_t p = 0; p + 1 < np; ++p) {
      const P h1_next = st.h1(p + 1), f1_next = st.f(p + 1);
      relax_pack(p, h1, f1, h1_next, f1_next, std::false_type{});
      h1 = h1_next;
      f1 = f1_next;
    }
    relax_pack(np - 1, h1, f1, ninf_p, ninf_p, std::true_type{});
    st.rotate();
    if constexpr (decltype(edge)::value) {
      // The row-0 / column-0 lane takes its boundary H.
      const auto set = [&](index_t k, score_t v) ANYSEQ_INLINE_LAMBDA {
        P& x = st.h1(k / W);
        x = vselect(lane_window<P>(k % W, k % W),
                    P::broadcast(static_cast<E>(v)), x);
      };
      if (r <= row0_end) set(-base, init_h_row0<align_kind::global>(r, gap));
      if (r <= col0_end) set(r - base, init_h_col0<align_kind::global>(r, gap));
    }
  };

  index_t r = 1;
  const index_t r_end = n + m;
  for (; r <= std::min(edge_end, r_end); ++r) {
    if (((r - hi) & 1) == 0) {
      step(r, std::true_type{}, std::true_type{});
    } else {
      step(r, std::false_type{}, std::true_type{});
    }
  }
  // Past the edge the two parities alternate, each known at compile time.
  if (r <= r_end && ((r - hi) & 1) != 0)
    step(r++, std::false_type{}, std::false_type{});
  for (; r + 1 <= r_end; r += 2) {
    step(r, std::true_type{}, std::false_type{});
    step(r + 1, std::false_type{}, std::false_type{});
  }
  if (r <= r_end) step(r, std::true_type{}, std::false_type{});

  const index_t k_end = n - g.base(n + m);
  return static_cast<score_t>(st.h1(k_end / W).to_array()[k_end % W]);
}

/// Arena bytes of one band pass on E lanes (see banded_plan_bytes).
template <class E>
[[nodiscard]] std::size_t band_pass_bytes(index_t n, index_t m, band b,
                                          bool want_traceback) {
  const ad_layout g(n, m, b, kBandLanes<E>);
  return carve_bytes<std::uint8_t>(
             want_traceback
                 ? static_cast<std::size_t>((n + m + 1) * g.stride)
                 : 0) +
         carve_bytes<E>(static_cast<std::size_t>(g.q_len)) +
         carve_bytes<E>(static_cast<std::size_t>(g.s_len)) +
         (g.packs > 1 ? 4 * carve_bytes<simd::pack<E, kBandLanes<E>>>(
                                static_cast<std::size_t>(g.packs))
                      : 0);
}

/// The sweep on E lanes: lays out the query and the reversed subject as
/// lane values, seeds anti-diagonal 0 with H(0, 0), and runs
/// antidiag_pass — in registers when an anti-diagonal fits one pack, on
/// arena rows otherwise.  Returns H(n, m).
template <class E, class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
score_t antidiag_sweep(const QV& q, const SV& s, const ad_layout& g,
                       const Gap& gap, const Scoring& scoring,
                       std::uint8_t* preds, workspace& ws) {
  constexpr int W = kBandLanes<E>;
  using P = simd::pack<E, W>;
  E* qw = ws.make<E>(static_cast<std::size_t>(g.q_len)).data();
  E* sw = ws.make<E>(static_cast<std::size_t>(g.s_len)).data();
  for (index_t x = 0; x < g.q_len; ++x) {
    const index_t i = g.q_lo + x;
    qw[x] = static_cast<E>(i >= 0 && i < g.n ? q[i] : 0);
  }
  for (index_t x = 0; x < g.s_len; ++x) {
    const index_t t = g.s_lo + x;
    sw[x] = static_cast<E>(t >= 0 && t < g.m ? s[g.m - 1 - t] : 0);
  }
  const P ninf_p = P::broadcast(kLaneNegInf<E>);
  const index_t k00 = -g.base(0);  // lane of (0, 0)
  const P h00 = vselect(lane_window<P>(k00 % W, k00 % W),
                        P::broadcast(static_cast<E>(
                            init_h_row0<align_kind::global>(0, gap))),
                        ninf_p);
  if (g.packs == 1)
    return antidiag_pass(ad_regs<P>{h00, ninf_p, ninf_p, ninf_p}, g, qw, sw,
                         preds, gap, scoring);
  const auto np = static_cast<std::size_t>(g.packs);
  ad_rows<P> st{ws.make<P>(np, ninf_p).data(), ws.make<P>(np, ninf_p).data(),
                ws.make<P>(np, ninf_p).data(), ws.make<P>(np, ninf_p).data(),
                g.packs};
  st.h1(k00 / W) = h00;
  return antidiag_pass(st, g, qw, sw, preds, gap, scoring);
}

/// The scalar variant's band sweep: a row loop over the band, storing
/// the predecessor bytes row-compactly — cell (i, j) at
/// i * w + j - i - lo — and returning H(n, m).  The one-lane
/// anti-diagonal sweep ran slower there (DESIGN.md §11).  H rolls in two
/// swapped rows of m+1 and E in one; out-of-band cells read -inf: a slot
/// right of the band was never written, and the slot left of it is set
/// to -inf (or column 0's boundary value) before the row starts.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
score_t row_sweep(const QV& q, const SV& s, const Gap& gap,
                  const Scoring& scoring, band b, std::uint8_t* preds,
                  workspace& ws) {
  const index_t n = q.size(), m = s.size(), w = b.width();
  const auto row_len = static_cast<std::size_t>(m + 1);
  score_t* hp = ws.make<score_t>(row_len, neg_inf()).data();  // row i-1
  score_t* hc = ws.make<score_t>(row_len, neg_inf()).data();  // row i
  auto e = ws.make<score_t>(row_len, neg_inf());
  for (index_t j = 0; j <= std::min(m, b.hi); ++j)
    hp[j] = init_h_row0<align_kind::global>(j, gap);
  for (index_t i = 1; i <= n; ++i) {
    const index_t j_lo = std::max<index_t>(1, i + b.lo);
    const index_t j_hi = std::min(m, i + b.hi);
    const char_t qc = q[i - 1];
    hc[j_lo - 1] = j_lo == 1 && i <= -b.lo
                       ? init_h_col0<align_kind::global>(i, gap)
                       : neg_inf();
    score_t f = neg_inf();  // F never survives across the band edge
    const index_t row = i * w - i - b.lo;
    for (index_t j = j_lo; j <= j_hi; ++j) {
      const prev_cells<score_t> prev{hp[j - 1], hp[j], hc[j - 1], e[j], f};
      const auto nx = relax_scalar<align_kind::global, true>(
          prev, qc, s[j - 1], gap, scoring);
      hc[j] = nx.h;
      e[j] = nx.e;
      f = nx.f;
      if (preds) preds[row + j] = nx.pred;
    }
    std::swap(hp, hc);
  }
  return hp[m];
}

/// One banded forward pass.  When `accept(score)` holds, the result —
/// and the traceback when `want_traceback` — goes into `out` and the
/// pass returns true; otherwise `out` is left untouched.  On the vector
/// variants the sweep runs on int16 lanes when every score of the
/// problem fits the int16 window ((n + m + 2) * unit, as the striped
/// kernel), on int32 lanes otherwise; values inside the window are exact
/// and the sentinel stays below every one of them, so both yield the
/// same bytes (DESIGN.md §11).
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV, class Accept>
bool banded_pass(const QV& q, const SV& s, const Gap& gap,
                 const Scoring& scoring, band b, bool want_traceback,
                 workspace& ws, alignment_result& out, Accept&& accept) {
  const index_t n = q.size(), m = s.size();
  workspace::frame fr(ws);
  // Carves the predecessor bytes, runs `sweep`, and on acceptance fills
  // `out`, walking the bytes where `pred_index` puts cell (i, j).
  const auto run_pass = [&](std::size_t pred_bytes, auto sweep,
                            auto pred_index) {
    std::uint8_t* preds =
        want_traceback ? ws.make<std::uint8_t>(pred_bytes).data() : nullptr;
    const score_t score = sweep(preds);
    if (!accept(score)) return false;
    std::uint64_t cells = 0;
    for (index_t i = 1; i <= n; ++i)
      cells += static_cast<std::uint64_t>(std::max<index_t>(
          0, std::min(m, i + b.hi) - std::max<index_t>(1, i + b.lo) + 1));
    out.reset();
    out.score = score;
    out.q_end = n;
    out.s_end = m;
    out.cells = cells;
    if (want_traceback) {
      workspace::builder_lease lease(ws, out);
      auto pred_at = [&](index_t i, index_t j) {
        return preds[pred_index(i, j)];
      };
      auto [qb, sb] = traceback_walk<align_kind::global>(q, s, n, m, pred_at,
                                                         lease.get());
      out.q_begin = qb;
      out.s_begin = sb;
      lease.get().take(out);
    }
    return true;
  };
  if constexpr (ANYSEQ_TARGET_LANES == 1) {
    const index_t w = b.width();
    return run_pass(
        static_cast<std::size_t>((n + 1) * w),
        [&](std::uint8_t* preds) {
          return row_sweep(q, s, gap, scoring, b, preds, ws);
        },
        [&](index_t i, index_t j) { return i * w + (j - i - b.lo); });
  } else {
    const auto on_lanes = [&](auto lane) {
      using E = decltype(lane);
      const ad_layout g(n, m, b, kBandLanes<E>);
      return run_pass(
          static_cast<std::size_t>((n + m + 1) * g.stride),
          [&](std::uint8_t* preds) {
            return antidiag_sweep<E>(q, s, g, gap, scoring, preds, ws);
          },
          [&](index_t i, index_t j) { return g.pred_index(i, j); });
    };
    if (fits_score_window(n, m, unit_step(gap, scoring),
                          int16_score_window()))
      return on_lanes(score16_t{});
    return on_lanes(score_t{});
  }
}

}  // namespace detail

/// Arena bytes one banded pass over an n x m problem carves, at most.
/// On the vector variants: the predecessor bytes ((n + m + 1)
/// anti-diagonals of `stride`), the two lane-value sequences and, past
/// one pack per anti-diagonal, the four state rows — on whichever lane
/// type needs more.  On the scalar variant: (n + 1) x width predecessor
/// bytes and three rows.
[[nodiscard]] inline std::size_t banded_plan_bytes(index_t n, index_t m,
                                                   band b,
                                                   bool want_traceback) {
  if constexpr (ANYSEQ_TARGET_LANES == 1) {
    return 3 * carve_bytes<score_t>(static_cast<std::size_t>(m + 1)) +
           carve_bytes<std::uint8_t>(
               want_traceback ? static_cast<std::size_t>((n + 1) * b.width())
                              : 0);
  } else {
    return std::max(
        detail::band_pass_bytes<score_t>(n, m, b, want_traceback),
        detail::band_pass_bytes<score16_t>(n, m, b, want_traceback));
  }
}

/// Banded global alignment with optional traceback, carving the band
/// storage from `ws` and recycling `out`'s buffers.
///
/// The returned score is optimal among paths that stay inside the band;
/// it equals the unrestricted optimum whenever the band is wide enough
/// to contain an optimal path (tests sweep this property).
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
void banded_global_into(const QV& q, const SV& s, const Gap& gap,
                        const Scoring& scoring, band b, bool want_traceback,
                        workspace& ws, alignment_result& out) {
  const index_t n = q.size(), m = s.size();
  if (b.lo > b.hi) throw invalid_argument_error("band.lo must be <= band.hi");
  if (b.lo > 0 || b.hi < 0)
    throw invalid_argument_error(
        "band must contain diagonal 0 (the global start)");
  if (b.lo > m - n || b.hi < m - n)
    throw invalid_argument_error(
        "band must contain diagonal m-n (the global end)");
  detail::banded_pass(q, s, gap, scoring, b, want_traceback, ws, out,
                      [](score_t) { return true; });
}

/// Starting radius of the band-doubling traceback; doubled per retry.
inline constexpr index_t kDoublingRadius = 8;

/// Whether band `b` is still worth running instead of the full matrix:
/// its band cells — (n + m + 1) anti-diagonals of at most `lanes` — stay
/// within half of the (n+1)(m+1) cells.  Band cells, not padded pack
/// lanes, so every variant admits the same bands.
[[nodiscard]] inline bool doubling_admits(index_t n, index_t m,
                                          band b) noexcept {
  return 2 * (n + m + 1) * detail::ad_layout(n, m, b, 1).lanes <=
         (n + 1) * (m + 1);
}

/// Arena peak of `doubling_global_into`: its widest admitted pass.
[[nodiscard]] inline std::size_t doubling_plan_bytes(index_t n, index_t m) {
  std::size_t peak = 0;
  for (index_t r = kDoublingRadius;; r *= 2) {
    const band b = band::around_main(n, m, r);
    if (!doubling_admits(n, m, b)) return peak;
    peak = banded_plan_bytes(n, m, b, true);
  }
}

/// Outcome of `doubling_global_into`.
struct doubling_result {
  bool certified = false;  ///< `out` holds the exact global alignment
  int passes = 0;          ///< band passes run, certified or not
};

/// Exact global traceback by band doubling (Ukkonen 1985, as in edlib).
/// Runs banded passes at radius kDoublingRadius, 2x, 4x, ... around the
/// main diagonal and keeps a pass only when its score is STRICTLY above
/// every score a path leaving the band could reach, so every optimal
/// path lies inside the band and the traceback — score, CIGAR, aligned
/// strings, begin cell — is byte-identical to full_engine's (proof in
/// DESIGN.md §11).  `out.cells` reports n*m like the full matrix.
///
/// A path touching diagonal d > hi >= max(0, D), D = m - n, has at
/// least g = 2d - D gap symbols in at least 2 runs and at most
/// floor((n+m-g)/2) substitutions, so it scores at most
/// U = floor((n+m-g)/2)*smax + g*extend + 2*open; the lo side mirrors
/// with g = 2|d| + D.  U does not increase with g (smax >= 0 >=
/// 2*extend), so the check at hi+1 and lo-1 covers every farther
/// diagonal; a side reaching the matrix edge (hi >= m, lo <= -n) is
/// exact.  Returns `certified == false`, with `out` untouched, when the
/// next band would exceed half the full matrix, when n or m is 0, or
/// when the bound does not apply (smax < 0 or a positive gap score):
/// the caller then runs full_engine.
template <class Gap, class Scoring, stage::sequence_view QV,
          stage::sequence_view SV>
doubling_result doubling_global_into(const QV& q, const SV& s,
                                     const Gap& gap, const Scoring& scoring,
                                     workspace& ws, alignment_result& out) {
  const index_t n = q.size(), m = s.size();
  const std::int64_t smax = scoring.max_subst();
  doubling_result r;
  if (n == 0 || m == 0 || smax < 0 || gap.open() > 0 || gap.extend() > 0)
    return r;
  const std::int64_t d_end = m - n;
  const auto bound = [&](std::int64_t g) {
    return (n + m - g) / 2 * smax + g * gap.extend() + 2 * gap.open();
  };
  for (index_t radius = kDoublingRadius;; radius *= 2) {
    const band b = band::around_main(n, m, radius);
    if (!doubling_admits(n, m, b)) return r;
    ++r.passes;
    const auto certify = [&](score_t score) {
      return (b.hi >= m || score > bound(2 * (b.hi + 1) - d_end)) &&
             (b.lo <= -n || score > bound(2 * (1 - b.lo) + d_end));
    };
    if (detail::banded_pass(q, s, gap, scoring, b, true, ws, out, certify)) {
      out.cells = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
      r.certified = true;
      return r;
    }
  }
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::doubling_global_into;
using v_scalar::doubling_plan_bytes;
using v_scalar::doubling_result;
using v_scalar::kDoublingRadius;
using v_scalar::banded_global_into;
}  // namespace anyseq
#endif  // scalar exports

#endif  // per-target include guard
