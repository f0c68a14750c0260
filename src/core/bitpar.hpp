#pragma once
/// \file bitpar.hpp
/// Myers bit-parallel global alignment for unit-cost option sets
/// (match = 0, mismatch = gap = g < 0): the score of the optimal global
/// alignment is g * edit_distance(q, s), and the edit distance is
/// computed with Myers' bit-vector recurrence in Hyyrö's blocked form —
/// one column of 64 DP cells advances with ~15 bitwise operations, i.e.
/// roughly one instruction per 4 cells even on scalar hardware, far
/// below any SIMD DP kernel's cells/instruction.
///
/// The pattern (q) is sliced into 64-row words; Peq masks are built for
/// the first 32 character codes (the library's DNA/protein encodings fit
/// comfortably).  Inputs using larger codes return a sentinel and the
/// caller falls back to the rolling engine inside the same workspace
/// pass, so the route never fails — it only loses its speed advantage.
///
/// Per-target header: compiled into `anyseq::ANYSEQ_TARGET_NS`, once per
/// engine variant (the word-parallel loop needs no ISA-specific code,
/// but route symbols must stay inside their variant namespace for the
/// symbol-isolation audit).

#include "simd/set_target.hpp"

#include <algorithm>
#include <cstdint>

#include "core/gap.hpp"
#include "core/rolling.hpp"
#include "core/scoring.hpp"
#include "core/workspace.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// Largest character code (exclusive) the Peq table covers.
inline constexpr int kBitparMaxCode = 32;

/// Arena bytes one bitpar pass carves — includes the rolling rows of the
/// oversized-alphabet fallback so reserve() covers either outcome.
[[nodiscard]] inline std::size_t bitpar_plan_bytes(index_t n,
                                                   index_t m) noexcept {
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  const std::size_t own =
      carve_bytes<std::uint64_t>(words * kBitparMaxCode) +
      2 * carve_bytes<std::uint64_t>(words);
  return std::max(own, rolling_plan_bytes(m));
}

/// Unit-cost edit distance of q vs s (n, m >= 1), Myers/Hyyrö blocked
/// bit-parallel NW.  Returns -1 if either sequence uses a character code
/// >= kBitparMaxCode (caller falls back to the rolling engine).  The Peq
/// table and the VP/VN delta vectors are carved from `ws` and released
/// on return.
template <stage::sequence_view QV, stage::sequence_view SV>
[[nodiscard]] index_t bitpar_edit_distance(const QV& q, const SV& s,
                                           workspace& ws) {
  const index_t n = q.size(), m = s.size();
  ANYSEQ_ASSERT(n > 0 && m > 0, "bitpar needs non-empty sequences");
  const std::size_t W = (static_cast<std::size_t>(n) + 63) / 64;

  workspace::frame fr(ws);
  auto peq = ws.make<std::uint64_t>(W * kBitparMaxCode, 0);
  auto vp = ws.make<std::uint64_t>(W);
  auto vn = ws.make<std::uint64_t>(W, 0);
  for (index_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(q[i]);
    if (c >= kBitparMaxCode) return -1;
    peq[static_cast<std::size_t>(c) * W + static_cast<std::size_t>(i) / 64] |=
        std::uint64_t{1} << (i & 63);
  }
  for (std::size_t w = 0; w < W; ++w) vp[w] = ~std::uint64_t{0};

  // Cell (n, j) sits at this bit of the last word; carries in the D0
  // formula only propagate upward, so the padding bits above it can
  // never contaminate the tracked score.
  const int last_bit = static_cast<int>((n - 1) & 63);
  index_t score = n;  // D(n, 0) = n (leading deletions)

  for (index_t j = 0; j < m; ++j) {
    const int c = static_cast<int>(s[j]);
    if (c >= kBitparMaxCode) return -1;
    const std::uint64_t* eq_row = &peq[static_cast<std::size_t>(c) * W];
    int hin = 1;  // D(0, j+1) - D(0, j) = +1 (leading insertions)
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t eq = eq_row[w];
      const std::uint64_t x = eq | (hin < 0 ? std::uint64_t{1} : 0);
      const std::uint64_t d0 =
          (((x & vp[w]) + vp[w]) ^ vp[w]) | x | vn[w];
      std::uint64_t hp = vn[w] | ~(d0 | vp[w]);
      std::uint64_t hn = d0 & vp[w];
      if (w == W - 1) {
        if ((hp >> last_bit) & 1) ++score;
        else if ((hn >> last_bit) & 1) --score;
      }
      const int hout =
          ((hp >> 63) & 1) ? 1 : (((hn >> 63) & 1) ? -1 : 0);
      hp = (hp << 1) | (hin > 0 ? std::uint64_t{1} : 0);
      hn = (hn << 1) | (hin < 0 ? std::uint64_t{1} : 0);
      vp[w] = hn | ~(d0 | hp);
      vn[w] = hp & d0;
      hin = hout;
    }
  }
  return score;
}

/// Global unit-cost score pass: score = g * edit_distance with the
/// mandatory global end cell (n, m).  `g` is the (negative) unified
/// mismatch/gap penalty; the rolling fallback uses the equivalent
/// explicit model so the result is byte-identical either way.
template <stage::sequence_view QV, stage::sequence_view SV>
[[nodiscard]] score_result bitpar_score(const QV& q, const SV& s, score_t g,
                                        workspace& ws) {
  const index_t n = q.size(), m = s.size();
  const index_t d = bitpar_edit_distance(q, s, ws);
  if (d < 0)
    return rolling_score<align_kind::global>(
        q, s, linear_gap{g}, simple_scoring{0, g}, ws);
  score_result r;
  r.score = static_cast<score_t>(g * d);
  r.end_i = n;
  r.end_j = m;
  r.cells =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m);
  return r;
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::bitpar_edit_distance;
using v_scalar::bitpar_plan_bytes;
using v_scalar::bitpar_score;
using v_scalar::kBitparMaxCode;
}  // namespace anyseq
#endif  // scalar exports
