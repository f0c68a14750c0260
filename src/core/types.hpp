#pragma once
/// \file types.hpp
/// Fundamental value types shared by every AnySeq module.

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/macros.hpp"

namespace anyseq {

/// Alignment score.  32-bit externally; striped tiles internally use 16-bit
/// differential scores (see tiled/striped.hpp) and widen on exit.
using score_t = std::int32_t;

/// 16-bit score used inside SIMD kernels (paper §IV-A: "we use smaller
/// data types (e.g. 16 bits for our use cases) for scores within a
/// block").
using score16_t = std::int16_t;

/// Sequence index / DP-matrix coordinate.  64-bit so that the *product*
/// n*m of long-genome lengths never overflows intermediate computations.
using index_t = std::int64_t;

/// Encoded sequence character.  DNA codes are 0..3 (A,C,G,T) with 4 = N;
/// the core is alphabet-agnostic and treats this as an opaque small code.
using char_t = std::uint8_t;

/// "Minus infinity" sentinel with enough headroom that adding a gap
/// penalty (or two) can never wrap around.
[[nodiscard]] constexpr score_t neg_inf() noexcept {
  return std::numeric_limits<score_t>::min() / 4;
}

/// 16-bit minus-infinity sentinel used inside SIMD kernels.  Saturating
/// adds keep it pinned (see simd/pack.hpp).
[[nodiscard]] constexpr score16_t neg_inf16() noexcept {
  return static_cast<score16_t>(-30000);
}

/// 8-bit score used inside narrow SIMD chunks of the batch engine when the
/// worst-case score bound fits the int8 window (twice the lane count of the
/// 16-bit kernels on the same vector width).
using score8_t = std::int8_t;

/// 8-bit minus-infinity sentinel.  Chosen so that real scores inside the
/// int8 window (|score| <= 96) always stay strictly above it.
[[nodiscard]] constexpr score8_t neg_inf8() noexcept {
  return static_cast<score8_t>(-112);
}

/// Score accumulator width of a score-only route.
///
/// A caller requests either `auto_select` (the default: the plan picks
/// the narrowest element type whose worst-case score bound provably
/// cannot saturate, or the bit-parallel engine when the option set is
/// unit-cost) or `int32` (the rolling reference route).  `int8`, `int16`
/// and `bitpar` are plan outputs only (`aligner::plan_info::precision`,
/// the batch engine's chunk plans); validate() rejects them as requests.
/// Results are byte-identical to the int32 path either way.
enum class score_precision : std::uint8_t {
  auto_select,  ///< narrowest provably-safe type (default).
  int8,         ///< 8-bit lanes (planned, never requested).
  int16,        ///< 16-bit lanes (planned, never requested).
  int32,        ///< the 32-bit rolling engine (the requestable reference).
  bitpar,       ///< Myers bit-parallel engine (planned, never requested).
};

[[nodiscard]] constexpr const char* to_string(score_precision p) noexcept {
  switch (p) {
    case score_precision::auto_select: return "auto";
    case score_precision::int8: return "int8";
    case score_precision::int16: return "int16";
    case score_precision::int32: return "int32";
    case score_precision::bitpar: return "bitpar";
  }
  return "?";
}

/// Worst-case |score| window inside which an (n x m) problem provably
/// cannot saturate an int8 accumulator (sentinel -112 minus headroom).
[[nodiscard]] constexpr score_t int8_score_window() noexcept { return 96; }

/// Same window for int16 accumulators (sentinel -30000 minus headroom);
/// this is the bound the 16-bit batch kernels have always used.
[[nodiscard]] constexpr score_t int16_score_window() noexcept {
  return 28000;
}

/// Same window for the int32 engines: every real score stays strictly
/// above neg_inf() / 2, the sentinel test the engines apply, so neg_inf()
/// keeps its headroom below every real score.  validate_shape() rejects
/// a pair past it.
[[nodiscard]] constexpr score_t int32_score_window() noexcept {
  return -(neg_inf() / 2);
}

/// True if every entry of an (n x m) DP matrix provably stays within
/// +-window for per-cell score deltas bounded by `unit`: the worst score
/// magnitude along any path is at most (n + m + 2) * unit.  `unit` is
/// taken as at least 1, so the bound doubles as the lane-index bound:
/// n + m + 2 < window, so the narrow kernels can carry end-cell indices
/// in score lanes (all-zero scoring would otherwise admit any length).
[[nodiscard]] constexpr bool fits_score_window(index_t n, index_t m,
                                               score_t unit,
                                               score_t window) noexcept {
  return n > 0 && m > 0 &&
         (n + m + 2) * static_cast<index_t>(std::max(unit, score_t{1})) <
             static_cast<index_t>(window);
}

/// Kind of pairwise alignment (paper §III-A).
enum class align_kind : std::uint8_t {
  global,      ///< Needleman–Wunsch: path from (0,0) to (n,m), nu = -inf.
  local,       ///< Smith–Waterman: best path anywhere, nu = 0.
  semiglobal,  ///< free leading/trailing gaps; optimum in last row/column.
  extension,   ///< anchored at (0,0), free end anywhere (internal building
               ///< block: locates local/semiglobal starts in linear space).
};

/// Gap penalty model.
enum class gap_kind : std::uint8_t {
  linear,  ///< each gap symbol costs `gap` (E/F collapse to H +- g).
  affine,  ///< gap of length k costs open + k*extend (Gotoh; Eq. 4/5).
};

[[nodiscard]] constexpr const char* to_string(align_kind k) noexcept {
  switch (k) {
    case align_kind::global: return "global";
    case align_kind::local: return "local";
    case align_kind::semiglobal: return "semiglobal";
    case align_kind::extension: return "extension";
  }
  return "?";
}

/// Diagonal band lo..hi (inclusive), in units of j - i, for the banded
/// global engine (core/banded.hpp).  Lives here — not in the per-target
/// banded header — because it crosses the `engine::ops` dispatch boundary.
struct band {
  index_t lo = -16;
  index_t hi = 16;

  [[nodiscard]] index_t width() const noexcept { return hi - lo + 1; }

  /// Band covering +-radius around the main diagonal, shifted so it
  /// always contains the end diagonal of an n x m problem.
  [[nodiscard]] static band around_main(index_t n, index_t m,
                                        index_t radius) {
    const index_t d_end = m - n;
    return {std::min<index_t>(0, d_end) - radius,
            std::max<index_t>(0, d_end) + radius};
  }
};

[[nodiscard]] constexpr const char* to_string(gap_kind k) noexcept {
  switch (k) {
    case gap_kind::linear: return "linear";
    case gap_kind::affine: return "affine";
  }
  return "?";
}

}  // namespace anyseq
