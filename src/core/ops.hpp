#pragma once
/// \file ops.hpp
/// Value-generic arithmetic used by the relaxation kernel.
///
/// The paper's central trick is that *one* relaxation function serves every
/// backend because all data access and arithmetic goes through functions the
/// partial evaluator specializes away.  Here the same role is played by this
/// tiny overload set: `core::relax` is written against `vmax`/`vadd`/
/// `vselect`/... and instantiates to straight-line scalar code for
/// `score_t`, and to saturating 16-bit SIMD code for `simd::pack<int16_t,W>`
/// (which supplies its own overloads, found via ADL).  The gpusim and
/// fpgasim models relax their cells through the same `score_t` path.

#include <type_traits>

#include "core/macros.hpp"
#include "core/types.hpp"

namespace anyseq {

// ---------------------------------------------------------------------------
// Scalar overloads.  Packs provide equivalents in simd/pack.hpp.
// ---------------------------------------------------------------------------

template <class T>
concept arithmetic_scalar = std::is_arithmetic_v<T>;

/// Mask type associated with a value type: `bool` for scalars; packs
/// specialize via their own `mask` member type and overloads.
template <class T>
struct mask_of {
  using type = bool;
};
template <class T>
using mask_of_t = typename mask_of<T>::type;

template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE T vmax(T a, T b) noexcept {
  return a > b ? a : b;
}

/// Addition.  For 32-bit scores plain addition is safe because `neg_inf()`
/// leaves 2 bits of headroom; 16-bit scores must saturate so the -inf
/// sentinel stays pinned (mirrors `_mm256_adds_epi16` in the SIMD path).
template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE T vadd(T a, T b) noexcept {
  if constexpr (sizeof(T) <= 2 && std::is_signed_v<T>) {
    const int wide = static_cast<int>(a) + static_cast<int>(b);
    const int lo = std::numeric_limits<T>::min();
    const int hi = std::numeric_limits<T>::max();
    return static_cast<T>(wide < lo ? lo : (wide > hi ? hi : wide));
  } else {
    return static_cast<T>(a + b);
  }
}

/// Wrapping subtraction: the difference recurrences (relax_diff) only
/// subtract where the true result is proven to fit T.
template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE T vsub(T a, T b) noexcept {
  return static_cast<T>(a - b);
}

template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE bool vgt(T a, T b) noexcept {
  return a > b;
}

template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE bool veq(T a, T b) noexcept {
  return a == b;
}

/// `cond ? a : b`, lane-wise for packs.
template <arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE T vselect(bool cond, T a, T b) noexcept {
  return cond ? a : b;
}

/// `a == b ? x : y`; packs overload it as one compare-and-blend.
template <arithmetic_scalar C, arithmetic_scalar T>
[[nodiscard]] ANYSEQ_INLINE T vselect_eq(C a, C b, T x, T y) noexcept {
  return a == b ? x : y;
}

/// Broadcast a scalar into a value of type T: identity cast for scalars;
/// types exposing a static `broadcast` (SIMD packs) use it.  This cannot
/// dispatch by ADL — the argument is always a plain score — so it probes
/// the target type directly.
template <class T>
[[nodiscard]] ANYSEQ_INLINE T vbroadcast(score_t x) noexcept {
  if constexpr (requires(typename T::value_type v) { T::broadcast(v); }) {
    return T::broadcast(static_cast<typename T::value_type>(x));
  } else {
    static_assert(std::is_arithmetic_v<T>,
                  "vbroadcast target must be arithmetic or a pack");
    return static_cast<T>(x);
  }
}

[[nodiscard]] ANYSEQ_INLINE bool vand(bool a, bool b) noexcept { return a && b; }

/// Substitution-matrix lookup; packs overload this with a per-lane gather.
/// `stride` is the row length of the score table.
template <arithmetic_scalar T, class C>
[[nodiscard]] ANYSEQ_INLINE T vlookup(const score_t* table, int stride, C q,
                                      C s) noexcept {
  return static_cast<T>(table[static_cast<int>(q) * stride +
                              static_cast<int>(s)]);
}

}  // namespace anyseq
