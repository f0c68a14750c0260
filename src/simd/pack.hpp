#pragma once
/// \file pack.hpp
/// Portable fixed-width SIMD value type (per-target header).
///
/// `pack<T, W>` is the C++ analogue of what Impala's `vectorize` generator
/// produces: core::relax instantiated with a pack type becomes a straight
/// line of vector instructions, with no SIMD-specific code in the
/// recurrence itself (paper §IV-A: "A major advantage of our approach is
/// that the vectorize generator supports several SIMD instruction sets").
///
/// Every op is one generic implementation, written with GCC/Clang
/// vector-extension operators (`>`, `?:`, `&`, `__builtin_shufflevector`)
/// that the compiler maps onto whatever ISA the TU's flags enable.  Four
/// groups of intrinsic overloads remain, each where the generic form
/// compiles worse:
///   * the saturating `vadd` of the four int16/int8 shapes (s16x16, s8x32,
///     s16x32, s8x64): GCC 12 has no generic saturating add, and lowers
///     the lane loop to a widen / clamp / narrow sequence;
///   * the AVX2 `vselect`s (s16x16, s8x32): one vpblendvb against three
///     bitwise ops;
///   * the AVX2 s16x16 `vshift_up` / `vshift_down`: vperm2i128 + vpalignr
///     against up to 9 instructions for some shift counts.
///   * `widen_quarter` on s8x32 and s8x64: an extract and a vpmovsxbd
///     against one byte extract per lane.
/// On AVX-512 the compiler keeps each comparison in a k-mask and fuses it
/// into the blend that consumes it, so no op there needs an overload.
///
/// Storage is a native GCC/Clang vector (`vector_size`), so a pack is a
/// register value: kernels carry it across loop iterations without a
/// stack round trip, lane access stays `p.v[i]`, and `to_reg`/`from_reg`
/// are bit-casts, not loads and stores.
///
/// Masks are packs of the same shape holding 0 / all-ones lanes, so
/// `vselect` is a bitwise blend exactly as on real vector units.
/// `vselect_eq(a, b, x, y)` names the compare-and-blend of the
/// substitution score as one operation.
///
/// This is a *per-target* header: its content compiles into
/// `anyseq::ANYSEQ_TARGET_NS::simd`, so the pack type — and every template
/// downstream instantiated with it — carries its engine variant in the
/// symbol name and can never share a COMDAT with another variant's code.

#include "simd/set_target.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "core/macros.hpp"
#include "core/ops.hpp"
#include "core/types.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace simd {

template <class T, int W>
struct alignas(sizeof(T) * W >= 64 ? 64 : sizeof(T) * W) pack {
  static_assert(W > 0 && (W & (W - 1)) == 0, "lane count must be a power of 2");
  using value_type = T;
  static constexpr int lanes = W;

  /// A `typedef`, not a `using` alias: GCC 12 drops the attribute from
  /// an alias declared inside a template.
  typedef T storage __attribute__((vector_size(sizeof(T) * W)));
  storage v;

  /// A vector-scalar add is a splat (one vpbroadcast); a lane loop left
  /// some AVX2 loops rebuilding a broadcast with a vpinsrw per lane.
  [[nodiscard]] static ANYSEQ_INLINE pack broadcast(T x) noexcept {
    return {storage{} + x};
  }
  [[nodiscard]] static ANYSEQ_INLINE pack load(const T* ptr) noexcept {
    pack p;
    std::memcpy(&p.v, ptr, sizeof(p.v));
    return p;
  }
  ANYSEQ_INLINE void store(T* ptr) const noexcept {
    std::memcpy(ptr, &v, sizeof(v));
  }
  [[nodiscard]] ANYSEQ_INLINE T operator[](int i) const noexcept {
    return v[i];
  }
  ANYSEQ_INLINE void set(int i, T x) noexcept { v[i] = x; }
  /// The lanes as a plain array.  A lane read by a variable index pins
  /// the vector it reads to the stack; reading off this copy keeps the
  /// pack itself a register value.
  [[nodiscard]] ANYSEQ_INLINE std::array<T, W> to_array() const noexcept {
    return std::bit_cast<std::array<T, W>>(v);
  }

  friend bool operator==(const pack& a, const pack& b) noexcept {
    for (int i = 0; i < W; ++i)
      if (a.v[i] != b.v[i]) return false;
    return true;
  }
};

/// Mask: same shape, lanes are 0 or ~0.
template <class T, int W>
using pack_mask = pack<T, W>;

template <class T>
inline constexpr bool is_pack_v = false;
/// Checked wherever a kernel names a pack: it is exactly its lanes, and
/// no carve of a workspace arena (workspace::carve_align) under-aligns it.
template <class T, int W>
inline constexpr bool is_pack_v<pack<T, W>> = [] {
  static_assert(sizeof(pack<T, W>) == sizeof(T) * W,
                "a pack is exactly its lanes");
  static_assert(alignof(pack<T, W>) <= 64,
                "a pack must not outgrow workspace::carve_align");
  return true;
}();

template <class P>
concept any_pack = is_pack_v<P>;

// ---------------------------------------------------------------------------
// Generic lane-wise operations (overload set core::relax resolves via ADL),
// written as vector-extension operators on the `vector_size` storage.
// ---------------------------------------------------------------------------

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vmax(pack<T, W> a, pack<T, W> b) noexcept {
  return {a.v > b.v ? a.v : b.v};
}

/// Saturating add for 16-bit lanes (keeps the -inf sentinel pinned), plain
/// add for 32-bit lanes (the headroom argument of core/types.hpp applies).
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vadd(pack<T, W> a, pack<T, W> b) noexcept {
  if constexpr (sizeof(T) <= 2) {
    pack<T, W> r;
    for (int i = 0; i < W; ++i) {
      const int wide = static_cast<int>(a.v[i]) + static_cast<int>(b.v[i]);
      const int lo = std::numeric_limits<T>::min();
      const int hi = std::numeric_limits<T>::max();
      r.v[i] = static_cast<T>(wide < lo ? lo : (wide > hi ? hi : wide));
    }
    return r;
  } else {
    return {a.v + b.v};
  }
}

/// Plain subtraction (vpsub): relax_diff subtracts only where the true
/// result fits the lane type.
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vsub(pack<T, W> a, pack<T, W> b) noexcept {
  return {a.v - b.v};
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vgt(pack<T, W> a,
                                                pack<T, W> b) noexcept {
  // GCC and Clang type a comparison with the signed lanes of that width.
  return {reinterpret_cast<typename pack<T, W>::storage>(a.v > b.v)};
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> veq(pack<T, W> a,
                                                pack<T, W> b) noexcept {
  return {reinterpret_cast<typename pack<T, W>::storage>(a.v == b.v)};
}

/// Bitwise blend: lane from `a` where mask set, else from `b`.  On
/// AVX-512 the compiler folds a compare feeding it into one k-mask blend.
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vselect(pack_mask<T, W> m, pack<T, W> a,
                                               pack<T, W> b) noexcept {
  return {(m.v & a.v) | (~m.v & b.v)};
}

/// `a == b ? x : y` lane-wise — the substitution score's compare and
/// blend as one operation.
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vselect_eq(pack<T, W> a, pack<T, W> b,
                                                  pack<T, W> x,
                                                  pack<T, W> y) noexcept {
  return {a.v == b.v ? x.v : y.v};
}

template <any_pack P>
[[nodiscard]] ANYSEQ_INLINE P vbroadcast(score_t x) noexcept {
  return P::broadcast(static_cast<typename P::value_type>(x));
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vand(pack_mask<T, W> a,
                                                 pack_mask<T, W> b) noexcept {
  return {a.v & b.v};
}

/// a & ~b — mask subtraction (one ANDN instruction on real vector
/// units).  The ragged batch kernel derives its per-column retirement
/// masks with it: colend[j] = colmask[j] & ~colmask[j + 1].
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vandnot(pack_mask<T, W> a,
                                                    pack_mask<T, W> b) noexcept {
  return {a.v & ~b.v};
}

/// Lane shift toward higher indices: lane i takes lane i - S, the S
/// lowest lanes take `fill`.  The cross-lane carry of the striped kernel
/// (tiled/striped.hpp); called qualified, `simd::vshift_up<S>(p, fill)`.
template <int S, class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vshift_up(pack<T, W> a,
                                                 T fill) noexcept {
  static_assert(S > 0 && S < W, "shift must move lanes inside the pack");
  const auto f = pack<T, W>::broadcast(fill).v;
  return [&]<int... I>(std::integer_sequence<int, I...>) -> pack<T, W> {
    return {__builtin_shufflevector(a.v, f, (I < S ? W : I - S)...)};
  }(std::make_integer_sequence<int, W>{});
}

/// Lane shift toward lower indices: lane i takes lane i + S, the S
/// highest lanes take `fill`.  The anti-diagonal band pass's carry
/// (core/banded.hpp), mirroring vshift_up.
template <int S, class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vshift_down(pack<T, W> a,
                                                   T fill) noexcept {
  static_assert(S > 0 && S < W, "shift must move lanes inside the pack");
  const auto f = pack<T, W>::broadcast(fill).v;
  return [&]<int... I>(std::integer_sequence<int, I...>) -> pack<T, W> {
    return {__builtin_shufflevector(a.v, f, (I + S < W ? I + S : W)...)};
  }(std::make_integer_sequence<int, W>{});
}

/// Quarter `Q` of an 8-bit pack — lanes [Q·W/4, (Q+1)·W/4) — sign-extended
/// to 32 bits, in a pack of the same byte width.  The difference chunk
/// kernel folds its 8-bit lanes into per-lane int32 scores this way.
/// One extract and one vpmovsxbd on the two vector shapes: GCC 12 lowers
/// the generic shuffle-and-convert of an upper quarter to one byte
/// extract per lane.
template <int Q, int W>
[[nodiscard]] ANYSEQ_INLINE pack<std::int32_t, W / 4> widen_quarter(
    pack<std::int8_t, W> a) noexcept {
  static_assert(Q >= 0 && Q < 4 && W >= 4, "a quarter of the lanes");
  using R = pack<std::int32_t, W / 4>;
#if defined(__AVX512BW__)
  if constexpr (W == 64) {
    // The zero-masking forms: GCC 12's unmasked ones start from an
    // "undefined" vector that trips -Wmaybe-uninitialized.
    const __m128i q = _mm512_maskz_extracti32x4_epi32(
        0xF, std::bit_cast<__m512i>(a.v), Q);
    return {std::bit_cast<typename R::storage>(
        _mm512_maskz_cvtepi8_epi32(0xFFFF, q))};
  }
#endif
#if defined(__AVX2__)
  if constexpr (W == 32) {
    __m128i half =
        _mm256_extracti128_si256(std::bit_cast<__m256i>(a.v), Q / 2);
    if constexpr (Q % 2 == 1) half = _mm_srli_si128(half, 8);
    return {std::bit_cast<typename R::storage>(_mm256_cvtepi8_epi32(half))};
  }
#endif
  R r;
  for (int i = 0; i < W / 4; ++i) r.v[i] = a.v[Q * (W / 4) + i];
  return r;
}

/// Per-lane substitution-table gather (paper: matrix scoring on SIMD).
template <any_pack P, class T, int W>
[[nodiscard]] ANYSEQ_INLINE P vlookup(const score_t* table, int stride,
                                      pack<T, W> q, pack<T, W> s) noexcept {
  static_assert(W == P::lanes, "char pack and score pack must agree");
  P r;
  for (int i = 0; i < W; ++i)
    r.v[i] = static_cast<typename P::value_type>(
        table[static_cast<int>(q.v[i]) * stride + static_cast<int>(s.v[i])]);
  return r;
}

// ---------------------------------------------------------------------------
// AVX2 intrinsic overloads: 16 lanes x 16-bit scores (the paper's CPU
// configuration) and 32 lanes x 8-bit scores (the int8 route).
// ---------------------------------------------------------------------------
#if defined(__AVX2__)

using s16x16 = pack<score16_t, 16>;
using s8x32 = pack<score8_t, 32>;

[[nodiscard]] ANYSEQ_INLINE __m256i to_reg(const s16x16& p) noexcept {
  return std::bit_cast<__m256i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s16x16 from_reg(__m256i r) noexcept {
  return {std::bit_cast<s16x16::storage>(r)};
}
[[nodiscard]] ANYSEQ_INLINE __m256i to_reg(const s8x32& p) noexcept {
  return std::bit_cast<__m256i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s8x32 from_reg8(__m256i r) noexcept {
  return {std::bit_cast<s8x32::storage>(r)};
}

// GCC 12 has no generic saturating add: the lane loop widens and clamps.
[[nodiscard]] ANYSEQ_INLINE s16x16 vadd(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_adds_epi16(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vadd(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_adds_epi8(to_reg(a), to_reg(b)));
}
// One vpblendvb; the generic bitwise blend compiles to three ops.
[[nodiscard]] ANYSEQ_INLINE s16x16 vselect(s16x16 m, s16x16 a,
                                           s16x16 b) noexcept {
  return from_reg(_mm256_blendv_epi8(to_reg(b), to_reg(a), to_reg(m)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vselect(s8x32 m, s8x32 a,
                                          s8x32 b) noexcept {
  return from_reg8(_mm256_blendv_epi8(to_reg(b), to_reg(a), to_reg(m)));
}

// vperm2i128 + vpalignr; the generic shuffle takes up to 9 instructions for
// some shift counts.  vshift_up across the two 128-bit halves: `t` holds
// [fill | a.lo], and a per-half byte align pulls the low half's top lanes
// into the high half (and fill into the low half).
template <int S>
[[nodiscard]] ANYSEQ_INLINE s16x16 vshift_up(s16x16 a,
                                             score16_t fill) noexcept {
  static_assert(S > 0 && S < 16, "shift must move lanes inside the pack");
  const __m256i r = to_reg(a);
  const __m256i t =
      _mm256_permute2x128_si256(r, _mm256_set1_epi16(fill), 0x02);
  if constexpr (S == 8) {
    return from_reg(t);
  } else if constexpr (S < 8) {
    return from_reg(_mm256_alignr_epi8(r, t, 16 - 2 * S));
  } else {
    return from_reg(_mm256_alignr_epi8(t, _mm256_set1_epi16(fill),
                                       32 - 2 * S));
  }
}

/// vshift_down across the two 128-bit halves: `t` holds [a.hi | fill],
/// and a per-half byte align pulls the high half's bottom lanes into the
/// low half (and fill into the high half).
template <int S>
[[nodiscard]] ANYSEQ_INLINE s16x16 vshift_down(s16x16 a,
                                               score16_t fill) noexcept {
  static_assert(S > 0 && S < 16, "shift must move lanes inside the pack");
  const __m256i r = to_reg(a);
  const __m256i f = _mm256_set1_epi16(fill);
  const __m256i t = _mm256_permute2x128_si256(r, f, 0x21);
  if constexpr (S == 8) {
    return from_reg(t);
  } else if constexpr (S < 8) {
    return from_reg(_mm256_alignr_epi8(t, r, 2 * S));
  } else {
    return from_reg(_mm256_alignr_epi8(f, t, 2 * S - 16));
  }
}

#endif  // __AVX2__

// ---------------------------------------------------------------------------
// AVX-512BW intrinsic overloads: 32 lanes x 16-bit scores (the paper's
// AVX-512 configuration) and 64 lanes x 8-bit scores (the int8 route).
// Only the saturating adds: every other op is the generic operator, whose
// compares the compiler keeps in k-masks and fuses into their blends.
// ---------------------------------------------------------------------------
#if defined(__AVX512BW__)

using s16x32 = pack<score16_t, 32>;
using s8x64 = pack<score8_t, 64>;

// GCC 12 has no generic saturating add: the lane loop widens and clamps.
[[nodiscard]] ANYSEQ_INLINE s16x32 vadd(s16x32 a, s16x32 b) noexcept {
  return {std::bit_cast<s16x32::storage>(_mm512_adds_epi16(
      std::bit_cast<__m512i>(a.v), std::bit_cast<__m512i>(b.v)))};
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vadd(s8x64 a, s8x64 b) noexcept {
  return {std::bit_cast<s8x64::storage>(_mm512_adds_epi8(
      std::bit_cast<__m512i>(a.v), std::bit_cast<__m512i>(b.v)))};
}

#endif  // __AVX512BW__

}  // namespace simd
}  // namespace ANYSEQ_TARGET_NS

/// Mask type of a pack is a pack of the same shape (one specialization per
/// target: the pack types differ by namespace).
template <class T, int W>
struct mask_of<ANYSEQ_TARGET_NS::simd::pack<T, W>> {
  using type = ANYSEQ_TARGET_NS::simd::pack_mask<T, W>;
};

}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
/// Historical un-suffixed names for baseline code: the scalar target *is*
/// the baseline, so `anyseq::simd::pack` aliases `anyseq::v_scalar`'s
/// clone.  Lane-wise operations need no export — ADL finds them in the
/// pack's own namespace.
namespace anyseq::simd {
using v_scalar::simd::pack;
using v_scalar::simd::pack_mask;
using v_scalar::simd::is_pack_v;
template <class P>
concept any_pack = v_scalar::simd::any_pack<P>;
#if defined(__AVX2__)
using v_scalar::simd::s16x16;
using v_scalar::simd::s8x32;
#endif
}  // namespace anyseq::simd
#endif  // scalar exports
