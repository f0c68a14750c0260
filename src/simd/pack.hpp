/// \file pack.hpp
/// Portable fixed-width SIMD value type (per-target header).
///
/// `pack<T, W>` is the C++ analogue of what Impala's `vectorize` generator
/// produces: core::relax instantiated with a pack type becomes a straight
/// line of vector instructions, with no SIMD-specific code in the
/// recurrence itself (paper §IV-A: "A major advantage of our approach is
/// that the vectorize generator supports several SIMD instruction sets").
///
/// The generic implementation is a fixed-size loop the compiler's
/// auto-vectorizer maps onto whatever ISA the TU's flags enable.  The
/// auto-vectorizer is not enough for the saturating 16-bit lanes: GCC 12
/// at -O3 -mavx512bw lowers the generic 32-lane `vadd` to a
/// widen-to-int32 / clamp / narrow sequence, about 3x slower per cell
/// than the AVX2 16-lane kernel.  So every configuration the engines
/// run has hand-written intrinsic overloads: AVX2 for the paper's
/// 16 x int16 variant (and 32 x int8), AVX-512BW for its 32 x int16
/// AVX-512 variant (and 64 x int8).  The generic loops remain for the
/// scalar variant and for builds without the ISA flags.
///
/// Storage is a native GCC/Clang vector (`vector_size`), so a pack is a
/// register value: kernels carry it across loop iterations without a
/// stack round trip, lane access stays `p.v[i]`, and `to_reg`/`from_reg`
/// are bit-casts, not loads and stores.
///
/// Masks are packs of the same shape holding 0 / all-ones lanes, so
/// `vselect` is a bitwise blend exactly as on real vector units.  Where a
/// mask feeds one blend only, `vselect_eq(a, b, x, y)` fuses the compare
/// and the blend: on AVX-512 the k-mask never widens into a vector.
///
/// This is a *per-target* header: its content compiles into
/// `anyseq::ANYSEQ_TARGET_NS::simd`, so the pack type — and every template
/// downstream instantiated with it — carries its engine variant in the
/// symbol name and can never share a COMDAT with another variant's code.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_SIMD_PACK_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_SIMD_PACK_HPP_
#undef ANYSEQ_SIMD_PACK_HPP_
#else
#define ANYSEQ_SIMD_PACK_HPP_
#endif

#include <array>
#include <bit>
#include <cstring>

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

  [[nodiscard]] static ANYSEQ_INLINE pack broadcast(T x) noexcept {
    pack p;
    for (int i = 0; i < W; ++i) p.v[i] = x;
    return p;
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
// Generic lane-wise operations (overload set core::relax resolves via ADL).
// ---------------------------------------------------------------------------

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vmax(pack<T, W> a, pack<T, W> b) noexcept {
  pack<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}

/// Saturating add for 16-bit lanes (keeps the -inf sentinel pinned), plain
/// add for 32-bit lanes (the headroom argument of core/types.hpp applies).
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vadd(pack<T, W> a, pack<T, W> b) noexcept {
  pack<T, W> r;
  if constexpr (sizeof(T) <= 2) {
    for (int i = 0; i < W; ++i) {
      const int wide = static_cast<int>(a.v[i]) + static_cast<int>(b.v[i]);
      const int lo = std::numeric_limits<T>::min();
      const int hi = std::numeric_limits<T>::max();
      r.v[i] = static_cast<T>(wide < lo ? lo : (wide > hi ? hi : wide));
    }
  } else {
    for (int i = 0; i < W; ++i) r.v[i] = static_cast<T>(a.v[i] + b.v[i]);
  }
  return r;
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vgt(pack<T, W> a,
                                                pack<T, W> b) noexcept {
  pack_mask<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? static_cast<T>(-1) : 0;
  return r;
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> veq(pack<T, W> a,
                                                pack<T, W> b) noexcept {
  pack_mask<T, W> r;
  for (int i = 0; i < W; ++i)
    r.v[i] = a.v[i] == b.v[i] ? static_cast<T>(-1) : 0;
  return r;
}

/// Bitwise blend: lane from `a` where mask set, else from `b`.
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vselect(pack_mask<T, W> m, pack<T, W> a,
                                               pack<T, W> b) noexcept {
  pack<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = m.v[i] ? a.v[i] : b.v[i];
  return r;
}

/// `a == b ? x : y` lane-wise — the substitution score's compare and
/// blend as one operation.
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vselect_eq(pack<T, W> a, pack<T, W> b,
                                                  pack<T, W> x,
                                                  pack<T, W> y) noexcept {
  return vselect(veq(a, b), x, y);
}

template <any_pack P>
[[nodiscard]] ANYSEQ_INLINE P vbroadcast(score_t x) noexcept {
  return P::broadcast(static_cast<typename P::value_type>(x));
}

template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vand(pack_mask<T, W> a,
                                                 pack_mask<T, W> b) noexcept {
  pack_mask<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = static_cast<T>(a.v[i] & b.v[i]);
  return r;
}

/// a & ~b — mask subtraction (one ANDN instruction on real vector
/// units).  The ragged batch kernel derives its per-column retirement
/// masks with it: colend[j] = colmask[j] & ~colmask[j + 1].
template <class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack_mask<T, W> vandnot(pack_mask<T, W> a,
                                                    pack_mask<T, W> b) noexcept {
  pack_mask<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = static_cast<T>(a.v[i] & ~b.v[i]);
  return r;
}

/// Lane shift toward higher indices: lane i takes lane i - S, the S
/// lowest lanes take `fill`.  The cross-lane carry of the striped kernel
/// (tiled/striped.hpp); called qualified, `simd::vshift_up<S>(p, fill)`.
template <int S, class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vshift_up(pack<T, W> a,
                                                 T fill) noexcept {
  static_assert(S > 0 && S < W, "shift must move lanes inside the pack");
  pack<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = i < S ? fill : a.v[i - S];
  return r;
}

/// Lane shift toward lower indices: lane i takes lane i + S, the S
/// highest lanes take `fill`.  The anti-diagonal band pass's carry
/// (core/banded.hpp), mirroring vshift_up.
template <int S, class T, int W>
[[nodiscard]] ANYSEQ_INLINE pack<T, W> vshift_down(pack<T, W> a,
                                                   T fill) noexcept {
  static_assert(S > 0 && S < W, "shift must move lanes inside the pack");
  pack<T, W> r;
  for (int i = 0; i < W; ++i) r.v[i] = i + S < W ? a.v[i + S] : fill;
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
// AVX2 intrinsic overloads for the paper's CPU configuration:
// 16 lanes x 16-bit scores (one 256-bit register).
// ---------------------------------------------------------------------------
#if defined(__AVX2__)

using s16x16 = pack<score16_t, 16>;

[[nodiscard]] ANYSEQ_INLINE __m256i to_reg(const s16x16& p) noexcept {
  return std::bit_cast<__m256i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s16x16 from_reg(__m256i r) noexcept {
  return {std::bit_cast<s16x16::storage>(r)};
}

[[nodiscard]] ANYSEQ_INLINE s16x16 vmax(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_max_epi16(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s16x16 vadd(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_adds_epi16(to_reg(a), to_reg(b)));  // saturating
}
[[nodiscard]] ANYSEQ_INLINE s16x16 vgt(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_cmpgt_epi16(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s16x16 veq(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_cmpeq_epi16(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s16x16 vselect(s16x16 m, s16x16 a,
                                           s16x16 b) noexcept {
  return from_reg(_mm256_blendv_epi8(to_reg(b), to_reg(a), to_reg(m)));
}
[[nodiscard]] ANYSEQ_INLINE s16x16 vand(s16x16 a, s16x16 b) noexcept {
  return from_reg(_mm256_and_si256(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s16x16 vandnot(s16x16 a, s16x16 b) noexcept {
  // _mm256_andnot_si256 computes ~first & second; vandnot is a & ~b.
  return from_reg(_mm256_andnot_si256(to_reg(b), to_reg(a)));
}
/// vshift_up across the two 128-bit halves: `t` holds [fill | a.lo], and
/// a per-half byte align pulls the low half's top lanes into the high
/// half (and fill into the low half).
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

// ---------------------------------------------------------------------------
// AVX2 intrinsic overloads for the adaptive-precision configuration:
// 32 lanes x 8-bit scores (one 256-bit register, double the pair
// throughput of s16x16 when the score window fits int8).
// ---------------------------------------------------------------------------

using s8x32 = pack<score8_t, 32>;

[[nodiscard]] ANYSEQ_INLINE __m256i to_reg(const s8x32& p) noexcept {
  return std::bit_cast<__m256i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s8x32 from_reg8(__m256i r) noexcept {
  return {std::bit_cast<s8x32::storage>(r)};
}

[[nodiscard]] ANYSEQ_INLINE s8x32 vmax(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_max_epi8(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vadd(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_adds_epi8(to_reg(a), to_reg(b)));  // saturating
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vgt(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_cmpgt_epi8(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 veq(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_cmpeq_epi8(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vselect(s8x32 m, s8x32 a,
                                          s8x32 b) noexcept {
  return from_reg8(_mm256_blendv_epi8(to_reg(b), to_reg(a), to_reg(m)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vand(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_and_si256(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x32 vandnot(s8x32 a, s8x32 b) noexcept {
  return from_reg8(_mm256_andnot_si256(to_reg(b), to_reg(a)));
}

#endif  // __AVX2__

// ---------------------------------------------------------------------------
// AVX-512BW intrinsic overloads for the paper's AVX-512 configuration:
// 32 lanes x 16-bit scores, and the int8 route's 64 lanes x 8-bit scores
// (one 512-bit register each).  Comparisons produce k-masks; they are
// widened back to 0 / all-ones lanes (vpmovm2w / vpmovm2b) so masks keep
// the pack representation every kernel already uses, and vselect turns
// them back into a k-mask from the lane sign bits; vselect_eq keeps its
// k-mask and skips both conversions.
// ---------------------------------------------------------------------------
#if defined(__AVX512BW__)

using s16x32 = pack<score16_t, 32>;
using s8x64 = pack<score8_t, 64>;

[[nodiscard]] ANYSEQ_INLINE __m512i to_reg(const s16x32& p) noexcept {
  return std::bit_cast<__m512i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s16x32 from_reg(__m512i r) noexcept {
  return {std::bit_cast<s16x32::storage>(r)};
}

[[nodiscard]] ANYSEQ_INLINE s16x32 vmax(s16x32 a, s16x32 b) noexcept {
  return from_reg(_mm512_max_epi16(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s16x32 vadd(s16x32 a, s16x32 b) noexcept {
  return from_reg(_mm512_adds_epi16(to_reg(a), to_reg(b)));  // saturating
}
[[nodiscard]] ANYSEQ_INLINE s16x32 vgt(s16x32 a, s16x32 b) noexcept {
  return from_reg(
      _mm512_movm_epi16(_mm512_cmpgt_epi16_mask(to_reg(a), to_reg(b))));
}
[[nodiscard]] ANYSEQ_INLINE s16x32 veq(s16x32 a, s16x32 b) noexcept {
  return from_reg(
      _mm512_movm_epi16(_mm512_cmpeq_epi16_mask(to_reg(a), to_reg(b))));
}
[[nodiscard]] ANYSEQ_INLINE s16x32 vselect(s16x32 m, s16x32 a,
                                           s16x32 b) noexcept {
  // mask_blend takes its second operand where the k-bit is clear.
  return from_reg(_mm512_mask_blend_epi16(_mm512_movepi16_mask(to_reg(m)),
                                          to_reg(b), to_reg(a)));
}
/// The compare's k-mask drives the blend directly: no vpmovm2w /
/// vpmovw2m round trip through a vector mask.
[[nodiscard]] ANYSEQ_INLINE s16x32 vselect_eq(s16x32 a, s16x32 b, s16x32 x,
                                              s16x32 y) noexcept {
  return from_reg(_mm512_mask_blend_epi16(
      _mm512_cmpeq_epi16_mask(to_reg(a), to_reg(b)), to_reg(y), to_reg(x)));
}
[[nodiscard]] ANYSEQ_INLINE s16x32 vand(s16x32 a, s16x32 b) noexcept {
  return from_reg(_mm512_and_si512(to_reg(a), to_reg(b)));
}
/// a & ~b as one vpternlog (truth table 0x30 = A & ~B).  GCC 12's
/// _mm512_andnot_si512 trips -Wmaybe-uninitialized inside its own header.
[[nodiscard]] ANYSEQ_INLINE __m512i andnot512(__m512i a, __m512i b) noexcept {
  return _mm512_ternarylogic_epi64(a, b, b, 0x30);
}
[[nodiscard]] ANYSEQ_INLINE s16x32 vandnot(s16x32 a, s16x32 b) noexcept {
  return from_reg(andnot512(to_reg(a), to_reg(b)));
}
/// vshift_up as one two-table word permute (vpermt2w): lane i reads
/// `a` lane i - S (table 2) or, below S, the broadcast fill (table 1).
template <int S>
[[nodiscard]] ANYSEQ_INLINE s16x32 vshift_up(s16x32 a,
                                             score16_t fill) noexcept {
  static_assert(S > 0 && S < 32, "shift must move lanes inside the pack");
  alignas(64) static constexpr std::array<score16_t, 32> kIdx = [] {
    std::array<score16_t, 32> idx{};
    for (int i = 0; i < 32; ++i)
      idx[i] = static_cast<score16_t>(i < S ? 0 : 32 + i - S);
    return idx;
  }();
  return from_reg(_mm512_permutex2var_epi16(
      _mm512_set1_epi16(fill), _mm512_load_si512(kIdx.data()), to_reg(a)));
}

/// vshift_down as the mirrored vpermt2w: lane i reads `a` lane i + S
/// (table 1) or, from lane 32 - S up, the broadcast fill (table 2).
template <int S>
[[nodiscard]] ANYSEQ_INLINE s16x32 vshift_down(s16x32 a,
                                               score16_t fill) noexcept {
  static_assert(S > 0 && S < 32, "shift must move lanes inside the pack");
  alignas(64) static constexpr std::array<score16_t, 32> kIdx = [] {
    std::array<score16_t, 32> idx{};
    for (int i = 0; i < 32; ++i)
      idx[i] = static_cast<score16_t>(i + S < 32 ? i + S : 32);
    return idx;
  }();
  return from_reg(_mm512_permutex2var_epi16(
      to_reg(a), _mm512_load_si512(kIdx.data()), _mm512_set1_epi16(fill)));
}

[[nodiscard]] ANYSEQ_INLINE __m512i to_reg(const s8x64& p) noexcept {
  return std::bit_cast<__m512i>(p.v);
}
[[nodiscard]] ANYSEQ_INLINE s8x64 from_reg8(__m512i r) noexcept {
  return {std::bit_cast<s8x64::storage>(r)};
}

[[nodiscard]] ANYSEQ_INLINE s8x64 vmax(s8x64 a, s8x64 b) noexcept {
  return from_reg8(_mm512_max_epi8(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vadd(s8x64 a, s8x64 b) noexcept {
  return from_reg8(_mm512_adds_epi8(to_reg(a), to_reg(b)));  // saturating
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vgt(s8x64 a, s8x64 b) noexcept {
  return from_reg8(
      _mm512_movm_epi8(_mm512_cmpgt_epi8_mask(to_reg(a), to_reg(b))));
}
[[nodiscard]] ANYSEQ_INLINE s8x64 veq(s8x64 a, s8x64 b) noexcept {
  return from_reg8(
      _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(to_reg(a), to_reg(b))));
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vselect(s8x64 m, s8x64 a,
                                          s8x64 b) noexcept {
  return from_reg8(_mm512_mask_blend_epi8(_mm512_movepi8_mask(to_reg(m)),
                                          to_reg(b), to_reg(a)));
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vand(s8x64 a, s8x64 b) noexcept {
  return from_reg8(_mm512_and_si512(to_reg(a), to_reg(b)));
}
[[nodiscard]] ANYSEQ_INLINE s8x64 vandnot(s8x64 a, s8x64 b) noexcept {
  return from_reg8(andnot512(to_reg(a), to_reg(b)));
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

#endif  // per-target include guard
