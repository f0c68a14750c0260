/// \file pack_isa_test.cpp
/// The vector variants' pack ops (simd/pack.hpp), lane by lane against a
/// plain scalar reference: the AVX-512BW s16x32 / s8x64 packs the
/// 32-lane engine runs and the AVX2 s16x16 / s8x32 ones, the int32 packs
/// the band pass runs outside the int16 window (16 lanes under AVX-512BW,
/// 8 under AVX2), and the int16 and int32 lane shifts (vshift_up /
/// vshift_down at every amount).  Inputs are random lanes plus every
/// pairing of the rail values — the type's min and max, the -inf
/// sentinel, and sums that saturate both ways.  The ops are compiled in
/// pack_isa_kernels.cpp (the ISA-flagged TUs); this TU skips when the
/// CPU lacks AVX-512BW.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/types.hpp"
#include "pack_isa_kernels.hpp"
#include "simd/detect.hpp"

namespace anyseq::test::pack_isa {
namespace {

constexpr op kOps[] = {op::max,    op::add,       op::gt,
                       op::eq,     op::select,    op::select_eq,
                       op::and_,   op::andnot};

const char* name(op o) {
  switch (o) {
    case op::max: return "vmax";
    case op::add: return "vadd";
    case op::gt: return "vgt";
    case op::eq: return "veq";
    case op::select: return "vselect";
    case op::select_eq: return "vselect_eq";
    case op::and_: return "vand";
    case op::andnot: return "vandnot";
  }
  return "?";
}

/// What one lane of `o` must produce: saturating add, 0 / all-ones
/// comparison masks, bitwise logic, m ? a : b selection, and
/// a == b ? m : b for the fused compare-and-blend.
template <class T>
T reference(op o, T m, T a, T b) {
  constexpr int lo = std::numeric_limits<T>::min();
  constexpr int hi = std::numeric_limits<T>::max();
  switch (o) {
    case op::max: return std::max(a, b);
    case op::add: return static_cast<T>(std::clamp(a + b, lo, hi));
    case op::gt: return static_cast<T>(a > b ? -1 : 0);
    case op::eq: return static_cast<T>(a == b ? -1 : 0);
    case op::select: return m != 0 ? a : b;
    case op::select_eq: return a == b ? m : b;
    case op::and_: return static_cast<T>(a & b);
    case op::andnot: return static_cast<T>(a & ~b);
  }
  return 0;
}

/// Operand sets for one pack width: random lanes, then every ordered
/// pairing of the rail values laid out lane after lane.
template <class T>
struct operands {
  std::vector<T> m, a, b;  // whole packs, back to back
};

template <class T, int Lanes>
operands<T> make_operands(T sentinel) {
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  const T rails[] = {lo,
                     static_cast<T>(lo + 1),
                     hi,
                     static_cast<T>(hi - 1),
                     sentinel,
                     static_cast<T>(hi / 2 + 1),   // +big: saturates high
                     static_cast<T>(lo / 2 - 1),   // -big: saturates low
                     0,
                     1,
                     -1};
  operands<T> o;
  std::mt19937_64 rng(20201);
  std::uniform_int_distribution<int> any(lo, hi);
  for (int i = 0; i < 64 * Lanes; ++i) {
    o.a.push_back(static_cast<T>(any(rng)));
    o.b.push_back(static_cast<T>(i % 5 == 0 ? o.a.back() : any(rng)));
  }
  for (const T x : rails)
    for (const T y : rails) {
      o.a.push_back(x);
      o.b.push_back(y);
    }
  while (o.a.size() % Lanes != 0) {
    o.a.push_back(rails[o.a.size() % std::size(rails)]);
    o.b.push_back(rails[(o.a.size() * 3) % std::size(rails)]);
  }
  // Masks hold 0 / all-ones lanes — the contract every kernel keeps.
  for (std::size_t i = 0; i < o.a.size(); ++i)
    o.m.push_back(static_cast<T>((rng() & 1) != 0 ? -1 : 0));
  return o;
}

template <class T, int Lanes, class Apply>
void check_pack(const char* pack_name, T sentinel, Apply apply) {
  const operands<T> in = make_operands<T, Lanes>(sentinel);
  for (const op o : kOps) {
    for (std::size_t base = 0; base < in.a.size(); base += Lanes) {
      alignas(64) T m[Lanes], a[Lanes], b[Lanes], got[Lanes];
      std::copy_n(in.m.begin() + static_cast<std::ptrdiff_t>(base), Lanes, m);
      std::copy_n(in.a.begin() + static_cast<std::ptrdiff_t>(base), Lanes, a);
      std::copy_n(in.b.begin() + static_cast<std::ptrdiff_t>(base), Lanes, b);
      // int32 lanes add plainly: the headroom of core/types.hpp keeps
      // every sum in range, so feed vadd only sums that fit (up to the
      // rails themselves).
      if constexpr (sizeof(T) == 4) {
        constexpr T lo = std::numeric_limits<T>::min();
        constexpr T hi = std::numeric_limits<T>::max();
        for (int l = 0; o == op::add && l < Lanes; ++l)
          b[l] = std::clamp<T>(b[l], lo - std::min<T>(a[l], 0),
                               hi - std::max<T>(a[l], 0));
      }
      apply(o, m, a, b, got);
      for (int l = 0; l < Lanes; ++l)
        ASSERT_EQ(static_cast<int>(got[l]),
                  static_cast<int>(reference<T>(o, m[l], a[l], b[l])))
            << pack_name << " " << name(o) << " lane " << l << ": m "
            << static_cast<int>(m[l]) << " a " << static_cast<int>(a[l])
            << " b " << static_cast<int>(b[l]);
    }
  }
}

/// Every shift amount and direction of one int16 or int32 pack, lane by
/// lane: lane i reads lane i - s (up) or i + s (down); vacated lanes read
/// the fill — the rails, the -inf sentinel, 0 and -1 among them.
template <class T, int Lanes, class Shift>
void check_shifts(const char* pack_name, T sentinel, Shift shift) {
  const operands<T> in = make_operands<T, Lanes>(sentinel);
  const T fills[] = {std::numeric_limits<T>::min(),
                     std::numeric_limits<T>::max(), sentinel, 0, -1, 7};
  for (const bool down : {false, true})
    for (int s = 1; s < Lanes; ++s)
      for (const T fill : fills)
        for (std::size_t base = 0; base < in.a.size(); base += Lanes) {
          alignas(64) T a[Lanes], got[Lanes];
          std::copy_n(in.a.begin() + static_cast<std::ptrdiff_t>(base),
                      Lanes, a);
          shift(down, s, fill, a, got);
          for (int l = 0; l < Lanes; ++l) {
            const int from = down ? l + s : l - s;
            const T want = from >= 0 && from < Lanes ? a[from] : fill;
            ASSERT_EQ(got[l], want)
                << pack_name << (down ? " vshift_down<" : " vshift_up<") << s
                << "> fill " << fill << " lane " << l;
          }
        }
}

class PackIsa : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::detect().avx512bw)
      GTEST_SKIP() << "CPU lacks AVX-512BW";
  }
};

TEST_F(PackIsa, S16x32MatchesScalarReference) {
  check_pack<std::int16_t, 32>("s16x32", neg_inf16(), apply_s16x32);
}

TEST_F(PackIsa, S8x64MatchesScalarReference) {
  check_pack<std::int8_t, 64>("s8x64", neg_inf8(), apply_s8x64);
}

TEST_F(PackIsa, S16x16MatchesScalarReference) {
  check_pack<std::int16_t, 16>("s16x16", neg_inf16(), apply_s16x16);
}

TEST_F(PackIsa, S8x32MatchesScalarReference) {
  check_pack<std::int8_t, 32>("s8x32", neg_inf8(), apply_s8x32);
}

TEST_F(PackIsa, S32x16MatchesScalarReference) {
  check_pack<std::int32_t, 16>("s32x16", neg_inf(), apply_s32x16);
}

TEST_F(PackIsa, S32x8MatchesScalarReference) {
  check_pack<std::int32_t, 8>("s32x8", neg_inf(), apply_s32x8);
}

TEST_F(PackIsa, S16x32ShiftsMatchScalarReference) {
  check_shifts<std::int16_t, 32>("s16x32", neg_inf16(), shift_s16x32);
}

TEST_F(PackIsa, S16x16ShiftsMatchScalarReference) {
  check_shifts<std::int16_t, 16>("s16x16", neg_inf16(), shift_s16x16);
}

TEST_F(PackIsa, S32x16ShiftsMatchScalarReference) {
  check_shifts<std::int32_t, 16>("s32x16", neg_inf(), shift_s32x16);
}

TEST_F(PackIsa, S32x8ShiftsMatchScalarReference) {
  check_shifts<std::int32_t, 8>("s32x8", neg_inf(), shift_s32x8);
}

}  // namespace
}  // namespace anyseq::test::pack_isa
