#include "simd/pack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

namespace anyseq::simd {
namespace {

using s16 = pack<score16_t, 16>;
using s16w = pack<score16_t, 32>;
using s32 = pack<score_t, 8>;

template <class P>
P iota(typename P::value_type start) {
  P p;
  for (int i = 0; i < P::lanes; ++i)
    p.v[i] = static_cast<typename P::value_type>(start + i);
  return p;
}

/// `x` clamped into the lane type, as the saturating narrow lanes add.
template <class P>
int clamp_lane(int x) {
  using T = typename P::value_type;
  if constexpr (sizeof(T) > 2) return x;
  return std::clamp<int>(x, std::numeric_limits<T>::min(),
                         std::numeric_limits<T>::max());
}

/// Every shape an engine variant instantiates — the int16 lanes of the
/// 16- and 32-lane variants and their int8 doubles, the scalar variant's
/// two-lane stripe and single-lane vector, and the band pass's int32
/// lanes (8 and 16: one AVX2 / AVX-512 register).
template <class P>
class PackOps : public ::testing::Test {};
using PackTypes =
    ::testing::Types<s16, s16w, s32, pack<score8_t, 32>, pack<score8_t, 64>,
                     pack<score16_t, 2>, pack<score16_t, 1>,
                     pack<score8_t, 2>, pack<score_t, 16>>;
TYPED_TEST_SUITE(PackOps, PackTypes);

TYPED_TEST(PackOps, LayoutIsExactlyTheLanes) {
  using T = typename TypeParam::value_type;
  static_assert(sizeof(TypeParam) == sizeof(T) * TypeParam::lanes);
  static_assert(alignof(TypeParam) <= 64);
  static_assert(is_pack_v<TypeParam>);
  static_assert(std::is_trivially_copyable_v<TypeParam>);
}

TYPED_TEST(PackOps, LanesRoundTripThroughArray) {
  auto p = iota<TypeParam>(-2);
  const auto a = p.to_array();
  for (int i = 0; i < TypeParam::lanes; ++i) EXPECT_EQ(a[i], p[i]) << i;
}

TYPED_TEST(PackOps, BroadcastFillsAllLanes) {
  auto p = TypeParam::broadcast(7);
  for (int i = 0; i < TypeParam::lanes; ++i) EXPECT_EQ(p[i], 7);
}

TYPED_TEST(PackOps, LoadStoreRoundTrip) {
  auto p = iota<TypeParam>(3);
  typename TypeParam::value_type buf[TypeParam::lanes];
  p.store(buf);
  auto q = TypeParam::load(buf);
  EXPECT_EQ(p, q);
}

TYPED_TEST(PackOps, MaxIsLaneWise) {
  auto a = iota<TypeParam>(0);
  auto b = TypeParam::broadcast(5);
  auto m = vmax(a, b);
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(m[i], std::max<int>(i, 5));
}

TYPED_TEST(PackOps, AddIsLaneWise) {
  auto a = iota<TypeParam>(1);
  auto b = iota<TypeParam>(10);
  auto r = vadd(a, b);
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(r[i], clamp_lane<TypeParam>(11 + 2 * i)) << i;
}

TYPED_TEST(PackOps, CompareAndSelect) {
  auto a = iota<TypeParam>(0);
  auto b = TypeParam::broadcast(4);
  auto m = vgt(a, b);  // lanes 5.. true
  auto sel = vselect(m, TypeParam::broadcast(1), TypeParam::broadcast(0));
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(sel[i], i > 4 ? 1 : 0) << i;
}

TYPED_TEST(PackOps, EqMask) {
  auto a = iota<TypeParam>(0);
  auto b = TypeParam::broadcast(3);
  auto m = veq(a, b);
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(m[i] != 0, i == 3) << i;
}

TYPED_TEST(PackOps, SelectEqIsLaneWise) {
  auto a = iota<TypeParam>(0);
  auto b = TypeParam::broadcast(3);
  b.set(0, 0);  // lanes 0 and 3 match
  auto r = vselect_eq(a, b, TypeParam::broadcast(2), TypeParam::broadcast(-1));
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(r[i], i == 0 || i == 3 ? 2 : -1) << i;
}

TYPED_TEST(PackOps, AndOnMasks) {
  auto a = iota<TypeParam>(0);
  auto lo = vgt(TypeParam::broadcast(2), a);   // i < 2... lanes 0,1
  auto hi = vgt(a, TypeParam::broadcast(4));   // i > 4
  auto neither = vand(lo, hi);
  for (int i = 0; i < TypeParam::lanes; ++i)
    EXPECT_EQ(neither[i] != 0, false) << i;
}

/// vshift_up<S> / vshift_down<S>: lane i reads lane i - S / i + S, and
/// the S lanes vacated at the bottom / top read `fill`.
template <int S, class P>
void expect_shifts(typename P::value_type fill) {
  const auto a = iota<P>(1);
  const auto up = vshift_up<S>(a, fill);
  const auto down = vshift_down<S>(a, fill);
  for (int i = 0; i < P::lanes; ++i) {
    EXPECT_EQ(up[i], i < S ? fill : a[i - S])
        << "up by " << S << ", lane " << i;
    EXPECT_EQ(down[i], i + S < P::lanes ? a[i + S] : fill)
        << "down by " << S << ", lane " << i;
  }
}

TYPED_TEST(PackOps, ShiftsMoveLanesBothWaysAndFill) {
  using T = typename TypeParam::value_type;
  constexpr int W = TypeParam::lanes;
  if constexpr (W > 1) {
    for (const T fill : {T{0}, T{-1}, std::numeric_limits<T>::min(),
                         std::numeric_limits<T>::max()}) {
      expect_shifts<1, TypeParam>(fill);
      expect_shifts<W / 2, TypeParam>(fill);
      expect_shifts<W - 1, TypeParam>(fill);
    }
  }
}

TYPED_TEST(PackOps, BroadcastViaCoreHook) {
  auto p = vbroadcast<TypeParam>(9);
  for (int i = 0; i < TypeParam::lanes; ++i) EXPECT_EQ(p[i], 9);
}

TEST(Pack16, SaturatingAddClampsAtBounds) {
  auto big = s16::broadcast(32000);
  auto r = vadd(big, s16::broadcast(1000));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r[i], 32767);
  auto small = s16::broadcast(-32000);
  auto r2 = vadd(small, s16::broadcast(-1000));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r2[i], -32768);
}

TEST(Pack16, NegInfSentinelStaysNegative) {
  auto ninf = s16::broadcast(neg_inf16());
  auto r = vadd(ninf, s16::broadcast(-10000));
  for (int i = 0; i < 16; ++i) EXPECT_LT(r[i], neg_inf16() / 2);
}

TEST(Pack32, PlainAddDoesNotSaturate) {
  auto a = s32::broadcast(1 << 30);
  auto r = vadd(a, s32::broadcast(5));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r[i], (1 << 30) + 5);
}

TEST(PackLookup, GathersPerLane) {
  // 2x2 table: t[a][b].
  const score_t table[4] = {10, 20, 30, 40};
  pack<score16_t, 16> q, s;
  for (int i = 0; i < 16; ++i) {
    q.v[i] = static_cast<score16_t>(i % 2);
    s.v[i] = static_cast<score16_t>((i / 2) % 2);
  }
  auto r = vlookup<pack<score16_t, 16>>(table, 2, q, s);
  for (int i = 0; i < 16; ++i) {
    const int want = table[(i % 2) * 2 + (i / 2) % 2];
    EXPECT_EQ(r[i], want) << i;
  }
}

}  // namespace
}  // namespace anyseq::simd
