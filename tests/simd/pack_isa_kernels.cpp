/// \file pack_isa_kernels.cpp
/// The pack ops compiled with a vector variant's ISA flags, once per
/// variant (tests/simd/CMakeLists.txt): this file with -mavx512bw -mavx2
/// into the `v_avx512` target namespace, and through
/// pack_isa_kernels_avx2.cpp with -mavx2 alone into `v_avx2` — each the
/// namespace whose library TU carries the same flags, so every pack
/// symbol emitted here matches the library's codegen.  Overload
/// resolution picks an exact-type intrinsic overload where one remains
/// (the saturating int16/int8 vadds, the AVX2 vselects and s16x16
/// shifts) and the generic vector-extension operator everywhere else.

#include "pack_isa_kernels.hpp"

#include <utility>

#include "simd/targets.hpp"
#if defined(__AVX512BW__)
#define ANYSEQ_TARGET ANYSEQ_TARGET_AVX512
#elif defined(__AVX2__)
#define ANYSEQ_TARGET ANYSEQ_TARGET_AVX2
#else
#error "pack_isa_kernels.cpp must be compiled with -mavx2 or -mavx512bw"
#endif
#include "simd/pack.hpp"

namespace anyseq::test::pack_isa {
namespace {

using namespace ::anyseq::ANYSEQ_TARGET_NS::simd;

template <class P, class T = typename P::value_type>
void apply(op o, const T* m, const T* a, const T* b, T* out) {
  const P pm = P::load(m), pa = P::load(a), pb = P::load(b);
  P r = pa;
  switch (o) {
    case op::max: r = vmax(pa, pb); break;
    case op::add: r = vadd(pa, pb); break;
    case op::gt: r = vgt(pa, pb); break;
    case op::eq: r = veq(pa, pb); break;
    case op::select: r = vselect(pm, pa, pb); break;
    case op::select_eq: r = vselect_eq(pa, pb, pm, pb); break;
    case op::and_: r = vand(pa, pb); break;
    case op::andnot: r = vandnot(pa, pb); break;
  }
  r.store(out);
}

/// Every shift amount 1 .. W-1 of both directions, selected at run time.
template <class P>
void shift(bool down, int s, typename P::value_type fill,
           const typename P::value_type* a, typename P::value_type* out) {
  const P pa = P::load(a);
  [&]<int... S>(std::integer_sequence<int, S...>) {
    ((s == S + 1 ? (down ? vshift_down<S + 1>(pa, fill)
                         : vshift_up<S + 1>(pa, fill))
                       .store(out)
                 : void()),
     ...);
  }(std::make_integer_sequence<int, P::lanes - 1>{});
}

}  // namespace

#if defined(__AVX512BW__)

void shift_s16x32(bool down, int s, std::int16_t fill, const std::int16_t* a,
                  std::int16_t* out) {
  shift<s16x32>(down, s, fill, a, out);
}
void shift_s32x16(bool down, int s, std::int32_t fill, const std::int32_t* a,
                  std::int32_t* out) {
  shift<pack<score_t, 16>>(down, s, fill, a, out);
}

void apply_s16x32(op o, const std::int16_t* m, const std::int16_t* a,
                  const std::int16_t* b, std::int16_t* out) {
  apply<s16x32>(o, m, a, b, out);
}
void apply_s8x64(op o, const std::int8_t* m, const std::int8_t* a,
                 const std::int8_t* b, std::int8_t* out) {
  apply<s8x64>(o, m, a, b, out);
}
void apply_s32x16(op o, const std::int32_t* m, const std::int32_t* a,
                  const std::int32_t* b, std::int32_t* out) {
  apply<pack<score_t, 16>>(o, m, a, b, out);
}

#else

void shift_s16x16(bool down, int s, std::int16_t fill, const std::int16_t* a,
                  std::int16_t* out) {
  shift<s16x16>(down, s, fill, a, out);
}
void shift_s32x8(bool down, int s, std::int32_t fill, const std::int32_t* a,
                 std::int32_t* out) {
  shift<pack<score_t, 8>>(down, s, fill, a, out);
}

void apply_s16x16(op o, const std::int16_t* m, const std::int16_t* a,
                  const std::int16_t* b, std::int16_t* out) {
  apply<s16x16>(o, m, a, b, out);
}
void apply_s8x32(op o, const std::int8_t* m, const std::int8_t* a,
                 const std::int8_t* b, std::int8_t* out) {
  apply<s8x32>(o, m, a, b, out);
}
void apply_s32x8(op o, const std::int32_t* m, const std::int32_t* a,
                 const std::int32_t* b, std::int32_t* out) {
  apply<pack<score_t, 8>>(o, m, a, b, out);
}

#endif

}  // namespace anyseq::test::pack_isa
