#pragma once
/// \file pack_isa_kernels.hpp
/// Plain-function window onto the pack ops of the vector variants,
/// defined in pack_isa_kernels.cpp — the only TUs compiled with ISA
/// flags: -mavx512bw -mavx2 for the 512-bit shapes, -mavx2 alone for the
/// 256-bit ones.  The gtest TU stays unflagged, so no gtest or std inline
/// function it shares with the library is ever emitted with AVX-512 code,
/// and it can skip cleanly on a CPU without AVX-512BW before calling in here.

#include <cstdint>

namespace anyseq::test::pack_isa {

enum class op { max, add, gt, eq, select, select_eq, and_, andnot };

/// out = op(a, b) lane-wise through the ops of one pack type (`select` computes m ? a : b, `select_eq` a == b ? m : b; the
/// other ops ignore m).  Every array holds exactly the pack's lane count.
void apply_s16x16(op o, const std::int16_t* m, const std::int16_t* a,
                  const std::int16_t* b, std::int16_t* out);
void apply_s16x32(op o, const std::int16_t* m, const std::int16_t* a,
                  const std::int16_t* b, std::int16_t* out);
void apply_s8x32(op o, const std::int8_t* m, const std::int8_t* a,
                 const std::int8_t* b, std::int8_t* out);
void apply_s8x64(op o, const std::int8_t* m, const std::int8_t* a,
                 const std::int8_t* b, std::int8_t* out);
void apply_s32x8(op o, const std::int32_t* m, const std::int32_t* a,
                 const std::int32_t* b, std::int32_t* out);
void apply_s32x16(op o, const std::int32_t* m, const std::int32_t* a,
                  const std::int32_t* b, std::int32_t* out);

/// out = vshift_down<s>(a, fill) when `down`, else vshift_up<s>(a, fill),
/// through the ops of one pack type; 0 < s < the pack's lane count.
void shift_s16x16(bool down, int s, std::int16_t fill, const std::int16_t* a,
                  std::int16_t* out);
void shift_s16x32(bool down, int s, std::int16_t fill, const std::int16_t* a,
                  std::int16_t* out);
void shift_s32x8(bool down, int s, std::int32_t fill, const std::int32_t* a,
                 std::int32_t* out);
void shift_s32x16(bool down, int s, std::int32_t fill, const std::int32_t* a,
                  std::int32_t* out);

}  // namespace anyseq::test::pack_isa
