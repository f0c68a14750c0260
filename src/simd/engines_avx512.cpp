/// \file engines_avx512.cpp
/// The 32-lane engine variant (`anyseq::v_avx512`; paper's AVX-512
/// configuration: 16-bit scores x 32 lanes = one 512-bit register).
///
/// On x86-64 the build compiles this TU with -mavx512bw (see
/// src/CMakeLists.txt), which turns on the saturating-add intrinsics for
/// the 32 x int16 and 64 x int8 packs in simd/pack.hpp (GCC's own
/// lowering of the generic saturating lane loop is ~6x slower) and lets
/// the compiler lower every other pack op to AVX-512 code.  Elsewhere the
/// TU compiles as portable scalar loops — same results, no special
/// hardware; the table's `native` flag reports which case this is.  Either way every symbol lives in
/// `anyseq::v_avx512`, isolated from baseline and v_avx2 code.

#include "simd/targets.hpp"

#define ANYSEQ_TARGET ANYSEQ_TARGET_AVX512
#include "anyseq/engine_impl.hpp"

namespace anyseq::engine {

const ops& ops_x32() { return v_avx512::engine::variant_ops(); }

}  // namespace anyseq::engine
