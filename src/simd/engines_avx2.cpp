/// \file engines_avx2.cpp
/// The 16-lane engine variant (`anyseq::v_avx2`; paper's AVX2
/// configuration: 16-bit scores x 16 lanes = one 256-bit register).
///
/// On x86-64 the build compiles this TU with -mavx2 (see
/// src/CMakeLists.txt), which turns on the few AVX2 intrinsic overloads
/// in simd/pack.hpp and lets the compiler lower every other pack op to
/// VEX code.  On any other architecture — or with
/// -DANYSEQ_DISABLE_SIMD=ON — the exact same code compiles as portable
/// fixed-width scalar loops, so the variant exists (and produces identical
/// results) everywhere; the table's `native` flag reports which case this
/// is.  Either way every symbol lives in `anyseq::v_avx2`, so this TU's
/// codegen can never be linked into baseline code paths.

#include "simd/targets.hpp"

#define ANYSEQ_TARGET ANYSEQ_TARGET_AVX2
#include "anyseq/engine_impl.hpp"

namespace anyseq::engine {

const ops& ops_x16() { return v_avx2::engine::variant_ops(); }

}  // namespace anyseq::engine
