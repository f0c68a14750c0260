/// \file set_target.hpp
/// Derive the per-target macros from `ANYSEQ_TARGET`, once per TU.
///
/// Every per-target header includes this first.  The first inclusion in a
/// TU derives the macros from `ANYSEQ_TARGET`, which defaults to the
/// scalar target when the TU has not defined it (any ordinary baseline
/// TU).  A later inclusion that finds a different `ANYSEQ_TARGET` — a TU
/// that selected its target after its first per-target include — stops
/// with an `#error`: the headers already compiled are `#pragma once`, so
/// going on would mix two targets' namespaces in one TU.
///
/// Macros defined here:
///   ANYSEQ_TARGET_NS         namespace tag: v_scalar / v_avx2 / v_avx512
///   ANYSEQ_TARGET_NAME       string literal for diagnostics
///   ANYSEQ_TARGET_LANES      SIMD width the engine variant instantiates
///   ANYSEQ_TARGET_IS_NATIVE  constant expression: this TU was compiled
///                            with the matching ISA flags
///   ANYSEQ_TARGET_DERIVED    the target the macros above were derived for

#ifndef ANYSEQ_TARGET_DERIVED

#include "simd/detect.hpp"
#include "simd/targets.hpp"

#ifndef ANYSEQ_TARGET
#define ANYSEQ_TARGET ANYSEQ_TARGET_SCALAR
#endif

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
#define ANYSEQ_TARGET_DERIVED ANYSEQ_TARGET_SCALAR
#define ANYSEQ_TARGET_NS v_scalar
#define ANYSEQ_TARGET_NAME "scalar"
#define ANYSEQ_TARGET_LANES 1
#define ANYSEQ_TARGET_IS_NATIVE true
#elif ANYSEQ_TARGET == ANYSEQ_TARGET_AVX2
#define ANYSEQ_TARGET_DERIVED ANYSEQ_TARGET_AVX2
#define ANYSEQ_TARGET_NS v_avx2
#define ANYSEQ_TARGET_NAME "avx2"
#define ANYSEQ_TARGET_LANES 16
#define ANYSEQ_TARGET_IS_NATIVE (::anyseq::simd::built_with_avx2())
#elif ANYSEQ_TARGET == ANYSEQ_TARGET_AVX512
#define ANYSEQ_TARGET_DERIVED ANYSEQ_TARGET_AVX512
#define ANYSEQ_TARGET_NS v_avx512
#define ANYSEQ_TARGET_NAME "avx512"
#define ANYSEQ_TARGET_LANES 32
#define ANYSEQ_TARGET_IS_NATIVE (::anyseq::simd::built_with_avx512())
#else
#error "ANYSEQ_TARGET must be one of the identifiers in simd/targets.hpp"
#endif

#elif ANYSEQ_TARGET != ANYSEQ_TARGET_DERIVED
#error "ANYSEQ_TARGET changed after this TU's first per-target include: define it once, before including any per-target header"
#endif
