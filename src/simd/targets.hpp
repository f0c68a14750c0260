#pragma once
/// \file targets.hpp
/// Identifiers of the engine variants ("targets") the library compiles.
///
/// Every lane-dependent engine header is a *per-target* header: its whole
/// content lives inside `anyseq::v_<target>`, and the build compiles it
/// once per target, in that target's variant TU.  A translation unit
/// selects its one target by defining `ANYSEQ_TARGET` to one of the
/// identifiers below *before* including any per-target header:
///
/// ```
///   #define ANYSEQ_TARGET ANYSEQ_TARGET_AVX2
///   #include "anyseq/engine_impl.hpp"
/// ```
///
/// simd/set_target.hpp then derives the per-target macros
/// (`ANYSEQ_TARGET_NS`, `ANYSEQ_TARGET_NAME`, `ANYSEQ_TARGET_LANES`,
/// `ANYSEQ_TARGET_IS_NATIVE`).  TUs that do not define `ANYSEQ_TARGET`
/// get the scalar target, whose symbols are additionally exported under
/// their historical un-suffixed names.
///
/// One target per TU is the rule, not a convenience: codegen comes from
/// per-TU flags (`-mavx2` on engines_avx2.cpp, `-mavx512bw` on
/// engines_avx512.cpp; src/CMakeLists.txt), which apply to everything a
/// TU compiles, so a second target's `anyseq::v_*` symbols would carry
/// the wrong ISA.  The nm audit (scripts/check_symbol_isolation.sh)
/// checks that each namespace is emitted only by the TU built for it.
///
/// Adding a variant (AVX-VNNI, SVE, another lane width): an identifier
/// here, a branch in simd/set_target.hpp, and one TU with its flag stanza
/// in the build.
///
/// The identifiers are macros (not an enum) because target selection
/// happens in the preprocessor, before any C++ is parsed.

#define ANYSEQ_TARGET_SCALAR 1  ///< 1 lane, baseline codegen (always present)
#define ANYSEQ_TARGET_AVX2 2    ///< 16 x 16-bit lanes (one 256-bit register)
#define ANYSEQ_TARGET_AVX512 3  ///< 32 x 16-bit lanes (one 512-bit register)
