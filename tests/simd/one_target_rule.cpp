/// \file one_target_rule.cpp
/// A TU that breaks the one-target rule (simd/targets.hpp): it includes a
/// per-target header under the default scalar target, then selects
/// avx2 and includes another.  It must not compile: simd/set_target.hpp
/// stops it with an `#error`.  The `one_target_rule_test` ctest builds
/// this file and passes only when the compiler prints that message.

#include "parallel/work_queue.hpp"

#define ANYSEQ_TARGET ANYSEQ_TARGET_AVX2
#include "simd/pack.hpp"
