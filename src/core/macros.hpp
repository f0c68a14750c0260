#pragma once
/// \file macros.hpp
/// Compiler abstraction macros used across AnySeq.
///
/// The paper relies on AnyDSL's partial evaluator to guarantee that
/// higher-order abstractions disappear at compile time.  The C++ analogue is
/// forced inlining of the small policy/accessor functions; `ANYSEQ_INLINE`
/// is our equivalent of Impala's `@` specialization filter on hot helpers.

#include <cassert>
#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define ANYSEQ_INLINE inline __attribute__((always_inline))
/// A lambda's always_inline, written after its parameter list.
#define ANYSEQ_INLINE_LAMBDA __attribute__((always_inline))
#define ANYSEQ_NOINLINE __attribute__((noinline))
#define ANYSEQ_RESTRICT __restrict__
#define ANYSEQ_LIKELY(x) __builtin_expect(!!(x), 1)
#define ANYSEQ_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define ANYSEQ_INLINE inline
#define ANYSEQ_INLINE_LAMBDA
#define ANYSEQ_NOINLINE
#define ANYSEQ_RESTRICT
#define ANYSEQ_LIKELY(x) (x)
#define ANYSEQ_UNLIKELY(x) (x)
#endif

/// Keeps a widely instantiated template out of GCC's local IPA clones.  A
/// clone lands in its translation unit's .text between the per-variant
/// entry points, so ~200 kernel clones would spread the entry points a
/// call touches over many more text pages (and the process's resident
/// set with them); the template itself stays in its own COMDAT section.
#if defined(__GNUC__) && !defined(__clang__)
#define ANYSEQ_NOCLONE __attribute__((noclone))
#else
#define ANYSEQ_NOCLONE
#endif

/// Internal invariant check.  Active in debug builds; compiled out of
/// release hot loops.  API-boundary validation uses exceptions instead
/// (see core/errors.hpp).
#ifndef NDEBUG
#define ANYSEQ_ASSERT(cond, msg)                                            \
  do {                                                                      \
    if (ANYSEQ_UNLIKELY(!(cond))) {                                         \
      std::fprintf(stderr, "AnySeq assertion failed: %s\n  at %s:%d\n  %s\n", \
                   #cond, __FILE__, __LINE__, msg);                          \
      std::abort();                                                         \
    }                                                                       \
  } while (false)
#else
#define ANYSEQ_ASSERT(cond, msg) ((void)0)
#endif

/// Check that is active in *all* build types (used on cold paths where the
/// cost is irrelevant but corruption would be silent).
#define ANYSEQ_CHECK(cond, msg)                                             \
  do {                                                                      \
    if (ANYSEQ_UNLIKELY(!(cond))) {                                         \
      std::fprintf(stderr, "AnySeq check failed: %s\n  at %s:%d\n  %s\n",   \
                   #cond, __FILE__, __LINE__, msg);                         \
      std::abort();                                                         \
    }                                                                       \
  } while (false)
