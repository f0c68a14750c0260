#pragma once
/// \file errors.hpp
/// Exception types thrown at the public API boundary for recoverable
/// misuse (empty input where not allowed, inconsistent options, ...).
/// Internal invariants use ANYSEQ_ASSERT instead.

#include <stdexcept>
#include <string>

namespace anyseq {

/// Base class of all AnySeq exceptions.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user-supplied parameters (options, scores, tile sizes, ...).
class invalid_argument_error : public error {
 public:
  explicit invalid_argument_error(const std::string& what) : error(what) {}
};

/// Options rejected by `validate()` before any work was attempted.
/// Derives from invalid_argument_error so existing catch sites keep
/// working; the distinct type lets admission layers (service::submit)
/// tell "request was malformed and never consumed capacity" from other
/// argument errors raised mid-execution.
class validation_error : public invalid_argument_error {
 public:
  explicit validation_error(const std::string& what)
      : invalid_argument_error(what) {}
};

/// A pair too long for its scores: its worst-case score magnitude,
/// (n + m + 2) * unit under the request's options, leaves the int32
/// window the engines compute in (int32_score_window()).  Thrown before
/// any work, like every validation_error; the message names the shape
/// and the bound.
class score_overflow_error : public validation_error {
 public:
  explicit score_overflow_error(const std::string& what)
      : validation_error(what) {}
};

/// Malformed input data (bad FASTA/FASTQ, illegal characters, ...).
class parse_error : public error {
 public:
  explicit parse_error(const std::string& what) : error(what) {}
};

/// A backend was forced (`align_options::exec`) that this binary/CPU
/// combination cannot run safely — e.g. `backend::simd_avx512` when the
/// AVX-512 engine TU was compiled natively but the CPU lacks AVX-512BW.
/// `backend::auto_select` never throws this; it falls back instead.
class unsupported_backend_error : public error {
 public:
  explicit unsupported_backend_error(const std::string& what) : error(what) {}
};

}  // namespace anyseq
