#pragma once
/// \file views.hpp
/// Zero-cost data-access abstractions (paper §III-B).
///
/// The paper decouples "what the recurrence reads/writes" from "where the
/// bytes live" through accessor structs (`Sequence`, `Scores`,
/// `MatrixView`) whose calls the partial evaluator folds away.  Here the
/// same accessors are tiny value types with force-inlined members; engines
/// are templated on them, so reversing a sequence for the
/// divide-and-conquer traceback (`rev_view`) or slicing a subproblem
/// (`sub`) is a *view change*, never a data copy.  `matrix_view` addresses
/// the full-matrix engines' score and predecessor planes, and
/// `tile_count` sizes the tile grids of the wavefront routes.

#include <span>

#include "core/macros.hpp"
#include "core/types.hpp"

namespace anyseq::stage {

/// Read-only view of an encoded character sequence — the paper's
/// `Sequence { len, at }` accessor.
class seq_view {
 public:
  constexpr seq_view() = default;
  constexpr seq_view(const char_t* data, index_t n) noexcept
      : data_(data), n_(n) {}
  explicit seq_view(std::span<const char_t> s) noexcept
      : data_(s.data()), n_(static_cast<index_t>(s.size())) {}

  [[nodiscard]] constexpr ANYSEQ_INLINE index_t size() const noexcept {
    return n_;
  }
  [[nodiscard]] constexpr ANYSEQ_INLINE char_t operator[](
      index_t i) const noexcept {
    ANYSEQ_ASSERT(i >= 0 && i < n_, "seq_view index out of range");
    return data_[i];
  }
  [[nodiscard]] ANYSEQ_INLINE const char_t* data() const noexcept {
    return data_;
  }

  /// Half-open subsequence [a, b) as a view (no copy).
  [[nodiscard]] constexpr seq_view sub(index_t a, index_t b) const noexcept {
    ANYSEQ_ASSERT(0 <= a && a <= b && b <= n_, "seq_view::sub out of range");
    return {data_ + a, b - a};
  }

 private:
  const char_t* data_ = nullptr;
  index_t n_ = 0;
};

/// Reversed view: `v[i] == base[n-1-i]` — "we reverse the indexing in the
/// sequence accessor function" (paper §III-C).  Used by the reverse passes
/// of the divide-and-conquer traceback.
class rev_view {
 public:
  constexpr rev_view() = default;
  constexpr explicit rev_view(seq_view base) noexcept : base_(base) {}

  [[nodiscard]] constexpr ANYSEQ_INLINE index_t size() const noexcept {
    return base_.size();
  }
  [[nodiscard]] constexpr ANYSEQ_INLINE char_t operator[](
      index_t i) const noexcept {
    return base_[base_.size() - 1 - i];
  }
  /// Subview in *reversed* coordinates.
  [[nodiscard]] constexpr rev_view sub(index_t a, index_t b) const noexcept {
    return rev_view(base_.sub(base_.size() - b, base_.size() - a));
  }

 private:
  seq_view base_{};
};

/// Concept satisfied by both views (and any user-defined accessor).
template <class V>
concept sequence_view = requires(const V v, index_t i) {
  { v.size() } -> std::convertible_to<index_t>;
  { v[i] } -> std::convertible_to<char_t>;
};

// ---------------------------------------------------------------------------
// Matrix views — the paper's `MatrixView { read, write }`.
// ---------------------------------------------------------------------------

/// Row-major view over a dense buffer of scores: read/write addressed by
/// two indices, with the storage origin and pitch folded in at compile
/// time by inlining.
template <class T>
class matrix_view {
 public:
  constexpr matrix_view() = default;
  constexpr matrix_view(T* data, index_t rows, index_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}

  [[nodiscard]] ANYSEQ_INLINE T read(index_t i, index_t j) const noexcept {
    ANYSEQ_ASSERT(in_range(i, j), "matrix_view read out of range");
    return data_[i * cols_ + j];
  }
  ANYSEQ_INLINE void write(index_t i, index_t j, T value) const noexcept {
    ANYSEQ_ASSERT(in_range(i, j), "matrix_view write out of range");
    data_[i * cols_ + j] = value;
  }
  [[nodiscard]] ANYSEQ_INLINE index_t rows() const noexcept { return rows_; }
  [[nodiscard]] ANYSEQ_INLINE index_t cols() const noexcept { return cols_; }
  [[nodiscard]] ANYSEQ_INLINE T* row(index_t i) const noexcept {
    return data_ + i * cols_;
  }

 private:
  [[nodiscard]] constexpr bool in_range(index_t i, index_t j) const noexcept {
    return i >= 0 && i < rows_ && j >= 0 && j < cols_;
  }
  T* data_ = nullptr;
  index_t rows_ = 0, cols_ = 0;
};

/// Number of tiles covering `n` elements at tile size `t`.
[[nodiscard]] constexpr index_t tile_count(index_t n, index_t t) noexcept {
  return (n + t - 1) / t;
}

}  // namespace anyseq::stage
