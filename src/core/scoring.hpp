#pragma once
/// \file scoring.hpp
/// Substitution-scoring policies (paper §III-C).
///
/// A scoring policy is any type providing
/// ```
///   template<class S, class C> S subst(C q, C s) const;   // lane-generic
///   score_t max_abs_unit() const;                          // 16-bit bound
///   score_t max_subst() const;                 // band-doubling bound
/// ```
/// `S` is the score value type (scalar or SIMD pack), `C` the character
/// value type of matching width.  The paper builds these with
/// `simple_subst_scoring(2, -1)` returning a closure; the C++ analogue is a
/// small constexpr-constructible object whose `subst` fully inlines.

#include <algorithm>
#include <array>
#include <cstdlib>

#include "core/ops.hpp"
#include "core/types.hpp"

namespace anyseq {

/// Match/mismatch scoring — the paper's `simple_subst_scoring(same, diff)`.
struct simple_scoring {
  score_t match = 2;
  score_t mismatch = -1;

  constexpr simple_scoring() = default;
  constexpr simple_scoring(score_t same, score_t diff) noexcept
      : match(same), mismatch(diff) {}

  /// Lane-generic substitution score: `q == s ? match : mismatch`.
  template <class S, class C>
  [[nodiscard]] ANYSEQ_INLINE S subst(C q, C s) const noexcept {
    return vselect_eq(q, s, vbroadcast<S>(match), vbroadcast<S>(mismatch));
  }

  /// Largest |score| a single column can contribute (16-bit range check).
  [[nodiscard]] constexpr score_t max_abs_unit() const noexcept {
    return std::max(std::abs(match), std::abs(mismatch));
  }

  /// Largest substitution score (the band-doubling score bound).
  [[nodiscard]] constexpr score_t max_subst() const noexcept {
    return std::max(match, mismatch);
  }
};

/// Substitution-matrix scoring over an alphabet of `K` codes
/// (e.g. K = 5 for A,C,G,T,N).  SIMD lanes fall back to a per-lane gather
/// supplied by `vlookup` overloads.
template <int K>
struct matrix_scoring {
  static_assert(K >= 2 && K <= 32, "alphabet size out of range");
  std::array<score_t, K * K> table{};

  constexpr matrix_scoring() = default;

  /// Build a matrix that reproduces simple match/mismatch scoring
  /// (useful for tests asserting matrix==simple equivalence).
  [[nodiscard]] static constexpr matrix_scoring uniform(score_t match,
                                                        score_t mismatch) {
    matrix_scoring m;
    for (int a = 0; a < K; ++a)
      for (int b = 0; b < K; ++b) m.table[a * K + b] = a == b ? match : mismatch;
    return m;
  }

  constexpr void set(int a, int b, score_t v) noexcept { table[a * K + b] = v; }
  [[nodiscard]] constexpr score_t at(int a, int b) const noexcept {
    return table[a * K + b];
  }

  template <class S, class C>
  [[nodiscard]] ANYSEQ_INLINE S subst(C q, C s) const noexcept {
    return vlookup<S>(table.data(), K, q, s);
  }

  [[nodiscard]] constexpr score_t max_abs_unit() const noexcept {
    score_t m = 0;
    for (score_t v : table) m = std::max(m, std::abs(v));
    return m;
  }

  [[nodiscard]] constexpr score_t max_subst() const noexcept {
    return *std::max_element(table.begin(), table.end());
  }
};

/// DNA alphabet size used by the stock matrices (A,C,G,T,N).
inline constexpr int dna_alphabet_size = 5;
using dna_matrix_scoring = matrix_scoring<dna_alphabet_size>;

/// A transition/transversion-aware DNA matrix (EDNAFULL-flavoured):
/// match +5, transition (A<->G, C<->T) -4 softened to -2, transversion -4,
/// N scores 0 against everything.  Exercises the matrix path with a
/// biologically shaped table.
[[nodiscard]] constexpr dna_matrix_scoring dna_default_matrix() {
  dna_matrix_scoring m;
  constexpr int A = 0, C = 1, G = 2, T = 3, N = 4;
  for (int a = 0; a < 5; ++a)
    for (int b = 0; b < 5; ++b) {
      if (a == N || b == N) {
        m.set(a, b, 0);
      } else if (a == b) {
        m.set(a, b, 5);
      } else {
        const bool transition = (a == A && b == G) || (a == G && b == A) ||
                                (a == C && b == T) || (a == T && b == C);
        m.set(a, b, transition ? -2 : -4);
      }
    }
  return m;
}

}  // namespace anyseq
