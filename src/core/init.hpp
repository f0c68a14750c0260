#pragma once
/// \file init.hpp
/// DP boundary initialization per alignment kind (paper §III-A).
///
/// Only four boundary families are ever *read* by the recurrences:
///   H(0,j), H(i,0)            — differ between global and local/semiglobal
///   E(0,j), F(i,0)            — always -inf (a fresh vertical/horizontal
///                                gap must be opened through H)
/// The remaining initializations listed in the paper (E(i,0), F(0,j), ...)
/// are inert and not materialized.

#include "core/gap.hpp"
#include "core/types.hpp"

namespace anyseq {

/// H(i, 0): score of aligning the first i query characters against nothing.
template <align_kind K, class Gap>
[[nodiscard]] ANYSEQ_INLINE score_t init_h_col0(index_t i, const Gap& gap) noexcept {
  if constexpr (K == align_kind::global || K == align_kind::extension) {
    return gap.total(i);
  } else {
    (void)gap;
    (void)i;
    return 0;  // local & semiglobal: free leading query gap
  }
}

/// H(0, j): score of aligning the first j subject characters against nothing.
template <align_kind K, class Gap>
[[nodiscard]] ANYSEQ_INLINE score_t init_h_row0(index_t j, const Gap& gap) noexcept {
  if constexpr (K == align_kind::global || K == align_kind::extension) {
    return gap.total(j);
  } else {
    (void)gap;
    (void)j;
    return 0;
  }
}

/// F(i, 0) — read when relaxing column 1.
[[nodiscard]] ANYSEQ_INLINE score_t init_f_col0(index_t /*i*/) noexcept {
  return neg_inf();
}

/// True if the optimum may appear anywhere in the matrix (local) and must
/// be tracked cell-by-cell during the forward pass.
[[nodiscard]] constexpr bool tracks_running_max(align_kind k) noexcept {
  return k == align_kind::local || k == align_kind::extension;
}

}  // namespace anyseq
