#pragma once
/// \file traceback.hpp
/// Predecessor-byte traceback shared by every engine that stores a
/// predecessor matrix (full engine, banded engine, batch engine, gpusim).
///
/// The traceback walks an H/E/F state machine over the packed predecessor
/// codes written by core::relax.  It is templated on a *predecessor
/// accessor* `fn(i, j) -> uint8` so that full, banded, and lane-interleaved
/// storage layouts all reuse the same walk — another paper-style accessor
/// decoupling.
///
/// Per-target header: the builder's string loops and the walk compile once
/// per engine variant inside `anyseq::ANYSEQ_TARGET_NS`.

#include "simd/set_target.hpp"

#include <algorithm>
#include <string>

#include "core/alphabet.hpp"
#include "core/relax.hpp"
#include "core/result.hpp"
#include "stage/views.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {

/// Incremental builder for the gapped alignment strings.  Operations are
/// appended in *reverse* order by tracebacks (which walk end -> begin) and
/// reversed once by `finish`; the divide-and-conquer traceback appends in
/// forward order and calls `take` directly.
///
/// Builders are pooled by `workspace` and exchange string capacity with
/// the caller's recycled `alignment_result` (`adopt_capacity` on entry,
/// the swap in `take` on exit), so a reused aligner rebuilds tracebacks
/// without allocating once the buffers have grown to the working set.
class alignment_builder {
 public:
  /// Drop content, keep capacity (pool reuse).
  void clear() noexcept {
    qa_.clear();
    sa_.clear();
  }

  /// Adopt the string capacity of a recycled result: its (stale) buffers
  /// become this builder's scratch; `take` hands them back filled.
  void adopt_capacity(alignment_result& r) noexcept {
    qa_.swap(r.q_aligned);
    sa_.swap(r.s_aligned);
    qa_.clear();
    sa_.clear();
  }

  void pair(char_t q, char_t s) {
    qa_.push_back(dna_decode(q));
    sa_.push_back(dna_decode(s));
  }
  /// q character against a gap (deletion w.r.t. the subject).
  void del(char_t q) {
    qa_.push_back(dna_decode(q));
    sa_.push_back('-');
  }
  /// s character against a gap (insertion w.r.t. the subject).
  void ins(char_t s) {
    qa_.push_back('-');
    sa_.push_back(dna_decode(s));
  }
  void reverse() {
    std::reverse(qa_.begin(), qa_.end());
    std::reverse(sa_.begin(), sa_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return qa_.size(); }
  /// Grow both strings' capacity to `n` characters (a pool warm-up).
  void reserve(std::size_t n) {
    qa_.reserve(n);
    sa_.reserve(n);
  }

  /// Swap the built strings into a result and derive the CIGAR (into the
  /// result's existing cigar buffer).  A swap, not a move: the result's
  /// previous buffers return to the builder, so capacity circulates
  /// instead of draining from the pool.
  void take(alignment_result& out) {
    cigar_from_aligned_into(qa_, sa_, out.cigar);
    out.q_aligned.swap(qa_);
    out.s_aligned.swap(sa_);
    out.has_alignment = true;
  }

  /// Append another builder's content (used by divide & conquer).
  void append(const alignment_builder& other) {
    qa_ += other.qa_;
    sa_ += other.sa_;
  }

 private:
  std::string qa_, sa_;
};

/// Traceback entry state: normally H; the Myers–Miller full-DP base case
/// may start in E when the optimal block path ends inside a vertical gap
/// that continues below the block boundary.
enum class tb_state : std::uint8_t { h, e, f };

/// Walk predecessor codes from end cell (ei, ej) back to the alignment
/// start.  `PredFn(i, j) -> std::uint8_t` must be valid for all interior
/// cells 1..n x 1..m on the optimal path.
///
/// \returns the (q_begin, s_begin) of the alignment; the builder receives
/// the operations in reverse order and is reversed before returning.
template <align_kind K, class PredFn, class QV, class SV>
std::pair<index_t, index_t> traceback_walk(const QV& q, const SV& s,
                                           index_t ei, index_t ej,
                                           PredFn&& pred_at,
                                           alignment_builder& out,
                                           tb_state start = tb_state::h) {
  using st = tb_state;
  index_t i = ei, j = ej;
  st state = start;

  for (;;) {
    if (state == st::h) {
      if (i == 0 || j == 0) {
        if constexpr (K == align_kind::global ||
                      K == align_kind::extension) {
          // Boundary gaps complete the path back to (0,0).
          while (i > 0) out.del(q[--i]);
          while (j > 0) out.ins(s[--j]);
        }
        break;  // local paths stop via pred::stop before reaching here;
                // semiglobal leading gaps are free and not emitted.
      }
      const std::uint8_t p = pred_at(i, j) & pred::h_mask;
      if (p == pred::stop) break;  // local alignment start
      if (p == pred::diag) {
        out.pair(q[i - 1], s[j - 1]);
        --i;
        --j;
      } else if (p == pred::up) {
        state = st::e;
      } else {
        state = st::f;
      }
    } else if (state == st::e) {
      ANYSEQ_ASSERT(i > 0, "E state at row 0");
      const bool extend = (pred_at(i, j) & pred::e_extend) != 0;
      out.del(q[i - 1]);
      --i;
      state = extend ? st::e : st::h;
    } else {  // st::f
      ANYSEQ_ASSERT(j > 0, "F state at column 0");
      const bool extend = (pred_at(i, j) & pred::f_extend) != 0;
      out.ins(s[j - 1]);
      --j;
      state = extend ? st::f : st::h;
    }
  }
  out.reverse();
  return {i, j};
}

}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#if ANYSEQ_TARGET == ANYSEQ_TARGET_SCALAR
namespace anyseq {
using v_scalar::alignment_builder;
using v_scalar::tb_state;
using v_scalar::traceback_walk;
}  // namespace anyseq
#endif  // scalar exports
