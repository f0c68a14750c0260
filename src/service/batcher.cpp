#include "service/batcher.hpp"

namespace anyseq::service {
namespace {

[[nodiscard]] bool is_cpu_backend(backend b) noexcept {
  return b == backend::auto_select || b == backend::scalar ||
         b == backend::simd_avx2 || b == backend::simd_avx512;
}

}  // namespace

const char* to_string(route r) noexcept {
  switch (r) {
    case route::batch_score: return "batch_score";
    case route::batch_traceback: return "batch_traceback";
    case route::solo: return "solo";
  }
  return "?";
}

route classify(stage::seq_view q, stage::seq_view s,
               const align_options& opt) noexcept {
  if (!is_cpu_backend(opt.exec)) return route::solo;
  if (q.size() == 0 || s.size() == 0) return route::solo;
  if (opt.want_alignment) {
    const index_t cells = q.size() * s.size();
    return cells <= opt.full_matrix_cells ? route::batch_traceback
                                          : route::solo;
  }
  // Global score-only requests coalesce into batch_score regardless of
  // precision or size: under auto the batch engine picks int8/int16 per
  // SIMD chunk and runs every other pair on the route a one-thread
  // `align` takes for it (striped, tiled, bit-parallel or rolling), and
  // options_compatible keeps auto and int32 requests in separate batches.
  return opt.kind == align_kind::global ? route::batch_score : route::solo;
}

// Tripwire: options_compatible below enumerates every align_options
// field by hand, and a field it misses would let the batcher coalesce
// requests that must not share an align_batch call — silently breaking
// the service's byte-identity promise.  If this assert fires, a field
// was added to align_options: extend options_compatible (and the
// batcher_test sweep), then update the size.
#if defined(__x86_64__)
static_assert(sizeof(align_options) == 160,
              "align_options changed: update options_compatible");
#endif

bool options_compatible(const align_options& a,
                        const align_options& b) noexcept {
  if (a.kind != b.kind || a.want_alignment != b.want_alignment) return false;
  if (a.match != b.match || a.mismatch != b.mismatch) return false;
  if (a.matrix.has_value() != b.matrix.has_value()) return false;
  if (a.matrix.has_value() && a.matrix->table != b.matrix->table)
    return false;
  if (a.gap_open != b.gap_open || a.gap_extend != b.gap_extend) return false;
  if (a.exec != b.exec || a.threads != b.threads) return false;
  if (a.tile != b.tile) return false;
  // Precision is a dispatch boundary: an auto batch and an int32
  // reference batch must not share an align_batch call, and unit-cost
  // auto batches route through the bit-parallel engine as a group.
  if (a.precision != b.precision) return false;
  return a.full_matrix_cells == b.full_matrix_cells;
}

bool lane_order_less(index_t q_len_a, index_t s_len_a, std::uint64_t key_a,
                     index_t q_len_b, index_t s_len_b,
                     std::uint64_t key_b) noexcept {
  if (q_len_a != q_len_b) return q_len_a < q_len_b;
  if (s_len_a != s_len_b) return s_len_a < s_len_b;
  return key_a < key_b;
}

}  // namespace anyseq::service
