#pragma once
/// \file batcher.hpp
/// Pure coalescing policy of the asynchronous alignment service — the
/// decisions, with no threads attached, so tests can pin them down
/// exactly.
///
/// The service promises that every request produces a result
/// *byte-identical* to a synchronous `anyseq::align` call with the same
/// inputs.  Batching therefore cannot be applied blindly: `align_batch`'s
/// score path and `align`'s tiled score path agree only where both are
/// exact and use the same tie-breaking, and `align_batch`'s traceback
/// path always runs the full-matrix engine while `align` switches to
/// divide & conquer above `full_matrix_cells`.  `classify` encodes
/// exactly the cases where coalescing through `align_batch` preserves
/// the identity:
///
///   * batch_score     — CPU backend, score-only, global kind, non-empty
///                       sequences.  Both paths compute the unique
///                       optimal score, report cells = n*m and the (n, m)
///                       end cell.
///   * batch_traceback — CPU backend, traceback requested, problem small
///                       enough that `align` itself would take the
///                       full-matrix path (`cells <= full_matrix_cells`):
///                       both run the same `full_engine` specialization.
///   * solo            — everything else (simulator backends, local or
///                       semiglobal score-only whose argmax tie-breaking
///                       differs between engines, oversized tracebacks,
///                       empty sequences).  Solo requests still coalesce
///                       into one pool job, but each runs through
///                       `anyseq::align` individually.
///
/// A batch holds requests with the same route AND pairwise-compatible
/// options (`options_compatible`): `align_batch` takes one option set for
/// the whole span, so any mismatch is a flush boundary.

#include <cstdint>

#include "anyseq/anyseq.hpp"

namespace anyseq::service {

/// Execution route of one request (see file comment for the contract).
enum class route : std::uint8_t { batch_score, batch_traceback, solo };

[[nodiscard]] const char* to_string(route r) noexcept;

/// Route preserving result-identity with synchronous `anyseq::align`.
[[nodiscard]] route classify(stage::seq_view q, stage::seq_view s,
                             const align_options& opt) noexcept;

/// True when two requests may share one `align_batch`/grouped call:
/// every dispatch-relevant option field matches (including substitution
/// matrix contents).  A batch holds only mutually compatible requests —
/// the batcher collects them from anywhere in the admission ring
/// (preserving the order of the rest) and flushes when only
/// incompatible requests remain queued.
[[nodiscard]] bool options_compatible(const align_options& a,
                                      const align_options& b) noexcept;

/// Strict weak order that groups pairs by their FULL (|q|, |s|) shape —
/// query length first, subject length second — so the inter-sequence
/// SIMD kernel sees uniform-shape chunks (lanes stay full) and any
/// leftover jitter forms near-shape runs that fill the lane-padding
/// kernel's chunks instead of running pair by pair.  Ties resolve on the
/// stable key to keep execution deterministic.
[[nodiscard]] bool lane_order_less(index_t q_len_a, index_t s_len_a,
                                   std::uint64_t key_a, index_t q_len_b,
                                   index_t s_len_b,
                                   std::uint64_t key_b) noexcept;

}  // namespace anyseq::service
