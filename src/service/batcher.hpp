#pragma once
/// \file batcher.hpp
/// Pure coalescing policy of the asynchronous alignment service — the
/// decisions, with no threads attached, so tests can pin them down
/// exactly.
///
/// The service promises that every request produces a result
/// *byte-identical* to a synchronous `anyseq::align` call with the same
/// inputs.  `align_batch` keeps that promise on every backend, for any
/// mix of kinds, sizes and empty sequences: the SIMD lanes return the
/// score and end cell `align` does, and every other pair runs the route
/// `align` picks for it, on one thread (`tiled::score_route`,
/// `tiled::traceback_route`).  `classify` therefore only names the call
/// a request executes through:
///
///   * batch_score     — score only.
///   * batch_traceback — traceback requested.
///   * solo            — never classified: the exec-table row of a
///                       request that ran alone (a batch of one, or a
///                       request bisection isolated).
///
/// A batch holds requests with pairwise-compatible options
/// (`options_compatible`, which compares `exec` and `want_alignment`, so
/// its members share a route): `align_batch` takes one option set for
/// the whole span, so any mismatch is a flush boundary.  A batch of one,
/// and a request bisection isolates, runs solo through `anyseq::align`
/// with its own `threads`.

#include <cstdint>

#include "anyseq/anyseq.hpp"

namespace anyseq::service {

/// Execution route of one request (see file comment for the contract).
enum class route : std::uint8_t { batch_score, batch_traceback, solo };

[[nodiscard]] const char* to_string(route r) noexcept;

/// The call a request under `opt` executes through: `want_alignment`
/// decides it, never the backend or the sequences.
[[nodiscard]] route classify(const align_options& opt) noexcept;

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
