#pragma once
/// \file result.hpp
/// Alignment results: score, aligned region, gapped strings, CIGAR.

#include <cstdint>
#include <span>
#include <string>

#include "core/macros.hpp"
#include "core/types.hpp"

namespace anyseq {

/// A pairwise alignment.  For score-only computations only `score` (and,
/// for local/semiglobal, the end coordinates) are filled in.
///
/// Coordinates are half-open [begin, end) offsets into the *unencoded*
/// input sequences.  `q_aligned`/`s_aligned` cover exactly
/// [q_begin, q_end) x [s_begin, s_end) with '-' for gaps; for global
/// alignments that is the whole of both sequences.
struct alignment_result {
  score_t score = 0;
  index_t q_begin = 0, q_end = 0;
  index_t s_begin = 0, s_end = 0;
  std::string q_aligned;
  std::string s_aligned;
  std::string cigar;  ///< ops: '=' match, 'X' mismatch, 'I' ins (gap in q), 'D' del (gap in s)
  bool has_alignment = false;

  /// Number of DP cells an engine relaxed to produce this result
  /// (n*m for one pass; Hirschberg reports its true <= 2x total).
  /// Used by benchmarks to compute GCUPS.
  std::uint64_t cells = 0;

  /// Name of the engine variant that produced this result ("scalar",
  /// "avx2", "avx512", "gpu_sim", "fpga_sim"); static storage, never
  /// freed.  CPU results are stamped *inside* the dispatched
  /// `anyseq::v_*` namespace, so tests can assert which variant actually
  /// executed.  nullptr for results built outside the dispatcher.
  const char* variant = nullptr;

  /// Reset to the default state while KEEPING the string capacity — the
  /// recycling half of the plan/execute contract: a caller that feeds
  /// the same result object back into `aligner::align_into` lends its
  /// warm buffers to the traceback builder instead of reallocating.
  void reset() noexcept {
    score = 0;
    q_begin = q_end = s_begin = s_end = 0;
    q_aligned.clear();
    s_aligned.clear();
    cigar.clear();
    has_alignment = false;
    cells = 0;
    variant = nullptr;
  }
};

/// Outcome of a score-only pass: the optimum value and the cell where the
/// optimum ends (meaningful for local/semiglobal; (n, m) for global).
/// Shared by every engine variant and by baseline code (the simulators,
/// tests) and therefore must not live in a per-target header.
struct score_result {
  score_t score = neg_inf();
  index_t end_i = 0, end_j = 0;
  std::uint64_t cells = 0;
};

/// Batch-engine path accounting: how much of a batch took which kernel.
/// `simd_pairs` counts the narrow pairs scored on vector lanes (int8 +
/// int16 chunks: uniform, sub-width tail and lane-padded ragged, plus
/// striped single pairs).  A pair off lanes counts by its one-thread
/// `plan_info::precision`: int16 (striped) in `striped_pairs`, bitpar in
/// `bitpar_pairs`, int32 (rolling or tiled) in `scalar_pairs`.
/// Traceback batches fill only `banded_pairs` and `band_passes`.
/// Shared by every engine variant — this type crosses
/// the `engine::ops` dispatch boundary (align's and align_batch's stats
/// out-param) and therefore must not live in a per-target header.
struct batch_stats {
  std::uint64_t simd_pairs = 0;
  std::uint64_t scalar_pairs = 0;
  std::uint64_t int8_pairs = 0;
  std::uint64_t int16_pairs = 0;
  std::uint64_t bitpar_pairs = 0;
  /// SIMD pairs scored in chunks whose live lanes differ in shape (lane
  /// padding to the chunk-max shape; subset of `simd_pairs`).
  std::uint64_t ragged_pairs = 0;
  /// Pairs the planner could not put on lanes that ran the intra-pair
  /// striped int16 kernel (tiled/striped.hpp; subset of `simd_pairs` and
  /// of `int16_pairs`, vector variants only).
  std::uint64_t striped_pairs = 0;
  /// Padding overhead the lanes relaxed: sum over padded chunks of
  /// W*nbar*mbar - sum(n_l*m_l) over the live lanes — ragged lanes'
  /// padding plus a sub-width tail's dead lanes.
  std::uint64_t padded_cells = 0;
  /// Traceback pairs whose global alignment a band-doubling pass
  /// certified exact (core/banded.hpp); the rest ran the full matrix.
  std::uint64_t banded_pairs = 0;
  /// Band passes the traceback pairs ran, certified or not.
  std::uint64_t band_passes = 0;
};

/// Tile accounting of the most recent dynamic wavefront run (the
/// tiled score, tiled Hirschberg and locate routes; summed over a
/// traceback's passes).  Shared baseline type for the same reason as
/// batch_stats: `aligner` surfaces it.
struct wavefront_stats {
  std::uint64_t striped_tiles = 0;  ///< tiles run as one striped int16 pass
  std::uint64_t int32_tiles = 0;    ///< tiles run exact int32 (scalar
                                    ///< variant, or past the int16 window)
  std::uint64_t workers = 0;     ///< worker slots, after the diagonal cap
  std::uint64_t peak_ready = 0;  ///< most tiles queued at once
};

/// Build a compact CIGAR string (run-length encoded) from gapped strings.
[[nodiscard]] std::string cigar_from_aligned(std::string_view q_aligned,
                                             std::string_view s_aligned);

/// Same, writing into a caller-provided string (cleared first) so its
/// capacity is reused across calls.  Out-of-line in result.cpp: the
/// per-target traceback builders call it across the baseline boundary
/// without emitting weak shared symbols.
void cigar_from_aligned_into(std::string_view q_aligned,
                             std::string_view s_aligned, std::string& out);

/// Re-score a gapped alignment with an independent, trivially-auditable
/// scorer; used by tests to certify that every engine's traceback
/// reproduces its reported score.  Characters are compared through `eq`,
/// substitution scores through `subst`, both taken as plain function
/// objects over the raw (unencoded) characters.
template <class Subst, class Gap>
[[nodiscard]] score_t rescore_alignment(std::string_view q_aligned,
                                        std::string_view s_aligned,
                                        const Subst& subst, const Gap& gap) {
  ANYSEQ_ASSERT(q_aligned.size() == s_aligned.size(),
                "gapped strings must have equal length");
  score_t total = 0;
  bool in_q_gap = false, in_s_gap = false;
  for (std::size_t k = 0; k < q_aligned.size(); ++k) {
    const char qc = q_aligned[k], sc = s_aligned[k];
    ANYSEQ_ASSERT(!(qc == '-' && sc == '-'), "double gap column");
    if (qc == '-') {
      total += in_q_gap ? gap.extend() : gap.open_extend();
      in_q_gap = true;
      in_s_gap = false;
    } else if (sc == '-') {
      total += in_s_gap ? gap.extend() : gap.open_extend();
      in_s_gap = true;
      in_q_gap = false;
    } else {
      total += subst(qc, sc);
      in_q_gap = in_s_gap = false;
    }
  }
  return total;
}

}  // namespace anyseq
