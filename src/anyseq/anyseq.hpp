#pragma once
/// \file anyseq.hpp
/// AnySeq-CPP public API.
///
/// The template engines underneath are compile-time specialized per
/// (alignment kind x gap model x scoring x backend) — the C++ analogue of
/// AnyDSL emitting one residual program per parameter set.  This facade
/// holds the *specialization table*: runtime `align_options` select one of
/// the pre-instantiated variants.
///
/// Quickstart:
/// ```
///   anyseq::align_options opt;
///   opt.kind = anyseq::align_kind::global;
///   opt.want_alignment = true;
///   auto r = anyseq::align_strings("ACGTACGT", "ACGTCGT", opt);
///   // r.score, r.q_aligned / r.s_aligned, r.cigar
/// ```

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/alphabet.hpp"
#include "core/errors.hpp"
#include "core/result.hpp"
#include "core/scoring.hpp"
#include "core/types.hpp"
#include "stage/views.hpp"

namespace anyseq {

/// Execution backend (paper §IV: CPU, CPU-SIMD, GPU, FPGA).
enum class backend : std::uint8_t {
  auto_select,  ///< widest SIMD the binary and CPU support
  scalar,       ///< multithreaded scalar CPU
  simd_avx2,    ///< 16-bit x 16 lanes (AVX2-shaped)
  simd_avx512,  ///< 16-bit x 32 lanes (AVX-512-shaped)
  gpu_sim,      ///< simulated CUDA-like device (DESIGN.md §3)
  fpga_sim,     ///< simulated systolic array (score-only)
};

[[nodiscard]] constexpr const char* to_string(backend b) noexcept {
  switch (b) {
    case backend::auto_select: return "auto";
    case backend::scalar: return "scalar";
    case backend::simd_avx2: return "avx2";
    case backend::simd_avx512: return "avx512";
    case backend::gpu_sim: return "gpu_sim";
    case backend::fpga_sim: return "fpga_sim";
  }
  return "?";
}

/// All user-controllable alignment parameters.  Every combination maps to
/// a dedicated compile-time specialization.
struct align_options {
  align_kind kind = align_kind::global;
  bool want_alignment = false;  ///< false = score only (linear space)

  // Scoring: simple match/mismatch by default; set `matrix` to use a
  // substitution table (overrides match/mismatch).
  score_t match = 2;
  score_t mismatch = -1;
  std::optional<dna_matrix_scoring> matrix;

  // Gap model: affine when gap_open != 0 (a gap of length k scores
  // gap_open + k*gap_extend), linear otherwise (k * gap_extend).
  score_t gap_open = 0;
  score_t gap_extend = -1;

  backend exec = backend::auto_select;
  int threads = 0;          ///< 0 = hardware concurrency
  /// Tile extent for the wavefront engines; 0 derives it at plan time
  /// from the shape, the variant's lane count and the scores (see
  /// `aligner::plan_info::tile`).
  index_t tile = 0;

  /// Score precision for score-only routes (ignored with tracebacks,
  /// which always accumulate in int32).  `auto_select` lets the plan
  /// pick the accumulator: the narrowest type the worst-case score bound
  /// provably fits, or the bit-parallel engine for a unit-cost option
  /// set.  `int32` runs the rolling reference route.  validate() rejects
  /// every other value: int8, int16 and bitpar are plan outputs
  /// (`plan_info::precision`), not requests.  Both modes return the
  /// same scores.
  score_precision precision = score_precision::auto_select;

  /// Problems with at most this many cells take the full-matrix path for
  /// traceback; larger ones use divide & conquer in linear space (an
  /// extension traceback has no such path and throws).  `align_batch`
  /// applies the bound to each pair, so its results equal `align`'s.
  index_t full_matrix_cells = index_t{1} << 22;
};

/// Largest magnitude validate() admits for `match`, `mismatch`,
/// `gap_open`, `gap_extend` and every substitution-matrix entry (2^20),
/// so per-column sums such as `gap_open + gap_extend` stay well inside
/// `score_t`.
inline constexpr score_t max_abs_score = score_t{1} << 20;

/// Validate options; throws validation_error (an invalid_argument_error)
/// with a precise message.
void validate(const align_options& opt);

/// Validate an (n x m) pair under validated options: throws
/// score_overflow_error (a validation_error) naming the shape and the
/// bound when its worst-case score, (n + m + 2) * unit computed in int64,
/// reaches int32_score_window().  `unit` is the largest per-cell score
/// step under `opt`.  `align`, every pair of `align_batch` (before any
/// pair runs) and the service's `submit` check it; an empty sequence
/// passes unless the other is past the bound on its own.
void validate_shape(index_t n, index_t m, const align_options& opt);

/// One batch job.
struct seq_pair {
  stage::seq_view q, s;
};

namespace engine {
struct ops;  // internal per-variant function table (engine_table.hpp)
}  // namespace engine

/// Reusable alignment handle — the plan/execute split made public.
///
/// A plain `align()` call re-derives its route and allocates its DP
/// buffers every time.  An `aligner` separates the two: *plan* (options
/// validation, backend resolution, route classification, memory
/// footprint) happens once per (options, shape) change, and *execute*
/// runs entirely inside a per-variant workspace arena the handle owns
/// and reuses.  After warm-up — once the arena and the recycled result
/// buffers have grown to the working set — repeated `align_into` calls
/// perform ZERO heap allocations on every CPU route (score, full-matrix
/// traceback, Hirschberg, locate, banded; enforced by
/// tests/core/alloc_steady_state_test.cpp), at any `threads`: the
/// wavefront's workers are jobs on the global pool, not threads spawned
/// per pass (DESIGN.md §6).
///
/// ```
///   anyseq::aligner a(opt);
///   a.reserve(n, m);                   // optional: pre-size the arena
///   anyseq::alignment_result r;
///   for (...) {
///     a.align_into(q, s, r);           // r's buffers are recycled
///     consume(r);
///   }
/// ```
///
/// Thread-safety: an aligner serves one call at a time; use one handle
/// per thread (the one-shot `align()` wrapper does exactly that with a
/// thread-local instance).  Simulator backends (gpu_sim / fpga_sim)
/// execute through their legacy paths and are exempt from the
/// allocation contract.
class aligner {
 public:
  /// Plan for default options.
  aligner();
  /// Plan for `opt`; throws like `align` (invalid_argument_error /
  /// unsupported_backend_error).
  explicit aligner(const align_options& opt);
  ~aligner();
  aligner(aligner&& other) noexcept;
  aligner& operator=(aligner&& other) noexcept;
  aligner(const aligner&) = delete;
  aligner& operator=(const aligner&) = delete;

  /// Re-plan for new options (validation + backend resolution).  The
  /// workspace arena is kept — switching options does not drop warm-up.
  void set_options(const align_options& opt);
  [[nodiscard]] const align_options& options() const noexcept {
    return opt_;
  }

  /// Align under the stored options.  Equivalent to `anyseq::align` with
  /// the same options, but reusing this handle's workspace.
  [[nodiscard]] alignment_result align(stage::seq_view q, stage::seq_view s);

  /// Zero-steady-state-allocation form: the result is written into
  /// `out`, whose string capacity is recycled into the traceback
  /// builders.  Feed the same object back to stay allocation-free.
  void align_into(stage::seq_view q, stage::seq_view s,
                  alignment_result& out);

  /// Batch forms (see `anyseq::align_batch` for semantics).  The `_into`
  /// form recycles `out`'s element buffers batch after batch.
  [[nodiscard]] std::vector<alignment_result> align_batch(
      std::span<const seq_pair> pairs);
  void align_batch_into(std::span<const seq_pair> pairs,
                        std::vector<alignment_result>& out);

  /// Path accounting for the most recent call on this handle: for
  /// score batches, how many pairs ran on narrow SIMD lanes (uniform
  /// and lane-padded ragged chunks, striped pairs), scalar or
  /// bit-parallel; for traceback batches and solo full-matrix tracebacks,
  /// how many global pairs a band pass certified (`banded_pairs`) and
  /// how many band passes ran (`band_passes`).  Zeroed at the start of
  /// every align, batch and banded call; zero for other solo routes and
  /// for simulator backends.
  [[nodiscard]] batch_stats last_batch_stats() const noexcept {
    return last_batch_stats_;
  }

  /// Tile accounting for the most recent `align`/`align_into` call on
  /// this handle: striped and int32 tiles, the workers run and the peak
  /// ready queue, summed over a traceback's tiled passes.  Zero for
  /// routes that run no wavefront (small/bitpar/striped scores,
  /// full-matrix tracebacks, simulators) and for batch calls.
  [[nodiscard]] wavefront_stats last_wavefront_stats() const noexcept {
    return last_wavefront_stats_;
  }

  /// Banded forms (see `anyseq::align_banded` for semantics).
  [[nodiscard]] alignment_result align_banded(stage::seq_view q,
                                              stage::seq_view s, band b);
  void align_banded_into(stage::seq_view q, stage::seq_view s, band b,
                         alignment_result& out);

  /// What the plan decided for an (n x m) problem under the stored
  /// options: the dispatched variant, the execution route, and the exact
  /// arena footprint the route carves.
  struct plan_info {
    const char* variant;  ///< "scalar" / "avx2" / "avx512" / simulator
    const char* route;    ///< "tiled_score", "small_score", "full_matrix",
                          ///< "hirschberg", "locate", "bitpar_score",
                          ///< "striped_score", or "unsupported"
    std::size_t workspace_bytes;  ///< exact arena footprint of the route
    /// Score accumulator the route commits to for this shape: `bitpar`
    /// on the bit-parallel route, `int16` on the striped route, `int32`
    /// everywhere else (including tracebacks).
    score_precision precision;
    /// Tile extent the wavefront routes use for this shape (`tile`, or
    /// the plan-time derivation when it is 0); 0 for simulators.
    index_t tile;
  };
  [[nodiscard]] plan_info plan(index_t n, index_t m) const;

  /// Pre-size the arena for (n x m) problems so even the FIRST score
  /// pass of that shape allocates nothing (traceback routes additionally
  /// need one warm-up call for the string buffers).
  void reserve(index_t n, index_t m);

  /// Bytes currently held by the workspace arena(s).
  [[nodiscard]] std::size_t workspace_bytes() const noexcept;

  /// Release all workspace memory (footprint control between bursts);
  /// the next call re-warms.
  void shrink() noexcept;

 private:
  void destroy_workspaces() noexcept;
  [[nodiscard]] void* workspace_handle();  ///< lazily created, per variant

  align_options opt_{};
  backend exec_ = backend::scalar;          ///< resolved backend
  const engine::ops* ops_ = nullptr;        ///< CPU variants only
  void* ws_[3] = {nullptr, nullptr, nullptr};  ///< one arena per variant
  batch_stats last_batch_stats_{};  ///< filled by batch and full-matrix calls
  wavefront_stats last_wavefront_stats_{};  ///< filled by tiled routes
};

/// Align two encoded sequences (codes from dna_encode / bio::sequence).
/// One-shot convenience over a thread-local `aligner`, so repeated calls
/// from the same thread reuse a warm workspace.
[[nodiscard]] alignment_result align(stage::seq_view q, stage::seq_view s,
                                     const align_options& opt = {});

/// Align two character strings (encoded internally).
[[nodiscard]] alignment_result align_strings(std::string_view q,
                                             std::string_view s,
                                             const align_options& opt = {});

/// Align many pairs (the NGS-read use case): inter-sequence SIMD across
/// pairs, multithreaded across pairs.  Results keep the input order, and
/// each pair's result equals what `align` returns for it under `opt`
/// (score, end and begin cells, CIGAR, cells), on every backend: a pair
/// off the SIMD lanes runs the route `align` picks for it, on one
/// thread.  So an extension traceback past `full_matrix_cells` throws
/// invalid_argument_error for the whole batch, as `align` does for it.
///
/// Degenerate inputs are defined, never UB: an empty `pairs` span
/// returns an empty vector (after option validation — invalid options
/// still throw), and zero-length sequences in any entry are aligned
/// normally (an all-gap alignment against the non-empty side; score 0
/// for local alignment).
[[nodiscard]] std::vector<alignment_result> align_batch(
    std::span<const seq_pair> pairs, const align_options& opt = {});

/// Banded global alignment restricted to diagonals b.lo <= j - i <= b.hi
/// (resequencing-style workloads).  Requires opt.kind == global and a CPU
/// backend; score-only unless opt.want_alignment.  The band must contain
/// diagonals 0 and m - n or invalid_argument_error is thrown.
[[nodiscard]] alignment_result align_banded(stage::seq_view q,
                                            stage::seq_view s, band b,
                                            const align_options& opt = {});

/// Name of the engine variant the given options dispatch to on this host
/// ("scalar", "avx2", "avx512", "gpu_sim", "fpga_sim"); static storage.
/// With default options this is the auto_select resolution.  Throws
/// unsupported_backend_error for a forced SIMD backend the binary/CPU
/// combination cannot run — exactly like align().
[[nodiscard]] const char* backend_name(const align_options& opt = {});

/// Library version string.
[[nodiscard]] const char* version() noexcept;

}  // namespace anyseq
