#pragma once
/// \file engine_table.hpp
/// Internal seam between the public dispatcher (align.cpp) and the
/// per-variant engine translation units — the *only* boundary between
/// baseline code and the `anyseq::v_*` engine namespaces.
///
/// Each engine variant the library ships (v_scalar, v_avx2, v_avx512) is
/// the whole lane-dependent engine stack compiled once inside its own
/// namespace by its own translation unit — src/simd/engines_scalar.cpp,
/// engines_avx2.cpp, engines_avx512.cpp — so the build can hand each TU
/// the matching -m<isa> flags without any symbol ever being shared with
/// baseline (or another variant's) code.  A variant exports exactly one
/// thing across that boundary: an `ops` table of plain function pointers
/// covering every lane-dependent entry point.  align.cpp picks a table
/// per call after consulting simd::detect(), so no ISA-flagged code
/// executes on a CPU that cannot run it.
///
/// Plan/execute split: every execute entry takes an opaque workspace
/// handle (`void*`) created by the same variant's `ws_create`.  The
/// workspace is the variant's `anyseq::v_*::workspace` arena — a
/// per-target type that must never be named here, which is exactly why
/// it crosses as `void*`.  The caller (an `anyseq::aligner`) owns the
/// handle and reuses it call after call; after warm-up the execute
/// entries perform zero heap allocations.  Batch entries write into
/// caller-presized spans for the same reason (and so no std::vector
/// method with DP-adjacent loops is ever emitted weak by an ISA TU).
///
/// Everything in the signatures below is a shared baseline type
/// (seq_view, align_options, band, score_result, alignment_result) — no
/// per-target type may appear here.

#include <span>

#include "anyseq/anyseq.hpp"

namespace anyseq::engine {

/// Cells at or below which a serial one-pair pass beats the tiled
/// engine for score-only alignment (the striped int16 kernel on vector
/// variants, the rolling pass for extension on the scalar one) — ONE
/// definition shared by the dispatcher's route selection,
/// `aligner::plan`, and every variant's plan_bytes (they must never
/// drift apart: reserve() would otherwise pre-size for a route execute
/// never runs).
inline constexpr index_t kSmallScoreCells = index_t{1} << 16;

/// Default Hirschberg full-DP recursion cutoff (the engines' default).
inline constexpr index_t kHirschbergBaseCells = index_t{1} << 14;

/// The execution route the dispatcher selects for an (n x m) problem.
enum class route_kind : std::uint8_t {
  tiled_score,
  small_score,
  full_matrix,
  hirschberg,
  locate,
  bitpar_score,   ///< Myers bit-parallel scoring (unit-cost option sets)
  striped_score,  ///< intra-pair striped int16 kernel (vector variants)
  unsupported,  ///< oversized extension traceback: rejected at execute
};

/// The single route classifier (defined out-of-line in align.cpp so the
/// ISA-flagged TUs can call it without emitting weak shared symbols).
/// `opt` must already be validated; `lanes` is the SIMD width of the
/// variant that will execute (`ops::lanes`) — the striped route exists
/// on vector variants only.
[[nodiscard]] route_kind classify_route(index_t n, index_t m,
                                        const align_options& opt,
                                        int lanes) noexcept;

/// Largest per-cell score step under `opt` (tiled::unit_step of its gap
/// and scoring policies) — the `unit` of the (n + m + 2) * unit bound.
[[nodiscard]] score_t score_unit(const align_options& opt) noexcept;

[[nodiscard]] const char* to_string(route_kind r) noexcept;

/// True if the *option shape* admits the Myers bit-parallel engine: a
/// score-only global alignment under a unit-cost model (match == 0,
/// linear gaps, mismatch == gap_extend < 0, no matrix) with precision
/// auto_select.  Shape-only — the per-pair size gate (n, m > 0)
/// stays in classify_route / the batch engine.  Out-of-line in align.cpp
/// for the same weak-symbol reason as classify_route.
[[nodiscard]] bool bitpar_admissible(const align_options& opt) noexcept;

/// Precision hint the batch engine should run under for `opt`: `bitpar`
/// when the option shape admits it, otherwise the requested
/// `auto_select` or `int32`.  Per-chunk resolution of `auto_select`
/// against the worst-case score bound happens inside the batch engine.
[[nodiscard]] score_precision classify_batch_precision(
    const align_options& opt) noexcept;

/// Accumulator `classify_route` commits to for a single (n x m) pair on
/// a `lanes`-wide variant — what `aligner::plan` reports as
/// plan_info::precision.
[[nodiscard]] score_precision classify_plan_precision(
    index_t n, index_t m, const align_options& opt, int lanes) noexcept;

/// Function table of one compiled engine variant.  All entries
/// re-dispatch (kind x gap x scoring) from `opt` internally; `opt` is
/// already validated and its `exec`/`threads` fields resolved by the
/// caller's policy — the table entries never consult the CPU again.
/// Entries producing an alignment_result stamp `variant` with `name`
/// from inside the variant namespace.
struct ops {
  int lanes;         ///< SIMD width this variant was instantiated with
  bool native;       ///< TU compiled with the matching ISA flags
  const char* name;  ///< for diagnostics ("scalar", "avx2", "avx512")

  // --- workspace lifecycle (plan) -----------------------------------

  /// Heap-construct this variant's workspace arena.
  void* (*ws_create)();
  /// Destroy a workspace created by this variant's ws_create.
  void (*ws_destroy)(void* ws) noexcept;
  /// Release the arena and pooled builders (footprint control).
  void (*ws_shrink)(void* ws) noexcept;
  /// Bytes the arena currently holds.
  std::size_t (*ws_capacity)(const void* ws) noexcept;
  /// Pre-size the arena so a pass needing up to `bytes` never allocates.
  void (*ws_reserve)(void* ws, std::size_t bytes);
  /// Exact arena footprint of the route `opt` selects for an (n x m)
  /// problem — what `aligner::reserve` feeds into ws_reserve.
  std::size_t (*plan_bytes)(index_t n, index_t m, const align_options& opt);
  /// Tile extent the tiled routes use for an (n x m) problem under `opt`
  /// (`opt.tile`, or the plan-time derivation when it is 0).
  index_t (*plan_tile)(index_t n, index_t m, const align_options& opt);

  // --- execute entries (all carve from `ws`, never allocate after
  //     warm-up; traceback entries recycle `out`'s buffers) -----------

  /// Tiled multi-threaded score pass (any alignment kind).
  score_result (*tiled_score)(stage::seq_view q, stage::seq_view s,
                              const align_options& opt, void* ws);

  /// Serial rolling-row score pass for small inputs (below ~2^16 cells
  /// the tiled pass's borders and pool hand-off cost more than it saves).
  score_result (*small_score)(stage::seq_view q, stage::seq_view s,
                              const align_options& opt, void* ws);

  /// Myers bit-parallel score pass (unit-cost option sets only; ~1
  /// instruction per 64 DP cells).  Falls back to the rolling engine
  /// inside the same workspace pass for alphabets beyond 32 codes.
  score_result (*bitpar_score)(stage::seq_view q, stage::seq_view s,
                               const align_options& opt, void* ws);

  /// Intra-pair striped int16 score pass for one pair (vector variants;
  /// the caller proved the int16 bound).  The scalar variant rolls.
  score_result (*striped_score)(stage::seq_view q, stage::seq_view s,
                                const align_options& opt, void* ws);

  /// Linear-space *global* alignment with traceback (tiled Hirschberg).
  void (*hirschberg_global)(stage::seq_view q, stage::seq_view s,
                            const align_options& opt, void* ws,
                            alignment_result& out);

  /// Linear-space local/semiglobal traceback: locate the aligned region,
  /// then reconstruct it with this variant's Hirschberg engine.
  void (*locate)(stage::seq_view q, stage::seq_view s,
                 const align_options& opt, void* ws, alignment_result& out);

  /// Banded global alignment (diagonals lo <= j - i <= hi), score or
  /// traceback per opt.want_alignment.
  void (*banded_align)(stage::seq_view q, stage::seq_view s, band b,
                       const align_options& opt, void* ws,
                       alignment_result& out);

  /// Inter-sequence SIMD batch scoring; one score_result per pair, input
  /// order preserved.  `out` is caller-presized to pairs.size().  When
  /// `stats` is non-null it receives the run's path accounting (simd vs
  /// scalar vs ragged pair counts) — a plain overwrite, not accumulation.
  void (*batch_scores)(std::span<const seq_pair> pairs,
                       const align_options& opt, void* ws,
                       std::span<score_result> out, batch_stats* stats);

  /// Batch alignment with traceback (order preserved): per-pair
  /// full-matrix alignment compiled inside this variant's namespace,
  /// global pairs band-doubled first.  The solo full-matrix route is a
  /// one-pair call (quadratic memory — the caller enforces
  /// opt.full_matrix_cells).  `out` is caller-presized to pairs.size().
  /// `stats`, when non-null, receives the banded_pairs / band_passes
  /// accounting (an overwrite, like batch_scores).
  void (*batch_align)(std::span<const seq_pair> pairs,
                      const align_options& opt, void* ws,
                      std::span<alignment_result> out, batch_stats* stats);

  /// Wavefront accounting of the last tiled score, tiled Hirschberg or
  /// locate call on `ws` (summed over a traceback's tiled passes).
  wavefront_stats (*last_wavefront)(const void* ws) noexcept;
};

/// The three variants are always present; `native` records whether their
/// TU actually received ISA flags from the build.
[[nodiscard]] const ops& ops_x1();   // engines_scalar.cpp -> anyseq::v_scalar
[[nodiscard]] const ops& ops_x16();  // engines_avx2.cpp   -> anyseq::v_avx2
[[nodiscard]] const ops& ops_x32();  // engines_avx512.cpp -> anyseq::v_avx512

}  // namespace anyseq::engine
