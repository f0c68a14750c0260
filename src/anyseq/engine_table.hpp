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
/// shaped like the public API — one execute entry per public call
/// (`align`, `align_batch`, `banded_align`), the plan queries behind
/// `aligner::plan`/`reserve`, and the workspace lifecycle.  The route a
/// call takes is decided inside the variant, by the shared
/// `classify_route` below; no route crosses the seam.  align.cpp picks a
/// table per call after consulting simd::detect(), so no ISA-flagged
/// code executes on a CPU that cannot run it.
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
/// (seq_view, align_options, band, alignment_result, batch_stats) — no
/// per-target type may appear here.

#include <span>

#include "anyseq/anyseq.hpp"

namespace anyseq::engine {

/// Cells up to which a pair inside the int16 bound runs striped on more
/// than one thread (on one, at any size); past it the wavefront wins (4
/// threads, 2000 x 2000: 14.2 against 9.4 GCUPS).  Like the break-even
/// below, ONE definition `classify_route` reads for every caller.
inline constexpr index_t kSmallScoreCells = index_t{1} << 16;

/// Cells up to which rolling beats the scalar variant's one-tile pass
/// (one thread, global affine 2/-1/-2/-1): it wins by 6-13% at 16 x 16,
/// ties at 20 x 20, loses by 2-15% at 24 x 24 and by 19% at 32 x 32.
inline constexpr index_t kRollingScoreCells = 20 * 20;

/// Default Hirschberg full-DP recursion cutoff (the engines' default).
inline constexpr index_t kHirschbergBaseCells = index_t{1} << 14;

/// The execution route a variant's `align` entry takes for an (n x m)
/// problem.
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
/// on vector variants only.  A batch's pairs off lanes take it too.
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
/// auto_select.  Shape-only — the per-pair size gate (n, m > 0) stays
/// in classify_route.  Out-of-line for the same weak-symbol reason.
[[nodiscard]] bool bitpar_admissible(const align_options& opt) noexcept;

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
  //     warm-up; traceback results recycle `out`'s buffers) ----------

  /// Align one pair: the public `aligner::align_into` call.  Classifies
  /// the route (`classify_route`, the switch `plan_bytes` sizes for),
  /// runs it and stamps `out.variant`.  A full-matrix traceback is a
  /// one-pair `align_batch` and writes its banded_pairs / band_passes
  /// into `stats` when non-null (an overwrite, left alone by every
  /// other route).  When `wavefront` is non-null it is overwritten with
  /// the call's tiled score, tiled Hirschberg or locate accounting
  /// (summed over a traceback's passes), zero for every other route.
  /// Throws invalid_argument_error for an extension traceback above
  /// `opt.full_matrix_cells`.
  void (*align)(stage::seq_view q, stage::seq_view s,
                const align_options& opt, void* ws, alignment_result& out,
                batch_stats* stats, wavefront_stats* wavefront);

  /// Align many pairs, input order preserved: the public
  /// `aligner::align_batch_into` call.  Score-only batches run the
  /// inter-sequence SIMD batch kernel; traceback batches align pair by
  /// pair (global pairs band-doubled first, the full matrix as
  /// fallback).  `out` is caller-presized to pairs.size().  When `stats`
  /// is non-null it receives the run's path accounting — a plain
  /// overwrite, not accumulation.
  void (*align_batch)(std::span<const seq_pair> pairs,
                      const align_options& opt, void* ws,
                      std::span<alignment_result> out, batch_stats* stats);

  /// Banded global alignment (diagonals lo <= j - i <= hi), score or
  /// traceback per opt.want_alignment.
  void (*banded_align)(stage::seq_view q, stage::seq_view s, band b,
                       const align_options& opt, void* ws,
                       alignment_result& out);
};

/// The three variants are always present; `native` records whether their
/// TU actually received ISA flags from the build.
[[nodiscard]] const ops& ops_x1();   // engines_scalar.cpp -> anyseq::v_scalar
[[nodiscard]] const ops& ops_x16();  // engines_avx2.cpp   -> anyseq::v_avx2
[[nodiscard]] const ops& ops_x32();  // engines_avx512.cpp -> anyseq::v_avx512

}  // namespace anyseq::engine
