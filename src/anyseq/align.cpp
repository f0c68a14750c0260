/// \file align.cpp
/// The dispatcher: maps runtime align_options onto one engine variant's
/// `engine::ops` table — and the public `aligner` handle that makes the
/// plan/execute split reusable.
///
/// No engine template is instantiated here: this TU is compiled with
/// baseline flags and reaches the engine variants only through the
/// function tables of engine_table.hpp, whose implementations live in
/// the per-variant namespaces `anyseq::v_*`, each compiled by its own
/// ISA-flagged translation unit.  simd::detect() gates every entry,
/// so a binary with native AVX2/AVX-512 kernels never executes them on a
/// CPU that lacks the ISA.
///
/// The one-shot `align()` family is a thin wrapper over a thread-local
/// `aligner`, so even fire-and-forget callers reuse a warm workspace;
/// the aligner itself owns one opaque workspace handle per dispatched
/// variant and routes every call through the ops table.

#include "anyseq/anyseq.hpp"

#include "anyseq/engine_table.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/detect.hpp"

namespace anyseq {
namespace {

/// Resolve auto_select against the running CPU and reject forced SIMD
/// backends the binary/CPU combination cannot run (the dispatch contract
/// tested by tests/simd/dispatch_test.cpp).
backend resolve_backend(backend b) {
  const auto f = simd::detect();
  if (b == backend::auto_select) {
    switch (simd::widest_lanes(f)) {
      case 32: return backend::simd_avx512;
      case 16: return backend::simd_avx2;
      default: return backend::scalar;
    }
  }
  if (b == backend::simd_avx2 && !simd::lanes_runnable(16, f))
    throw unsupported_backend_error(
        "backend simd_avx2 was forced, but this binary's AVX2 kernels "
        "cannot run on this CPU (" + simd::describe(f) + ")");
  if (b == backend::simd_avx512 && !simd::lanes_runnable(32, f))
    throw unsupported_backend_error(
        "backend simd_avx512 was forced, but this binary's AVX-512 kernels "
        "cannot run on this CPU (" + simd::describe(f) + ")");
  return b;
}

/// The function table of a resolved backend.
const engine::ops& ops_for(backend b) {
  switch (b) {
    case backend::scalar: return engine::ops_x1();
    case backend::simd_avx2: return engine::ops_x16();
    case backend::simd_avx512: return engine::ops_x32();
    default: break;
  }
  throw invalid_argument_error("unknown backend");
}

/// Workspace slot of a resolved backend inside an aligner.
[[nodiscard]] int ws_slot(backend b) noexcept {
  switch (b) {
    case backend::simd_avx2: return 1;
    case backend::simd_avx512: return 2;
    default: return 0;
  }
}

/// The variant table owning workspace slot `i` (every slot is created
/// and destroyed through its own variant's lifecycle entries).
const engine::ops& ops_of_slot(int i) {
  switch (i) {
    case 1: return engine::ops_x16();
    case 2: return engine::ops_x32();
    default: return engine::ops_x1();
  }
}

/// The thread-local handle behind the one-shot `align()` family.  Each
/// calling thread keeps one warm workspace set for its lifetime; the
/// memory is bounded by the largest problem the thread has aligned
/// (release it with an explicit `aligner` + `shrink()` if that matters).
aligner& thread_aligner() {
  static thread_local aligner a;
  return a;
}

}  // namespace

namespace engine {

route_kind classify_route(index_t n, index_t m, const align_options& opt,
                          int lanes) noexcept {
  const index_t cells = n * m;
  if (!opt.want_alignment) {
    // Unit-cost option sets take the bit-parallel lane regardless of
    // size (it beats every DP kernel on cells/instruction).
    if (n > 0 && m > 0 && bitpar_admissible(opt))
      return route_kind::bitpar_score;
    // The int32 reference is by definition the rolling engine.
    if (opt.precision == score_precision::int32)
      return route_kind::small_score;
    // A pair inside the int16 bound (which also needs n, m > 0) runs
    // striped over its own query on a vector variant: at any size on one
    // thread, up to kSmallScoreCells on more.
    if (lanes > 1 && fits_score_window(n, m, score_unit(opt),
                                       int16_score_window()) &&
        (cells <= kSmallScoreCells ||
         parallel::resolve_threads(opt.threads) == 1))
      return route_kind::striped_score;
    // Tiny pairs, and small extension problems, are faster on the
    // rolling pass than on the tiled engine (its per-pass set-up
    // dominates).  The scalar variant's one-tile pass beats rolling
    // above that: 57 against 109 us at 150 x 150.
    return cells <= kRollingScoreCells ||
                   (opt.kind == align_kind::extension &&
                    cells <= kSmallScoreCells)
               ? route_kind::small_score
               : route_kind::tiled_score;
  }
  if (cells <= opt.full_matrix_cells) return route_kind::full_matrix;
  switch (opt.kind) {
    case align_kind::global: return route_kind::hirschberg;
    case align_kind::local:
    case align_kind::semiglobal: return route_kind::locate;
    default: return route_kind::unsupported;
  }
}

const char* to_string(route_kind r) noexcept {
  switch (r) {
    case route_kind::tiled_score: return "tiled_score";
    case route_kind::small_score: return "small_score";
    case route_kind::full_matrix: return "full_matrix";
    case route_kind::hirschberg: return "hirschberg";
    case route_kind::locate: return "locate";
    case route_kind::bitpar_score: return "bitpar_score";
    case route_kind::striped_score: return "striped_score";
    case route_kind::unsupported: return "unsupported";
  }
  return "?";
}

bool bitpar_admissible(const align_options& opt) noexcept {
  const bool unit_cost = !opt.matrix.has_value() && opt.match == 0 &&
                         opt.gap_open == 0 && opt.gap_extend < 0 &&
                         opt.mismatch == opt.gap_extend;
  return unit_cost && opt.kind == align_kind::global &&
         !opt.want_alignment &&
         opt.precision == score_precision::auto_select;
}

score_t score_unit(const align_options& opt) noexcept {
  const score_t subst =
      opt.matrix.has_value()
          ? opt.matrix->max_abs_unit()
          : std::max(std::abs(opt.match), std::abs(opt.mismatch));
  return std::max({subst, std::abs(opt.gap_open + opt.gap_extend),
                   std::abs(opt.gap_extend)});
}

score_precision classify_plan_precision(index_t n, index_t m,
                                        const align_options& opt,
                                        int lanes) noexcept {
  switch (classify_route(n, m, opt, lanes)) {
    case route_kind::bitpar_score: return score_precision::bitpar;
    case route_kind::striped_score: return score_precision::int16;
    default: return score_precision::int32;  // committed accumulator
  }
}

}  // namespace engine

void validate(const align_options& opt) {
  // Magnitudes first: every later check and every engine may then
  // negate or add scores without overflow.
  const auto bounded = [](score_t v, const char* field) {
    if (v < -max_abs_score || v > max_abs_score)
      throw validation_error(std::string(field) +
                             " magnitude must be <= 2^20 (max_abs_score)");
  };
  bounded(opt.match, "match");
  bounded(opt.mismatch, "mismatch");
  bounded(opt.gap_open, "gap_open");
  bounded(opt.gap_extend, "gap_extend");
  if (opt.matrix.has_value())
    for (const score_t v : opt.matrix->table) bounded(v, "matrix entry");
  if (opt.gap_extend > 0)
    throw validation_error("gap_extend must be <= 0 (penalties are "
                           "added to scores)");
  if (opt.gap_open > 0)
    throw validation_error("gap_open must be <= 0");
  if (opt.threads < 0)
    throw validation_error("threads must be >= 0");
  if (opt.tile < 0)
    throw validation_error("tile must be >= 0 (0 = derive at plan time)");
  if (opt.kind == align_kind::local && !opt.matrix.has_value() &&
      opt.match <= 0)
    throw validation_error(
        "local alignment needs a positive match score");
  if (opt.full_matrix_cells < 0)
    throw validation_error("full_matrix_cells must be >= 0");
  if (opt.precision != score_precision::auto_select &&
      opt.precision != score_precision::int32)
    throw validation_error(
        std::string("precision must be auto_select or int32 (") +
        to_string(opt.precision) + " is chosen by the plan, not requested)");
}

void validate_shape(index_t n, index_t m, const align_options& opt) {
  const score_t unit = engine::score_unit(opt);
  const index_t worst = (n + m + 2) * static_cast<index_t>(unit);
  if (worst < int32_score_window()) return;
  throw score_overflow_error(
      "a " + std::to_string(n) + " x " + std::to_string(m) +
      " pair at score unit " + std::to_string(unit) + " can reach |score| " +
      std::to_string(worst) + ", past the int32 window " +
      std::to_string(int32_score_window()) +
      " ((n + m + 2) * unit must stay below it)");
}

// ---------------------------------------------------------------------
// aligner: the reusable plan/execute handle.
// ---------------------------------------------------------------------

aligner::aligner() : aligner(align_options{}) {}

aligner::aligner(const align_options& opt) { set_options(opt); }

aligner::~aligner() { destroy_workspaces(); }

aligner::aligner(aligner&& other) noexcept
    : opt_(other.opt_),
      exec_(other.exec_),
      ops_(other.ops_),
      last_batch_stats_(other.last_batch_stats_),
      last_wavefront_stats_(other.last_wavefront_stats_) {
  for (int i = 0; i < 3; ++i) {
    ws_[i] = other.ws_[i];
    other.ws_[i] = nullptr;
  }
}

aligner& aligner::operator=(aligner&& other) noexcept {
  if (this != &other) {
    destroy_workspaces();
    opt_ = other.opt_;
    exec_ = other.exec_;
    ops_ = other.ops_;
    last_batch_stats_ = other.last_batch_stats_;
    last_wavefront_stats_ = other.last_wavefront_stats_;
    for (int i = 0; i < 3; ++i) {
      ws_[i] = other.ws_[i];
      other.ws_[i] = nullptr;
    }
  }
  return *this;
}

void aligner::destroy_workspaces() noexcept {
  for (int i = 0; i < 3; ++i) {
    if (ws_[i] != nullptr) {
      ops_of_slot(i).ws_destroy(ws_[i]);
      ws_[i] = nullptr;
    }
  }
}

void aligner::set_options(const align_options& opt) {
  validate(opt);
  const backend exec = resolve_backend(opt.exec);
  const engine::ops& ops = ops_for(exec);
  opt_ = opt;
  exec_ = exec;
  ops_ = &ops;
}

void* aligner::workspace_handle() {
  const int i = ws_slot(exec_);
  if (ws_[i] == nullptr) ws_[i] = ops_->ws_create();
  return ws_[i];
}

void aligner::align_into(stage::seq_view q, stage::seq_view s,
                         alignment_result& out) {
  last_batch_stats_ = {};
  last_wavefront_stats_ = {};
  validate_shape(q.size(), s.size(), opt_);
  ops_->align(q, s, opt_, workspace_handle(), out, &last_batch_stats_,
              &last_wavefront_stats_);
}

alignment_result aligner::align(stage::seq_view q, stage::seq_view s) {
  alignment_result out;
  align_into(q, s, out);
  return out;
}

void aligner::align_batch_into(std::span<const seq_pair> pairs,
                               std::vector<alignment_result>& out) {
  last_batch_stats_ = {};
  last_wavefront_stats_ = {};
  // Empty batch: defined no-op (options were validated by set_options).
  if (pairs.empty()) {
    out.clear();
    return;
  }
  // Every shape before any pair runs: a batch throws as a whole.
  for (const seq_pair& p : pairs) validate_shape(p.q.size(), p.s.size(), opt_);
  out.resize(pairs.size());  // reused elements keep their capacity
  ops_->align_batch(pairs, opt_, workspace_handle(),
                    std::span<alignment_result>(out), &last_batch_stats_);
}

std::vector<alignment_result> aligner::align_batch(
    std::span<const seq_pair> pairs) {
  std::vector<alignment_result> out;
  align_batch_into(pairs, out);
  return out;
}

void aligner::align_banded_into(stage::seq_view q, stage::seq_view s,
                                band b, alignment_result& out) {
  last_batch_stats_ = {};
  last_wavefront_stats_ = {};
  if (opt_.kind != align_kind::global)
    throw invalid_argument_error(
        "align_banded supports global alignment only");
  validate_shape(q.size(), s.size(), opt_);
  ops_->banded_align(q, s, b, opt_, workspace_handle(), out);
}

alignment_result aligner::align_banded(stage::seq_view q, stage::seq_view s,
                                       band b) {
  alignment_result out;
  align_banded_into(q, s, b, out);
  return out;
}

aligner::plan_info aligner::plan(index_t n, index_t m) const {
  plan_info p{};
  p.variant = ops_->name;
  p.route =
      engine::to_string(engine::classify_route(n, m, opt_, ops_->lanes));
  p.workspace_bytes = ops_->plan_bytes(n, m, opt_);
  p.precision = engine::classify_plan_precision(n, m, opt_, ops_->lanes);
  const engine::tile_shape tile = ops_->plan_tile(n, m, opt_);
  p.tile = tile.h;
  p.tile_w = tile.w;
  return p;
}

void aligner::reserve(index_t n, index_t m) {
  ops_->ws_reserve(workspace_handle(), ops_->plan_bytes(n, m, opt_));
}

std::size_t aligner::workspace_bytes() const noexcept {
  std::size_t total = 0;
  for (int i = 0; i < 3; ++i)
    if (ws_[i] != nullptr) total += ops_of_slot(i).ws_capacity(ws_[i]);
  return total;
}

void aligner::shrink() noexcept {
  for (int i = 0; i < 3; ++i)
    if (ws_[i] != nullptr) ops_of_slot(i).ws_shrink(ws_[i]);
}

// ---------------------------------------------------------------------
// One-shot entry points: thin wrappers over the thread-local aligner.
// ---------------------------------------------------------------------

alignment_result align(stage::seq_view q, stage::seq_view s,
                       const align_options& opt) {
  aligner& a = thread_aligner();
  a.set_options(opt);
  return a.align(q, s);
}

alignment_result align_strings(std::string_view q, std::string_view s,
                               const align_options& opt) {
  const auto qc = dna_encode_all(q);
  const auto sc = dna_encode_all(s);
  return align(stage::seq_view(qc.data(), static_cast<index_t>(qc.size())),
               stage::seq_view(sc.data(), static_cast<index_t>(sc.size())),
               opt);
}

alignment_result align_banded(stage::seq_view q, stage::seq_view s, band b,
                              const align_options& opt) {
  aligner& a = thread_aligner();
  a.set_options(opt);  // validates; align_banded checks the kind
  return a.align_banded(q, s, b);
}

std::vector<alignment_result> align_batch(std::span<const seq_pair> pairs,
                                          const align_options& opt) {
  aligner& a = thread_aligner();
  a.set_options(opt);
  return a.align_batch(pairs);
}

const char* backend_name(const align_options& opt) {
  return ops_for(resolve_backend(opt.exec)).name;
}

const char* version() noexcept { return "1.0.0"; }

}  // namespace anyseq
