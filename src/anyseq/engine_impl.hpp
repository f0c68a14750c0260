/// \file engine_impl.hpp
/// Implementation of one engine variant.  Included ONLY through
/// simd/foreach_target.hpp by the three variant TUs
/// (src/simd/engines_{scalar,avx2,avx512}.cpp); never by baseline code.
///
/// Everything here — and the whole engine stack it pulls in (tiled
/// engines, SIMD packs, full-matrix/rolling/Hirschberg/banded/locate
/// passes, traceback, the workspace arena) — compiles inside
/// `anyseq::ANYSEQ_TARGET_NS`, so every symbol this TU emits carries its
/// variant namespace.  No COMDAT instantiation can ever be shared with
/// baseline code or with another variant: the one-definition hazard of
/// mixing per-TU ISA flags is gone by construction (the nm audit in
/// scripts/check_symbol_isolation.sh verifies this on every build).
///
/// The only thing that leaves this namespace is the `engine::ops` table
/// of function pointers (engine_table.hpp), built from shared baseline
/// types exclusively.  Workspaces cross that boundary as opaque `void*`
/// handles; every execute entry below opens the pass (`begin_pass`) and
/// carves all DP storage from the handle's arena — the execute half of
/// the plan/execute split.  `align_impl` classifies the route and
/// switches on it; `plan_bytes_impl`, the plan half, switches on the
/// same classification right beside it and returns the route's exact
/// arena footprint, so `aligner::reserve` can pre-size a workspace such
/// that even the first call never allocates.

#include "simd/set_target.hpp"

#if defined(ANYSEQ_ANYSEQ_ENGINE_IMPL_HPP_) == defined(ANYSEQ_TARGET_TOGGLE)
#ifdef ANYSEQ_ANYSEQ_ENGINE_IMPL_HPP_
#undef ANYSEQ_ANYSEQ_ENGINE_IMPL_HPP_
#else
#define ANYSEQ_ANYSEQ_ENGINE_IMPL_HPP_
#endif

#include "anyseq/engine_table.hpp"
#include "anyseq/option_dispatch.hpp"
#include "core/banded.hpp"
#include "core/bitpar.hpp"
#include "core/full_engine.hpp"
#include "core/locate.hpp"
#include "core/rolling.hpp"
#include "core/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "tiled/batch_engine.hpp"
#include "tiled/striped.hpp"
#include "tiled/tiled_engine.hpp"
#include "tiled/tiled_hirschberg.hpp"

namespace anyseq {
namespace ANYSEQ_TARGET_NS {
namespace engine {

/// SIMD width of this variant (1 / 16 / 32).
inline constexpr int kLanes = ANYSEQ_TARGET_LANES;

// The route cutoffs and the classifier are SHARED baseline definitions
// (engine_table.hpp / align.cpp): execute, plan_bytes, and the public
// dispatcher can never drift apart.
using ::anyseq::engine::classify_route;
using ::anyseq::engine::kHirschbergBaseCells;
using ::anyseq::engine::route_kind;
using tiled::make_tiled_config;

// The with_kind/with_gap/with_scoring specialization steps are shared
// (anyseq/option_dispatch.hpp): their instantiations are keyed on this
// TU's lambdas, so each variant still gets private copies.

// ---------------------------------------------------------------------
// Workspace lifecycle (the opaque handle the aligner owns).
// ---------------------------------------------------------------------

/// What the opaque `void*` workspace handle actually holds: the main
/// arena every single-threaded route carves from, plus pooled per-worker
/// arenas for the multi-threaded batch fan-out — kept alongside the main
/// arena so warm parallel batches allocate nothing run to run.
struct ws_handle {
  workspace main;
  std::vector<workspace> workers;
};

inline ws_handle& handle_of(void* ws) {
  return *static_cast<ws_handle*>(ws);
}

inline workspace& ws_of(void* ws) { return handle_of(ws).main; }

void* ws_create_impl() { return new ws_handle(); }

void ws_destroy_impl(void* ws) noexcept {
  delete static_cast<ws_handle*>(ws);
}

void ws_shrink_impl(void* ws) noexcept {
  ws_handle& h = handle_of(ws);
  h.main.shrink();
  h.workers.clear();
  h.workers.shrink_to_fit();
}

std::size_t ws_capacity_impl(const void* ws) noexcept {
  const auto& h = *static_cast<const ws_handle*>(ws);
  std::size_t total = h.main.capacity_bytes();
  for (const workspace& w : h.workers) total += w.capacity_bytes();
  return total;
}

void ws_reserve_impl(void* ws, std::size_t bytes) {
  ws_of(ws).reserve_bytes(bytes);
}

index_t plan_tile_impl(index_t n, index_t m, const align_options& opt) {
  return make_tiled_config<kLanes>(opt, n, m).tile_h;
}

/// Stamp the variant that actually produced a result; called from inside
/// the variant namespace, so a stamped result is a runtime proof that
/// this clone executed.
inline void stamp(alignment_result& r) { r.variant = ANYSEQ_TARGET_NAME; }

// ---------------------------------------------------------------------
// The route switch, plan half first, then the execute entries.
// ---------------------------------------------------------------------

void align_batch_impl(std::span<const seq_pair> pairs,
                      const align_options& opt, void* ws,
                      std::span<alignment_result> out, batch_stats* stats);

/// The plan half: exact arena footprint of the route `align_impl` (right
/// after it) executes for an (n x m) problem under `opt` — both switch on
/// the same `classify_route`.  Returns 0 for routes that carve nothing
/// or are rejected at execute time.
std::size_t plan_bytes_impl(index_t n, index_t m, const align_options& opt) {
  const route_kind rt = classify_route(n, m, opt, kLanes);
  return with_kind(opt.kind, [&](auto kc) -> std::size_t {
    constexpr align_kind K = decltype(kc)::value;
    return with_gap(opt, [&](auto gap) -> std::size_t {
      return with_scoring(opt, [&](const auto& scoring) -> std::size_t {
        (void)gap;
        (void)scoring;
        using Gap = std::decay_t<decltype(gap)>;
        using Scoring = std::decay_t<decltype(scoring)>;
        const tiled::tiled_config cfg = make_tiled_config<kLanes>(opt, n, m);

        switch (rt) {
          case route_kind::small_score:
            return rolling_plan_bytes(m);
          case route_kind::bitpar_score:
            return bitpar_plan_bytes(n, m);
          case route_kind::striped_score:
            if constexpr (kLanes > 1)
              return tiled::striped_plan_bytes<K, kLanes, Gap, Scoring>(n);
            else
              return rolling_plan_bytes(m);
          case route_kind::tiled_score:
            return tiled::tiled_engine<K, Gap, Scoring, kLanes>::plan_bytes(
                n, m, cfg);
          case route_kind::full_matrix:
            return tiled::traceback_plan_bytes<K, Gap, Scoring>(n, m);
          case route_kind::hirschberg:
            return tiled::tiled_hirschberg_plan_bytes<kLanes, Gap, Scoring>(
                n, m, cfg, kHirschbergBaseCells);
          case route_kind::locate:
            // locate: two rolling passes (released before the inner
            // global reconstruction) + the tiled Hirschberg peak of the
            // located region (bounded by the full problem).
            return 2 * rolling_plan_bytes(m) +
                   tiled::tiled_hirschberg_plan_bytes<kLanes, Gap, Scoring>(
                       n, m, cfg, kHirschbergBaseCells);
          case route_kind::unsupported:
          default:
            return 0;  // rejected at execute
        }
      });
    });
  });
}

void align_impl(stage::seq_view q, stage::seq_view s,
                const align_options& opt, void* ws, alignment_result& out,
                batch_stats* stats, wavefront_stats* wavefront) {
  const route_kind rt = classify_route(q.size(), s.size(), opt, kLanes);
  if (wavefront != nullptr) *wavefront = {};
  if (rt == route_kind::full_matrix) {
    // A one-pair traceback batch: the same band doubling and fallback,
    // and the same banded_pairs / band_passes accounting.
    const seq_pair pair{q, s};
    align_batch_impl(std::span(&pair, 1), opt, ws, std::span(&out, 1),
                     stats);
    return;
  }
  // Extension traceback: anchored global-style walk from the tracked
  // optimum — only the full matrix can hold it.
  if (rt == route_kind::unsupported)
    throw invalid_argument_error(
        "extension traceback beyond full_matrix_cells is not supported");
  workspace& w = ws_of(ws);
  w.begin_pass();
  with_kind(opt.kind, [&](auto kc) {
    constexpr align_kind K = decltype(kc)::value;
    with_gap(opt, [&](auto gap) {
      with_scoring(opt, [&](const auto& scoring) {
        const auto cfg = [&] {
          return make_tiled_config<kLanes>(opt, q.size(), s.size());
        };
        switch (rt) {
          case route_kind::hirschberg:
            if constexpr (K == align_kind::global)
              tiled::tiled_hirschberg_align_into<kLanes>(
                  q, s, gap, scoring, cfg(), kHirschbergBaseCells, w, out,
                  wavefront);
            stamp(out);
            return;
          case route_kind::locate:
            if constexpr (K == align_kind::local ||
                          K == align_kind::semiglobal) {
              const tiled::tiled_config c = cfg();
              locate_align_into<K>(
                  q, s, gap, scoring,
                  [&](stage::seq_view subq, stage::seq_view subs,
                      alignment_result& sub) {
                    tiled::tiled_hirschberg_align_into<kLanes>(
                        subq, subs, gap, scoring, c, kHirschbergBaseCells, w,
                        sub, wavefront);
                  },
                  w, out);
            }
            stamp(out);
            return;
          default:
            break;  // the score routes (full_matrix / unsupported: above)
        }
        tiled::put_score(out, tiled::score_route<K, kLanes>(
                                  rt, q, s, gap, scoring, opt, w, wavefront));
        stamp(out);
      });
    });
  });
}

void align_batch_impl(std::span<const seq_pair> pairs,
                      const align_options& opt, void* ws,
                      std::span<alignment_result> out, batch_stats* stats) {
  ws_handle& h = handle_of(ws);
  workspace& w = h.main;
  w.begin_pass();
  const int threads = ::anyseq::parallel::resolve_threads(opt.threads);
  // Pool one arena per worker ahead of the fan-out so the engine carves
  // from handle-owned storage that survives (warm) across batch calls.
  // A one-pair batch (the solo full-matrix route) runs on the main arena
  // alone, so `reserve()` keeps its first call allocation-free.
  if (threads > 1 && pairs.size() > 1 &&
      h.workers.size() < static_cast<std::size_t>(threads))
    h.workers.resize(static_cast<std::size_t>(threads));
  with_kind(opt.kind, [&](auto kc) {
    constexpr align_kind K = decltype(kc)::value;
    with_gap(opt, [&](auto gap) {
      with_scoring(opt, [&](const auto& scoring) {
        using Gap = std::decay_t<decltype(gap)>;
        using Scoring = std::decay_t<decltype(scoring)>;
        tiled::batch_engine<K, Gap, Scoring, kLanes> eng(
            gap, scoring,
            tiled::batch_config{threads, opt.precision,
                                std::span<workspace>(h.workers)});
        if (opt.want_alignment)
          eng.align_into(pairs, w, out);
        else
          eng.score_into(pairs, w, out);
        for (auto& r : out) stamp(r);
        if (stats != nullptr) *stats = eng.last_stats();
      });
    });
  });
}

void banded_align_impl(stage::seq_view q, stage::seq_view s, band b,
                       const align_options& opt, void* ws,
                       alignment_result& out) {
  workspace& w = ws_of(ws);
  w.begin_pass();
  with_gap(opt, [&](auto gap) {
    with_scoring(opt, [&](const auto& scoring) {
      banded_global_into(q, s, gap, scoring, b, opt.want_alignment, w, out);
      stamp(out);
    });
  });
}

/// The variant's function table — the single artifact that crosses the
/// namespace boundary (referenced by `anyseq::engine::ops_x*()` in the
/// enclosing TU).
[[nodiscard]] const ::anyseq::engine::ops& variant_ops() {
  static const ::anyseq::engine::ops table{kLanes,
                                           ANYSEQ_TARGET_IS_NATIVE,
                                           ANYSEQ_TARGET_NAME,
                                           &ws_create_impl,
                                           &ws_destroy_impl,
                                           &ws_shrink_impl,
                                           &ws_capacity_impl,
                                           &ws_reserve_impl,
                                           &plan_bytes_impl,
                                           &plan_tile_impl,
                                           &align_impl,
                                           &align_batch_impl,
                                           &banded_align_impl};
  return table;
}

}  // namespace engine
}  // namespace ANYSEQ_TARGET_NS
}  // namespace anyseq

#endif  // per-target include guard
