#include "tiled/tiled_engine.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "anyseq/anyseq.hpp"
#include "core/rolling.hpp"
#include "testutil.hpp"

namespace anyseq::tiled {
namespace {

using test::view;

index_t plan_n(const std::vector<char_t>& v) {
  return static_cast<index_t>(v.size());
}

struct engine_param {
  int threads;
  index_t tile;
};

void PrintTo(const engine_param& p, std::ostream* os) {
  *os << "t" << p.threads << " tile" << p.tile;
}

class TiledEngineGrid : public ::testing::TestWithParam<engine_param> {};

template <align_kind K, class Gap, int Lanes>
void check_scores(const engine_param& p, const Gap& gap, std::uint64_t seed,
                  index_t n = 300, index_t m = 333) {
  auto q = test::random_codes(n, seed);
  auto s = test::mutate(q, seed + 1);
  s.resize(std::min<std::size_t>(s.size(), static_cast<std::size_t>(m)));
  const simple_scoring sc{2, -1};
  tiled_config cfg{p.tile, p.tile, p.threads};
  tiled_engine<K, Gap, simple_scoring, Lanes> eng(gap, sc, cfg);
  workspace ws;
  const auto got = eng.score(view(q), view(s), ws);
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  ASSERT_EQ(got.score, want.score)
      << to_string(K) << " lanes " << Lanes << " seed " << seed;
  EXPECT_EQ(got.end_i, want.end_i) << to_string(K) << " lanes " << Lanes;
  EXPECT_EQ(got.end_j, want.end_j) << to_string(K) << " lanes " << Lanes;
  // The ready ring holds the longest anti-diagonal and is never outgrown.
  const auto diagonal = std::min(
      stage::tile_count(static_cast<index_t>(q.size()), p.tile),
      stage::tile_count(static_cast<index_t>(s.size()), p.tile));
  EXPECT_LE(eng.last_stats().peak_ready,
            static_cast<std::uint64_t>(diagonal));
}

TEST_P(TiledEngineGrid, GlobalLinearScalar) {
  check_scores<align_kind::global, linear_gap, 1>(GetParam(), linear_gap{-1},
                                                  1);
}

TEST_P(TiledEngineGrid, GlobalAffineScalar) {
  check_scores<align_kind::global, affine_gap, 1>(GetParam(),
                                                  affine_gap{-2, -1}, 2);
}

TEST_P(TiledEngineGrid, LocalAffineScalar) {
  check_scores<align_kind::local, affine_gap, 1>(GetParam(),
                                                 affine_gap{-3, -1}, 3);
}

TEST_P(TiledEngineGrid, SemiglobalLinearScalar) {
  check_scores<align_kind::semiglobal, linear_gap, 1>(GetParam(),
                                                      linear_gap{-1}, 4);
}

TEST_P(TiledEngineGrid, GlobalLinearSimd16) {
  check_scores<align_kind::global, linear_gap, 16>(GetParam(),
                                                   linear_gap{-1}, 5);
}

TEST_P(TiledEngineGrid, GlobalAffineSimd16) {
  check_scores<align_kind::global, affine_gap, 16>(GetParam(),
                                                   affine_gap{-2, -1}, 6);
}

TEST_P(TiledEngineGrid, LocalLinearSimd16) {
  check_scores<align_kind::local, linear_gap, 16>(GetParam(), linear_gap{-2},
                                                  7);
}

TEST_P(TiledEngineGrid, SemiglobalAffineSimd16) {
  check_scores<align_kind::semiglobal, affine_gap, 16>(GetParam(),
                                                       affine_gap{-2, -1}, 8);
}

TEST_P(TiledEngineGrid, GlobalAffineSimd32) {
  check_scores<align_kind::global, affine_gap, 32>(GetParam(),
                                                   affine_gap{-2, -1}, 9);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsTiles, TiledEngineGrid,
    ::testing::Values(engine_param{1, 64}, engine_param{4, 64},
                      engine_param{2, 37}, engine_param{3, 128},
                      engine_param{8, 16}),
    [](const auto& info) {
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_s";
      name += std::to_string(info.param.tile);
      return name;
    });

TEST(TiledEngine, EmptyInputs) {
  const simple_scoring sc{2, -1};
  tiled_engine<align_kind::global, linear_gap, simple_scoring, 1> eng(
      linear_gap{-1}, sc);
  std::vector<char_t> q, s = test::random_codes(10, 1);
  workspace ws;
  EXPECT_EQ(eng.score(view(q), view(s), ws).score, -10);
  EXPECT_EQ(eng.score(view(s), view(q), ws).score, -10);
  EXPECT_EQ(eng.score(view(q), view(q), ws).score, 0);
}

TEST(TiledEngine, RejectsBadConfig) {
  const simple_scoring sc{2, -1};
  EXPECT_THROW((tiled_engine<align_kind::global, linear_gap, simple_scoring,
                             1>(linear_gap{-1}, sc, {0, 64, 1})),
               invalid_argument_error);
  EXPECT_THROW((tiled_engine<align_kind::global, linear_gap, simple_scoring,
                             1>(linear_gap{-1}, sc, {64, 64, 0})),
               invalid_argument_error);
  // Positive gap penalties are rejected.
  EXPECT_THROW((tiled_engine<align_kind::global, linear_gap, simple_scoring,
                             1>(linear_gap{1}, sc)),
               invalid_argument_error);
}

TEST(TiledEngine, OversizeTilesRunAsExactInt32Singles) {
  // A tile beyond the int16 window is not an error: the tiles run as
  // exact int32 tiles and the result equals the serial pass.
  auto q = test::random_codes(700, 61);
  auto s = test::mutate(q, 62);
  const simple_scoring sc{100, -100};
  const linear_gap gap{-100};
  tiled_engine<align_kind::local, linear_gap, simple_scoring, 16> eng(
      gap, sc, {256, 256, 2});
  EXPECT_FALSE(eng.striped());
  workspace ws;
  const auto got = eng.score(view(q), view(s), ws);
  const auto want =
      rolling_score<align_kind::local>(view(q), view(s), gap, sc, ws);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.end_i, want.end_i);
  EXPECT_EQ(got.end_j, want.end_j);
  EXPECT_EQ(eng.last_stats().striped_tiles, 0u);
  EXPECT_EQ(eng.last_stats().int32_tiles,
            static_cast<std::uint64_t>(
                stage::tile_count(static_cast<index_t>(q.size()), 256) *
                stage::tile_count(static_cast<index_t>(s.size()), 256)));
}

TEST(TiledEngine, LastRowMatchesSerialPass) {
  auto q = test::random_codes(150, 31);
  auto s = test::random_codes(170, 32);
  const simple_scoring sc{2, -1};
  const affine_gap gap{-2, -1};
  workspace ws;
  for (score_t tb : {gap.open(), score_t{0}}) {
    std::vector<score_t> hh_ref(171), ee_ref(171), hh(171), ee(171);
    nw_last_row(view(q), view(s), gap, sc, tb, std::span(hh_ref),
                std::span(ee_ref));
    tiled_engine<align_kind::global, affine_gap, simple_scoring, 16> eng(
        gap, sc, {32, 32, 3});
    eng.last_row(view(q), view(s), tb, std::span(hh), std::span(ee), ws);
    EXPECT_EQ(hh, hh_ref) << "tb " << tb;
    EXPECT_EQ(ee, ee_ref) << "tb " << tb;
  }
}

TEST(TiledEngine, StripedTilesDoTheWork) {
  // Every tile of a fitting grid, clipped edge tiles included, runs as
  // one striped pass.
  auto q = test::random_codes(64 * 20 + 7, 41);
  auto s = test::random_codes(64 * 20 + 29, 42);
  const simple_scoring sc{2, -1};
  tiled_engine<align_kind::global, linear_gap, simple_scoring, 16> eng(
      linear_gap{-1}, sc, {64, 64, 2});
  EXPECT_TRUE(eng.striped());
  workspace ws;
  (void)eng.score(view(q), view(s), ws);
  EXPECT_EQ(eng.last_stats().striped_tiles, 21u * 21u);
  EXPECT_EQ(eng.last_stats().int32_tiles, 0u);
  EXPECT_EQ(eng.last_stats().workers, 2u);

  // A genome-shaped pair through the public API at default options: the
  // plan-time tile gives each of the 4 workers two tiles on each axis,
  // and the vector variants run every tile striped.
  q = test::random_codes(4300, 43);
  s = test::mutate(q, 44);
  align_options opt;
  opt.threads = 4;
  aligner a(opt);
  const auto plan = a.plan(static_cast<index_t>(q.size()),
                           static_cast<index_t>(s.size()));
  EXPECT_STREQ(plan.route, "tiled_score");
  const auto r = a.align(view(q), view(s));
  align_options ref = opt;
  ref.precision = score_precision::int32;  // the serial rolling route
  EXPECT_EQ(r.score, align(view(q), view(s), ref).score);
  const wavefront_stats st = a.last_wavefront_stats();
  const std::uint64_t tiles =
      static_cast<std::uint64_t>(stage::tile_count(plan_n(q), plan.tile) *
                                 stage::tile_count(plan_n(s), plan.tile_w));
  EXPECT_EQ(st.striped_tiles + st.int32_tiles, tiles);
  EXPECT_EQ(st.workers, 4u);
  if (std::string_view(plan.variant) == "scalar") {
    EXPECT_EQ(plan.tile, 512);
    EXPECT_EQ(plan.tile_w, 512);
    EXPECT_EQ(st.striped_tiles, 0u);
  } else {
    // ceil(4300 / 8) = 538 rounded up to a lane multiple: 8 tile rows;
    // the width takes the same rule on the subject.  Below 32 lanes both
    // are capped at 512.
    const bool wide = std::string_view(plan.variant) == "avx512";
    const index_t w = stage::tile_count(stage::tile_count(plan_n(s), 8),
                                        wide ? 32 : 16) *
                      (wide ? 32 : 16);
    EXPECT_EQ(plan.tile, wide ? 544 : 512);
    EXPECT_EQ(plan.tile_w, wide ? w : std::min<index_t>(w, 512));
    EXPECT_EQ(st.int32_tiles, 0u);
  }
}

/// Options whose per-cell score step (engine::score_unit) is `unit`.
align_options unit_opts(score_t unit, int threads) {
  align_options o;
  o.match = unit;
  o.mismatch = -unit;
  o.gap_extend = -unit;
  o.threads = threads;
  return o;
}

template <int Lanes>
void derived_shape_properties() {
  for (const index_t n : {300, 2154, 8616, 40000})
    for (const int threads : {1, 2, 4, 8})
      for (const score_t unit : {1, 3, 20, 100, 1000}) {
        const index_t m = n + n / 20;
        const align_options opt = unit_opts(unit, threads);
        ASSERT_EQ(engine::score_unit(opt), unit);
        const tiled_config cfg = make_tiled_config<Lanes>(opt, n, m);
        SCOPED_TRACE(::testing::Message()
                     << "lanes " << Lanes << " " << n << "x" << m << " t"
                     << threads << " unit " << unit << ": " << cfg.tile_h
                     << "x" << cfg.tile_w);
        EXPECT_EQ(cfg.threads, threads);
        const index_t feed = 2 * threads;
        const index_t tiles_y = stage::tile_count(n, cfg.tile_h);
        const index_t tiles_x = stage::tile_count(m, cfg.tile_w);
        if (!fits_striped_tile(128, 128, unit)) {
          // No 128 x 128 tile runs striped: 512 x 512, int32.
          EXPECT_EQ(cfg.tile_h, 512);
          EXPECT_EQ(cfg.tile_w, 512);
          if (std::min(n, m) >= feed * 512) {
            EXPECT_GE(std::min(tiles_y, tiles_x), feed);
          }
          continue;
        }
        EXPECT_TRUE(fits_striped_tile(cfg.tile_h, cfg.tile_w, unit));
        EXPECT_EQ(cfg.tile_h % Lanes, 0);
        EXPECT_GE(cfg.tile_w, 128);
        EXPECT_LE(cfg.tile_w, Lanes < 32 ? 512 : 1024);
        EXPECT_LE(cfg.tile_h, Lanes < 32 ? 512 : 1 << 15);
        // Rounding an axis up by under a lane loses no tile once its
        // length is >= feed * (feed - 1) * Lanes; the width stops at 128.
        if (n >= feed * (feed - 1) * Lanes && m >= feed * 128) {
          EXPECT_GE(std::min(tiles_y, tiles_x), feed);
        }
        // The plan's footprint is the pass's live peak, to the byte
        // (run where the pair is small enough to score here).
        if (n > 2154) continue;
        using eng_t =
            tiled_engine<align_kind::global, linear_gap, simple_scoring,
                         Lanes>;
        const auto q = test::random_codes(static_cast<std::size_t>(n), 5);
        const auto s = test::random_codes(static_cast<std::size_t>(m), 6);
        eng_t eng(linear_gap{-unit}, simple_scoring{unit, -unit}, cfg);
        workspace ws;
        (void)eng.score(view(q), view(s), ws);
        EXPECT_EQ(ws.high_water_bytes(), eng_t::plan_bytes(n, m, cfg));
        EXPECT_EQ(eng.last_stats().int32_tiles, 0u);
      }
}

TEST(TiledEngine, DerivedTileShapeFeedsEveryThreadOnEachAxis) {
  derived_shape_properties<16>();
  derived_shape_properties<32>();
}

TEST(TiledEngine, ScalarVariantAndExplicitTilesKeepSquares) {
  const align_options derived = unit_opts(3, 4);
  const tiled_config scalar = make_tiled_config<1>(derived, 8616, 9065);
  EXPECT_EQ(scalar.tile_h, 512);
  EXPECT_EQ(scalar.tile_w, 512);
  align_options fixed = derived;
  fixed.tile = 200;
  for (const tiled_config& cfg : {make_tiled_config<16>(fixed, 8616, 9065),
                                  make_tiled_config<32>(fixed, 8616, 9065)}) {
    EXPECT_EQ(cfg.tile_h, 200);
    EXPECT_EQ(cfg.tile_w, 200);
  }
}

TEST(TiledEngine, TallTilesOnlyForScoreOnlyCallsOn32Lanes) {
  const align_options score = unit_opts(3, 4);
  align_options traceback = score;
  traceback.want_alignment = true;
  const tiled_config tall = make_tiled_config<32>(score, 8616, 9065);
  EXPECT_EQ(tall.tile_h, 1088);
  EXPECT_EQ(tall.tile_w, 1024);
  for (const tiled_config& cfg :
       {make_tiled_config<32>(traceback, 8616, 9065),
        make_tiled_config<16>(score, 8616, 9065),
        make_tiled_config<16>(traceback, 8616, 9065)}) {
    EXPECT_EQ(cfg.tile_h, 512);
    EXPECT_EQ(cfg.tile_w, 512);
  }
  // Under the 512 cap the feed rule still sets both axes.
  const tiled_config small = make_tiled_config<16>(traceback, 2154, 2266);
  EXPECT_EQ(small.tile_h, 272);
  EXPECT_EQ(small.tile_w, 288);
}

/// Tie-heavy input: a short motif repeated, so many cells share the
/// optimal score and only the tie rule decides the reported end cell.
std::vector<char_t> repeats(std::size_t n, std::size_t period,
                            std::uint64_t seed) {
  const auto motif = test::random_codes(period, seed);
  std::vector<char_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = motif[i % period];
  return out;
}

template <align_kind K, class Gap, int Lanes>
void end_cells_match_rolling(const Gap& gap, const simple_scoring& sc) {
  const auto q = repeats(260, 4, 71);
  const auto s = repeats(291, 4, 71);
  workspace ws;
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  for (int threads : {1, 2, 4})
    for (index_t tile : {16, 23, 64}) {
      tiled_engine<K, Gap, simple_scoring, Lanes> eng(
          gap, sc, {tile, tile, threads});
      const auto got = eng.score(view(q), view(s), ws);
      ASSERT_EQ(got.score, want.score) << to_string(K) << " lanes " << Lanes
                                       << " t" << threads << " tile " << tile;
      ASSERT_EQ(got.end_i, want.end_i) << to_string(K) << " lanes " << Lanes
                                       << " t" << threads << " tile " << tile;
      ASSERT_EQ(got.end_j, want.end_j) << to_string(K) << " lanes " << Lanes
                                       << " t" << threads << " tile " << tile;
    }
}

TEST(TiledEngine, EndCellsMatchRollingOnTies) {
  // Exact score AND end cell against the int32 rolling pass, over
  // threads x tile x kind x lanes, on repeats where ties are everywhere.
  const simple_scoring sc{2, -1};
  const linear_gap lin{-1};
  const affine_gap aff{-2, -1};
  end_cells_match_rolling<align_kind::local, affine_gap, 1>(aff, sc);
  end_cells_match_rolling<align_kind::local, linear_gap, 16>(lin, sc);
  end_cells_match_rolling<align_kind::local, affine_gap, 32>(aff, sc);
  end_cells_match_rolling<align_kind::semiglobal, linear_gap, 1>(lin, sc);
  end_cells_match_rolling<align_kind::semiglobal, affine_gap, 16>(aff, sc);
  end_cells_match_rolling<align_kind::semiglobal, linear_gap, 32>(lin, sc);
  end_cells_match_rolling<align_kind::extension, linear_gap, 1>(lin, sc);
  end_cells_match_rolling<align_kind::extension, affine_gap, 16>(aff, sc);
  end_cells_match_rolling<align_kind::extension, linear_gap, 32>(lin, sc);
  // Zero match: every cell ties at score 0 with the empty alignment.
  end_cells_match_rolling<align_kind::local, linear_gap, 16>(lin, {0, -1});
}

}  // namespace
}  // namespace anyseq::tiled
