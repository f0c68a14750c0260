/// \file precision_oracle_test.cpp
/// Differential oracle for the adaptive-precision score routes: the
/// accumulator `auto_select` plans (int8 / int16 chunks, striped int16,
/// bit-parallel) must be byte-identical (score AND end cell) to the int32
/// reference route and to the independent naive DP oracle, on every
/// runnable engine variant.  Failure messages always carry the seed that
/// produced the pair, so any red run is reproducible from the log alone.
///
/// The window suite pins the plan-time bound: shapes whose worst case
/// (n + m + 2) * unit sits one below each window take that window's lane
/// type, shapes at the window take the next one, and every result stays
/// identical to int32 rolling.

#include <gtest/gtest.h>

#include <random>
#include <string_view>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "baselines/naive.hpp"
#include "core/bitpar.hpp"
#include "core/rolling.hpp"
#include "testutil.hpp"
#include "tiled/batch_engine.hpp"

namespace anyseq {
namespace {

using test::view;

/// Backends this binary + CPU can actually force.
std::vector<backend> runnable_backends() {
  std::vector<backend> out{backend::scalar};
  if (test::backend_runnable(backend::simd_avx2))
    out.push_back(backend::simd_avx2);
  if (test::backend_runnable(backend::simd_avx512))
    out.push_back(backend::simd_avx512);
  return out;
}

alignment_result run(const std::vector<char_t>& q,
                     const std::vector<char_t>& s, align_options o) {
  o.threads = 1;
  return align(view(q), view(s), o);
}

// --- randomized differential oracle -----------------------------------

struct precision_case {
  align_kind kind;
  score_t match, mismatch, open, extend;
};

class PrecisionOracle : public ::testing::TestWithParam<precision_case> {};

void PrintTo(const precision_case& p, std::ostream* os) {
  *os << to_string(p.kind) << " m" << p.match << "/" << p.mismatch << " g"
      << p.open << "," << p.extend;
}

TEST_P(PrecisionOracle, AutoAndInt32MatchNaive) {
  const auto p = GetParam();
  const baselines::naive_params np =
      test::oracle_affine(p.kind, p.match, p.mismatch, p.open, p.extend);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    std::uniform_int_distribution<int> len(1, 90);
    const auto q = test::random_codes(static_cast<std::size_t>(len(rng)),
                                      seed * 31 + 1);
    const auto s = test::random_codes(static_cast<std::size_t>(len(rng)),
                                      seed * 31 + 2);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " n " << q.size() << " m "
                 << s.size());
    align_options base;
    base.kind = p.kind;
    base.match = p.match;
    base.mismatch = p.mismatch;
    base.gap_open = p.open;
    base.gap_extend = p.extend;
    const score_t want = baselines::naive_score(q, s, np);
    for (backend b : runnable_backends()) {
      base.exec = b;
      ASSERT_EQ(run(q, s, base).score, want)
          << "auto route vs oracle on " << to_string(b);
      align_options o = base;
      o.precision = score_precision::int32;
      ASSERT_EQ(run(q, s, o).score, want)
          << "int32 route vs oracle on " << to_string(b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PrecisionOracle,
    ::testing::Values(
        precision_case{align_kind::global, 2, -1, 0, -1},
        precision_case{align_kind::global, 1, -3, -2, -1},
        precision_case{align_kind::global, 5, -4, -1, -2},
        precision_case{align_kind::local, 2, -1, 0, -1},
        precision_case{align_kind::local, 3, -2, -10, -1},
        precision_case{align_kind::semiglobal, 2, -1, -2, -1},
        precision_case{align_kind::semiglobal, 1, -1, 0, -3},
        precision_case{align_kind::extension, 2, -1, -2, -1},
        precision_case{align_kind::extension, 5, -4, 0, -1}));

TEST(PrecisionOracle, BitparMatchesNaiveAndInt32OnUnitCostSets) {
  for (const score_t g : {-1, -2, -3}) {
    const auto np =
        test::oracle_linear(align_kind::global, 0, g, g);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      std::mt19937_64 rng(seed * 271);
      std::uniform_int_distribution<int> len(1, 220);  // multi-word n
      const auto q = test::random_codes(
          static_cast<std::size_t>(len(rng)), seed * 17 + 3);
      const auto s = test::random_codes(
          static_cast<std::size_t>(len(rng)), seed * 17 + 4);
      SCOPED_TRACE(::testing::Message() << "g " << g << " seed " << seed
                                        << " n " << q.size() << " m "
                                        << s.size());
      align_options o;
      o.kind = align_kind::global;
      o.match = 0;
      o.mismatch = g;
      o.gap_extend = g;
      for (backend b : runnable_backends()) {
        o.exec = b;
        o.precision = score_precision::auto_select;  // admits bitpar
        const auto got = run(q, s, o);
        o.precision = score_precision::int32;
        const auto ref = run(q, s, o);
        ASSERT_EQ(got.score, baselines::naive_score(q, s, np))
            << "bitpar vs oracle on " << to_string(b);
        ASSERT_EQ(got.score, ref.score) << to_string(b);
        ASSERT_EQ(got.q_end, ref.q_end) << to_string(b);
        ASSERT_EQ(got.s_end, ref.s_end) << to_string(b);
      }
    }
  }
}

TEST(PrecisionOracle, BitparPlan) {
  align_options o;
  o.kind = align_kind::global;
  o.match = 0;
  o.mismatch = -1;
  o.gap_extend = -1;
  o.threads = 1;
  aligner a(o);
  const auto p = a.plan(150, 150);
  EXPECT_STREQ(p.route, "bitpar_score");
  EXPECT_EQ(p.precision, score_precision::bitpar);
  EXPECT_GT(p.workspace_bytes, 0u);
  // The int32 reference opts out of the bit-parallel route.
  o.precision = score_precision::int32;
  EXPECT_STREQ(aligner(o).plan(150, 150).route, "small_score");
}

TEST(PrecisionOracle, PlanReportsRouteAndPrecision) {
  align_options o;
  o.threads = 1;
  o.precision = score_precision::int32;
  aligner a32(o);
  EXPECT_STREQ(a32.plan(40, 40).route, "small_score");
  EXPECT_EQ(a32.plan(40, 40).precision, score_precision::int32);
  // Auto reports what the dispatched variant runs: the striped int16
  // kernel on a vector variant, the int32 tiled pass on scalar.
  o.precision = score_precision::auto_select;
  aligner aa(o);
  const auto p = aa.plan(40, 40);
  const bool vector = std::string_view(p.variant) != "scalar";
  EXPECT_STREQ(p.route, vector ? "striped_score" : "tiled_score");
  EXPECT_EQ(p.precision,
            vector ? score_precision::int16 : score_precision::int32);
}

TEST(PrecisionOracle, BitparOversizedAlphabetFallsBackToRolling) {
  // Character codes >= kBitparMaxCode can't index the Peq table; the
  // route must silently re-score through the rolling engine instead of
  // failing.  Equality scoring over raw codes keeps the oracle valid.
  std::vector<char_t> q(40), s(37);
  for (std::size_t i = 0; i < q.size(); ++i)
    q[i] = static_cast<char_t>(30 + i % 14);  // codes 30..43 straddle cap
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<char_t>(30 + (i * 5) % 14);
  align_options o;
  o.kind = align_kind::global;
  o.match = 0;
  o.mismatch = -1;
  o.gap_extend = -1;
  const auto got = run(q, s, o);
  o.precision = score_precision::int32;
  const auto ref = run(q, s, o);
  EXPECT_EQ(got.score, ref.score);
  EXPECT_EQ(got.q_end, ref.q_end);
  EXPECT_EQ(got.s_end, ref.s_end);
}

// --- plan-time windows -------------------------------------------------

/// Lane width the public dispatcher runs on backend `b`.
int lanes_of(backend b) {
  return b == backend::simd_avx512 ? 32 : b == backend::simd_avx2 ? 16 : 1;
}

/// A uniform (n x m) input under match / mismatch / linear gap, and the
/// path auto must plan for a batch of them that fills its lanes.
struct window_case {
  align_kind kind;
  score_t match, mismatch, gap;
  index_t n, m;
  score_precision chunk;  ///< int8 / int16 chunks, or int32 = rolled
};

TEST(PrecisionWindow, EdgeShapesPickTheirLaneTypeAndMatchInt32) {
  // The bound is (n + m + 2) * unit against a strict window (96 for
  // int8, 28000 for int16); a large unit keeps the shapes small.  All-zero
  // scoring has unit 0, which the bound floors to 1: 150 x 150 pairs must
  // not run int8 lanes, whose end indices would wrap.
  const std::vector<window_case> edges = {
      {align_kind::global, 5, -1, -1, 8, 9, score_precision::int8},  // 95
      {align_kind::global, 12, -1, -1, 3, 3, score_precision::int16},  // 96
      {align_kind::global, 459, -1, -1, 29, 30,
       score_precision::int16},  // 27999
      {align_kind::global, 500, -1, -1, 27, 27,
       score_precision::int32},  // 28000
      {align_kind::global, 0, 0, 0, 150, 150, score_precision::int16},
  };
  std::vector<window_case> cases;
  for (const align_kind k : {align_kind::global, align_kind::local,
                             align_kind::semiglobal, align_kind::extension})
    for (window_case c : edges) {
      if (k == align_kind::local && c.match == 0) continue;  // invalid
      c.kind = k;
      cases.push_back(c);
    }
  for (const window_case& c : cases) {
    for (backend b : runnable_backends()) {
      const int lanes = lanes_of(b);
      for (const std::size_t count :
           {static_cast<std::size_t>(2 * std::max(lanes, 16)),
            std::size_t{2}}) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(c.kind) << " match " << c.match << " "
                     << c.n << "x" << c.m << " on " << to_string(b)
                     << " count " << count);
        std::vector<std::vector<char_t>> qs, ss;
        std::vector<seq_pair> pairs;
        for (std::size_t i = 0; i < count; ++i) {
          qs.push_back(test::random_codes(static_cast<std::size_t>(c.n),
                                          5000 + i));
          ss.push_back(test::random_codes(static_cast<std::size_t>(c.m),
                                          6000 + i));
        }
        for (std::size_t i = 0; i < count; ++i)
          pairs.push_back({view(qs[i]), view(ss[i])});
        align_options o;
        o.kind = c.kind;
        o.match = c.match;
        o.mismatch = c.mismatch;
        o.gap_extend = c.gap;
        o.exec = b;
        o.threads = 1;
        o.precision = score_precision::int32;
        std::vector<alignment_result> ref, got;
        aligner(o).align_batch_into(pairs, ref);
        o.precision = score_precision::auto_select;
        aligner a(o);
        a.align_batch_into(pairs, got);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i].score, ref[i].score) << "pair " << i;
          ASSERT_EQ(got[i].q_end, ref[i].q_end) << "pair " << i;
          ASSERT_EQ(got[i].s_end, ref[i].s_end) << "pair " << i;
        }
        const batch_stats st = a.last_batch_stats();
        const bool rolled = c.chunk == score_precision::int32;
        if (lanes == 1) {
          EXPECT_EQ(st.scalar_pairs, count);
        } else if (count == 2) {
          // Below every fill floor: lone pairs, striped inside int16.
          EXPECT_EQ(st.striped_pairs, rolled ? 0u : count);
          EXPECT_EQ(st.scalar_pairs, rolled ? count : 0u);
        } else {
          const auto on = [&](score_precision p) {
            return c.chunk == p ? count : 0u;
          };
          EXPECT_EQ(st.int8_pairs, on(score_precision::int8));
          EXPECT_EQ(st.int16_pairs, on(score_precision::int16));
          EXPECT_EQ(st.scalar_pairs, on(score_precision::int32));
          EXPECT_EQ(st.striped_pairs, 0u);
        }
      }
    }
  }
}

TEST(PrecisionWindow, BitparBatchCountsAndMatchesRolling) {
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 24; ++i) {
    qs.push_back(test::random_codes(150, 7000 + i));
    ss.push_back(test::mutate(qs.back(), 8000 + i));
  }
  for (int i = 0; i < 24; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  const simple_scoring sc{0, -1};  // unit cost
  tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 16>
      eng(linear_gap{-1}, sc, {1});
  workspace ws;
  std::vector<score_result> got(pairs.size());
  eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                 std::span<score_result>(got));
  EXPECT_EQ(eng.last_stats().bitpar_pairs, 24u);
  for (int i = 0; i < 24; ++i) {
    const auto want =
        rolling_score<align_kind::global>(pairs[i].q, pairs[i].s,
                                          linear_gap{-1}, sc, ws);
    EXPECT_EQ(got[i].score, want.score) << "pair " << i;
  }
}

// --- ragged lane-padding oracle ---------------------------------------

/// Mixed-length batches through the public API: auto must stay
/// byte-identical (score AND end cell) to the int32 rolling route,
/// whether a chunk lane-pads or splits into lone pairs.
class RaggedOracle : public ::testing::TestWithParam<precision_case> {};

TEST_P(RaggedOracle, JitteredBatchesMatchInt32Rolling) {
  const auto p = GetParam();
  const baselines::naive_params np =
      test::oracle_affine(p.kind, p.match, p.mismatch, p.open, p.extend);
  // Near-shape runs (what the service's shape sort produces): lengths
  // jitter in [40, 50] over three seeds, and in [280, 300] — chunks past
  // 250 bp, where a chunk's rows outgrow L1 — over one, so no chunk is
  // uniform.
  struct jitter {
    int lo, hi;
    std::uint64_t seeds;
  };
  for (const jitter j : {jitter{40, 50, 3}, jitter{280, 300, 1}})
    for (std::uint64_t seed = 1; seed <= j.seeds; ++seed) {
      std::mt19937_64 rng(seed * 101);
      std::uniform_int_distribution<int> len(j.lo, j.hi);
      std::vector<std::vector<char_t>> qs, ss;
      std::vector<seq_pair> pairs;
      for (int i = 0; i < 48; ++i) {
        qs.push_back(test::random_codes(static_cast<std::size_t>(len(rng)),
                                        seed * 977 + i));
        ss.push_back(test::random_codes(static_cast<std::size_t>(len(rng)),
                                        seed * 991 + i));
      }
      for (int i = 0; i < 48; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
      align_options base;
      base.kind = p.kind;
      base.match = p.match;
      base.mismatch = p.mismatch;
      base.gap_open = p.open;
      base.gap_extend = p.extend;
      base.threads = 1;
      for (backend b : runnable_backends()) {
        base.exec = b;
        SCOPED_TRACE(::testing::Message()
                     << "lengths " << j.lo << ".." << j.hi << " seed " << seed
                     << " backend " << to_string(b));
        align_options o = base;
        o.precision = score_precision::int32;
        aligner ref_a(o);
        std::vector<alignment_result> ref;
        ref_a.align_batch_into(pairs, ref);
        o.precision = score_precision::auto_select;
        aligner a(o);
        std::vector<alignment_result> got;
        a.align_batch_into(pairs, got);
        for (int i = 0; i < 48; ++i) {
          SCOPED_TRACE(::testing::Message() << "pair " << i);
          ASSERT_EQ(got[i].score, baselines::naive_score(qs[i], ss[i], np));
          ASSERT_EQ(got[i].score, ref[i].score);
          ASSERT_EQ(got[i].q_end, ref[i].q_end);
          ASSERT_EQ(got[i].s_end, ref[i].s_end);
        }
        // Vector variants keep every pair on SIMD lanes (padded chunks or
        // striped pairs).
        if (b != backend::scalar) {
          EXPECT_EQ(a.last_batch_stats().simd_pairs, 48u);
        }
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RaggedOracle,
    ::testing::Values(
        precision_case{align_kind::global, 2, -1, 0, -1},
        precision_case{align_kind::global, 5, -4, -1, -2},
        precision_case{align_kind::local, 2, -1, 0, -1},
        precision_case{align_kind::local, 3, -2, -10, -1},
        precision_case{align_kind::semiglobal, 2, -1, -2, -1},
        precision_case{align_kind::semiglobal, 1, -1, 0, -3},
        precision_case{align_kind::extension, 2, -1, -2, -1}));

/// `width` pairs whose cells fill exactly `floor` full (20, 20) shapes:
/// `full` lanes at (20, 20), the last lane at (1 + extra, 20) and the rest
/// at (1, 20) — every lane holds 20 cells, each full lane 380 more, the
/// last lane the remaining 20 * extra — or one column short of that last
/// lane when `short_by_one`, which leaves the window just under the floor.
void floor_window(int width, int floor, bool short_by_one,
                  std::vector<std::vector<char_t>>& qs,
                  std::vector<std::vector<char_t>>& ss,
                  std::vector<tiled::pair_view>& pairs) {
  const int rows = 20 * floor - width;  // (floor * 400 - width * 20) / 20
  const int full = rows / 19, extra = rows % 19;
  ASSERT_GE(full, 1) << "the window needs one (20, 20) lane";
  ASSERT_LT(full, width) << "the floor must leave a lane short of full";
  for (int i = 0; i < width; ++i) {
    const bool last = i == width - 1;
    const std::size_t n = i < full ? 20 : last ? 1 + extra : 1;
    const std::size_t m = last && short_by_one ? 19 : 20;
    qs.push_back(test::random_codes(n, 5100 + i));
    ss.push_back(test::random_codes(m, 6100 + i));
  }
  for (int i = 0; i < width; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
}

TEST(RaggedOracle, MinLiveFloorSplitsOrAdmitsAtBoundary) {
  // A window runs as one padded chunk iff sum(n_l * m_l) >= kMinLive *
  // nbar * mbar.  Filled exactly to the floor it pads; one cell short it
  // splits into single pairs, which run striped.  Results are
  // byte-identical to rolling on both sides of the boundary.
  using engine =
      tiled::batch_engine<align_kind::global, linear_gap, simple_scoring, 16>;
  const simple_scoring sc{2, -1};
  constexpr int kWidth = engine::kLanes8;  // (20+20+2)*2 = 84 < 96: int8
  constexpr int kFloor = engine::kMinLive;
  for (const bool short_by_one : {false, true}) {
    SCOPED_TRACE(::testing::Message()
                 << (short_by_one ? "short by one" : "at the floor"));
    std::vector<std::vector<char_t>> qs, ss;
    std::vector<tiled::pair_view> pairs;
    floor_window(kWidth, kFloor, short_by_one, qs, ss, pairs);
    engine eng(linear_gap{-1}, sc, {1});
    workspace ws;
    std::vector<score_result> got(pairs.size());
    eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                   std::span<score_result>(got));
    const auto st = eng.last_stats();
    const auto w = static_cast<std::uint64_t>(kWidth);
    EXPECT_EQ(st.simd_pairs, w);
    if (!short_by_one) {
      EXPECT_EQ(st.int8_pairs, w);
      EXPECT_EQ(st.ragged_pairs, w);
      EXPECT_EQ(st.padded_cells,
                w * 400u - static_cast<std::uint64_t>(kFloor) * 400u);
    } else {
      EXPECT_EQ(st.ragged_pairs, 0u);
      EXPECT_EQ(st.padded_cells, 0u);
      EXPECT_EQ(st.striped_pairs, w);
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto want = rolling_score<align_kind::global>(
          pairs[i].q, pairs[i].s, linear_gap{-1}, sc, ws);
      EXPECT_EQ(got[i].score, want.score) << "lane " << i;
      EXPECT_EQ(got[i].end_i, want.end_i) << "lane " << i;
      EXPECT_EQ(got[i].end_j, want.end_j) << "lane " << i;
    }
  }
}

// --- sub-width uniform tails -------------------------------------------

/// The batch engine's auto-mode floor (kMinLive against striped pairs)
/// for `lanes` lanes under the gap model of `p` (the floor depends on
/// linear vs affine gaps).
std::size_t tail_floor(int lanes, const precision_case& p) {
  using tiled::batch_engine;
  using affine32 =
      batch_engine<align_kind::global, affine_gap, simple_scoring, 32>;
  using affine16 =
      batch_engine<align_kind::global, affine_gap, simple_scoring, 16>;
  using linear32 =
      batch_engine<align_kind::global, linear_gap, simple_scoring, 32>;
  using linear16 =
      batch_engine<align_kind::global, linear_gap, simple_scoring, 16>;
  if (p.open != 0)
    return lanes == 32 ? affine32::kMinLive : affine16::kMinLive;
  return lanes == 32 ? linear32::kMinLive : linear16::kMinLive;
}

/// Uniform batches of L + t pairs on each runnable backend (L its lane
/// width; the scalar backend reuses L = 16 sizes): one full chunk, then a
/// t-pair remainder that must run as one lane-padded tail chunk once t
/// reaches the batch engine's floor for L lanes, and pair by pair
/// through the striped kernel below it.  Score and end cell stay
/// byte-identical to the int32 rolling route, and the path accounting is
/// exact — on the scalar variant auto runs every pair on an int32 route,
/// so the whole batch counts as scalar pairs.
class TailOracle : public ::testing::TestWithParam<precision_case> {};

TEST_P(TailOracle, SubWidthTailsMatchInt32Rolling) {
  const auto p = GetParam();
  constexpr index_t n = 40, m = 44;  // int16 window, not int8, for all p
  for (backend b : runnable_backends()) {
    const int w = lanes_of(b);
    const std::size_t L = static_cast<std::size_t>(w > 1 ? w : 16);
    const std::size_t min_live = tail_floor(w == 32 ? 32 : 16, p);
    for (const std::size_t t :
         {std::size_t{1}, min_live - 1, min_live, L - 1}) {
      const std::size_t count = L + t;
      std::vector<std::vector<char_t>> qs, ss;
      std::vector<seq_pair> pairs;
      for (std::size_t i = 0; i < count; ++i) {
        qs.push_back(test::random_codes(n, 7100 + i));
        ss.push_back(test::random_codes(m, 7300 + i));
      }
      for (std::size_t i = 0; i < count; ++i)
        pairs.push_back({view(qs[i]), view(ss[i])});
      for (const int threads : {1, 2}) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(b) << " count " << count << " threads "
                     << threads);
        align_options o;
        o.kind = p.kind;
        o.match = p.match;
        o.mismatch = p.mismatch;
        o.gap_open = p.open;
        o.gap_extend = p.extend;
        o.exec = b;
        o.threads = threads;
        o.precision = score_precision::int32;
        aligner ref_a(o);
        std::vector<alignment_result> ref;
        ref_a.align_batch_into(pairs, ref);
        o.precision = score_precision::auto_select;
        aligner a(o);
        std::vector<alignment_result> got;
        a.align_batch_into(pairs, got);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i].score, ref[i].score) << "pair " << i;
          ASSERT_EQ(got[i].q_end, ref[i].q_end) << "pair " << i;
          ASSERT_EQ(got[i].s_end, ref[i].s_end) << "pair " << i;
        }
        const batch_stats st = a.last_batch_stats();
        if (w == 1) {
          EXPECT_EQ(st.simd_pairs, 0u);
          EXPECT_EQ(st.scalar_pairs, count);
          EXPECT_EQ(st.int16_pairs, 0u);
          EXPECT_EQ(st.padded_cells, 0u);
          continue;
        }
        const bool simd_tail = t >= min_live;
        EXPECT_EQ(st.simd_pairs, L + t);
        EXPECT_EQ(st.int16_pairs, st.simd_pairs);
        EXPECT_EQ(st.scalar_pairs, 0u);
        EXPECT_EQ(st.striped_pairs, simd_tail ? 0 : t);
        EXPECT_EQ(st.padded_cells,
                  simd_tail ? (L - t) * static_cast<std::uint64_t>(n * m)
                            : 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TailOracle,
    ::testing::Values(
        precision_case{align_kind::global, 2, -1, 0, -1},
        precision_case{align_kind::global, 2, -1, -2, -1},
        precision_case{align_kind::local, 2, -1, 0, -1},
        precision_case{align_kind::local, 2, -1, -2, -1},
        precision_case{align_kind::semiglobal, 2, -1, 0, -1},
        precision_case{align_kind::semiglobal, 2, -1, -2, -1},
        precision_case{align_kind::extension, 2, -1, 0, -1},
        precision_case{align_kind::extension, 2, -1, -2, -1}));

}  // namespace
}  // namespace anyseq
