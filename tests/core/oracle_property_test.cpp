/// Property sweeps: every core engine must agree with the independent
/// oracles (textbook Gotoh DP + exhaustive path enumeration) across the
/// full (kind x gap x scoring) parameter grid.

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/full_engine.hpp"
#include "core/rolling.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

struct grid_param {
  align_kind kind;
  score_t match, mismatch;
  score_t open, extend;  // open == 0 -> linear
  std::uint64_t seed;
};

void PrintTo(const grid_param& p, std::ostream* os) {
  *os << to_string(p.kind) << " m" << p.match << "/" << p.mismatch << " g"
      << p.open << "," << p.extend << " seed" << p.seed;
}

class OracleGrid : public ::testing::TestWithParam<grid_param> {};

template <align_kind K>
score_result run_rolling(const std::vector<char_t>& q,
                         const std::vector<char_t>& s, const grid_param& p) {
  const simple_scoring sc{p.match, p.mismatch};
  workspace ws;
  if (p.open == 0)
    return rolling_score<K>(view(q), view(s), linear_gap{p.extend}, sc, ws);
  return rolling_score<K>(view(q), view(s), affine_gap{p.open, p.extend}, sc,
                          ws);
}

score_result run_kind(const std::vector<char_t>& q,
                      const std::vector<char_t>& s, const grid_param& p) {
  switch (p.kind) {
    case align_kind::global: return run_rolling<align_kind::global>(q, s, p);
    case align_kind::local: return run_rolling<align_kind::local>(q, s, p);
    case align_kind::semiglobal:
      return run_rolling<align_kind::semiglobal>(q, s, p);
    case align_kind::extension:
      return run_rolling<align_kind::extension>(q, s, p);
  }
  return {};
}

TEST_P(OracleGrid, RollingMatchesNaiveDp) {
  const auto p = GetParam();
  baselines::naive_params np = test::oracle_affine(p.kind, p.match,
                                                   p.mismatch, p.open,
                                                   p.extend);
  for (int rep = 0; rep < 4; ++rep) {
    auto q = test::random_codes(10 + 9 * rep, p.seed * 131 + rep);
    auto s = test::random_codes(12 + 7 * rep, p.seed * 131 + rep + 17);
    const score_t got = run_kind(q, s, p).score;
    const score_t want = baselines::naive_score(q, s, np);
    ASSERT_EQ(got, want) << "rep " << rep;
  }
}

TEST_P(OracleGrid, RollingMatchesExhaustiveEnumeration) {
  const auto p = GetParam();
  baselines::naive_params np = test::oracle_affine(p.kind, p.match,
                                                   p.mismatch, p.open,
                                                   p.extend);
  for (int rep = 0; rep < 3; ++rep) {
    auto q = test::random_codes(5 + rep, p.seed * 977 + rep);
    auto s = test::random_codes(7 - rep, p.seed * 977 + rep + 5);
    const score_t got = run_kind(q, s, p).score;
    const score_t want = baselines::exhaustive_score(q, s, np);
    ASSERT_EQ(got, want) << "rep " << rep;
  }
}

std::vector<grid_param> make_grid() {
  std::vector<grid_param> out;
  std::uint64_t seed = 1;
  for (align_kind k : test::all_kinds)
    for (auto [match, mismatch] : {std::pair<score_t, score_t>{2, -1},
                                   {1, -3},
                                   {5, -4}})
      for (auto [open, extend] : {std::pair<score_t, score_t>{0, -1},
                                  {0, -3},
                                  {-2, -1},
                                  {-10, -1},
                                  {-1, -2}})
        out.push_back({k, match, mismatch, open, extend, seed++});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllKindsAllGaps, OracleGrid,
                         ::testing::ValuesIn(make_grid()));

// --- cross-engine invariants ------------------------------------------

class KindSweep : public ::testing::TestWithParam<align_kind> {};

TEST_P(KindSweep, ScoreSymmetricUnderSwap) {
  // For symmetric scoring, swapping q and s preserves the optimum
  // (E/F swap roles; global/local/semiglobal/extension are all symmetric).
  const align_kind k = GetParam();
  baselines::naive_params np =
      test::oracle_affine(k, 2, -1, -2, -1);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto q = test::random_codes(14, seed + 1);
    auto s = test::random_codes(18, seed + 2);
    EXPECT_EQ(baselines::naive_score(q, s, np),
              baselines::naive_score(s, q, np))
        << "oracle symmetry, seed " << seed;
    grid_param p{k, 2, -1, -2, -1, seed};
    EXPECT_EQ(run_kind(q, s, p).score, run_kind(s, q, p).score)
        << "engine symmetry, seed " << seed;
  }
}

TEST_P(KindSweep, SelfAlignmentIsAllMatches) {
  const align_kind k = GetParam();
  auto q = test::random_codes(25, 42);
  grid_param p{k, 2, -1, -2, -1, 0};
  EXPECT_EQ(run_kind(q, q, p).score, 50);
}

TEST_P(KindSweep, MonotoneInMatchScore) {
  const align_kind k = GetParam();
  auto q = test::random_codes(20, 7);
  auto s = test::mutate(q, 8);
  score_t prev = std::numeric_limits<score_t>::min();
  for (score_t match : {1, 2, 3, 5}) {
    grid_param p{k, match, -1, -2, -1, 0};
    const score_t v = run_kind(q, s, p).score;
    EXPECT_GE(v, prev) << "match " << match;
    prev = v;
  }
}

TEST_P(KindSweep, OrderingLocalGeSemiglobalGeGlobal) {
  // Relaxing endpoint constraints can only help:
  // local >= semiglobal >= global, and local >= extension >= global.
  const align_kind k = GetParam();
  (void)k;  // ordering checked once per param for different inputs
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto q = test::random_codes(22, seed * 13 + 1);
    auto s = test::random_codes(19, seed * 13 + 5);
    auto score_of = [&](align_kind kk) {
      grid_param p{kk, 2, -1, -2, -1, 0};
      return run_kind(q, s, p).score;
    };
    const score_t g = score_of(align_kind::global);
    const score_t sg = score_of(align_kind::semiglobal);
    const score_t loc = score_of(align_kind::local);
    const score_t ext = score_of(align_kind::extension);
    EXPECT_GE(sg, g);
    EXPECT_GE(loc, sg);
    EXPECT_GE(ext, g);
    EXPECT_GE(loc, ext);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, KindSweep,
                         ::testing::ValuesIn(test::all_kinds));

}  // namespace
}  // namespace anyseq
