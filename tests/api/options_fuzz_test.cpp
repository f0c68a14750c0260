/// Randomized end-to-end fuzz of the public API: random sequences,
/// random (valid) option combinations, random backends — every result is
/// checked against the independent naive oracle, and every produced
/// traceback is re-scored.  The tile draw includes 0 (the plan-derived
/// tile), and a slice of cases scales its scores up to max_abs_score:
/// those past validate_shape's bound must throw score_overflow_error.
/// This is the last line of defense against dispatch-table mistakes (a
/// wrong template instantiation for some option combination would pass
/// unit tests of the engines themselves).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>

#include "anyseq/anyseq.hpp"
#include "baselines/naive.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

struct fuzz_case {
  align_options opt;
  std::vector<char_t> q, s;
};

fuzz_case make_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](auto... vals) {
    const std::common_type_t<decltype(vals)...> arr[] = {vals...};
    return arr[rng() % sizeof...(vals)];
  };
  fuzz_case c;
  c.opt.kind = pick(align_kind::global, align_kind::local,
                    align_kind::semiglobal);
  c.opt.match = pick(1, 2, 5);
  c.opt.mismatch = pick(-1, -3);
  c.opt.gap_open = pick(0, 0, -2, -5);  // 0 twice: linear is common
  c.opt.gap_extend = pick(-1, -2);
  c.opt.exec =
      pick(backend::scalar, backend::simd_avx2, backend::simd_avx512);
  if (!test::backend_runnable(c.opt.exec)) c.opt.exec = backend::scalar;
  c.opt.threads = static_cast<int>(1 + rng() % 3);
  c.opt.tile = pick(index_t{0}, index_t{16}, index_t{64}, index_t{200});
  c.opt.want_alignment = rng() % 2 == 0;
  // Sometimes force the linear-space D&C path for tracebacks.
  if (c.opt.want_alignment && rng() % 3 == 0) c.opt.full_matrix_cells = 64;
  // Both requestable precisions: the planned accumulator and the int32
  // reference route; traceback routes ignore the hint.
  c.opt.precision = pick(score_precision::auto_select,
                         score_precision::auto_select,
                         score_precision::int32);
  // Fold unit-cost option sets into the mix — under auto they take the
  // Myers bit-parallel route (score-only, global).
  if (rng() % 4 == 0) {
    c.opt.kind = align_kind::global;
    c.opt.want_alignment = false;
    c.opt.match = 0;
    c.opt.gap_open = 0;
    c.opt.mismatch = c.opt.gap_extend = pick(-1, -2);
  }
  // Extreme scores: scale every score up to max_abs_score, clamping
  // there, so the worst cases sit on both sides of the int32 bound.
  if (rng() % 4 == 0) {
    const score_t f = pick(score_t{1} << 12, score_t{1} << 16,
                           score_t{1} << 18, score_t{1} << 20);
    for (score_t* v : {&c.opt.match, &c.opt.mismatch, &c.opt.gap_open,
                       &c.opt.gap_extend}) {
      const std::int64_t scaled = std::int64_t{*v} * f;
      *v = static_cast<score_t>(
          std::clamp<std::int64_t>(scaled, -max_abs_score, max_abs_score));
    }
  }

  const auto nq = 1 + rng() % 120, ns = 1 + rng() % 120;
  c.q = test::random_codes(nq, seed * 3 + 1);
  c.s = rng() % 2 == 0 ? test::random_codes(ns, seed * 3 + 2)
                       : test::mutate(c.q, seed * 3 + 2);
  return c;
}

/// True if the case is inside validate_shape's bound: its worst-case
/// score, (n + m + 2) times the largest per-cell step, stays below the
/// int32 window.
bool inside_bound(const fuzz_case& c) {
  const std::int64_t go = c.opt.gap_open, ge = c.opt.gap_extend;
  const std::int64_t unit =
      std::max({std::abs(std::int64_t{c.opt.match}),
                std::abs(std::int64_t{c.opt.mismatch}), std::abs(go + ge),
                std::abs(ge)});
  const auto cells = static_cast<std::int64_t>(c.q.size() + c.s.size() + 2);
  return cells * unit < int32_score_window();
}

score_t oracle_score(const fuzz_case& c) {
  baselines::naive_params p;
  p.kind = c.opt.kind;
  p.match = c.opt.match;
  p.mismatch = c.opt.mismatch;
  p.gap_open = c.opt.gap_open;
  p.gap_extend = c.opt.gap_extend;
  return baselines::naive_score(c.q, c.s, p);
}

class OptionsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OptionsFuzz, MatchesOracleAndRescores) {
  for (int rep = 0; rep < 25; ++rep) {
    const auto seed =
        static_cast<std::uint64_t>(GetParam()) * 1000 + rep;
    const auto c = make_case(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " kind " << to_string(c.opt.kind)
                 << " backend " << to_string(c.opt.exec) << " match "
                 << c.opt.match << " mismatch " << c.opt.mismatch
                 << " open " << c.opt.gap_open << " extend "
                 << c.opt.gap_extend << " tile " << c.opt.tile << " tb "
                 << c.opt.want_alignment << " nq " << c.q.size() << " ns "
                 << c.s.size());

    if (!inside_bound(c)) {
      ASSERT_THROW((void)align(view(c.q), view(c.s), c.opt),
                   score_overflow_error);
      continue;
    }
    const auto r = align(view(c.q), view(c.s), c.opt);
    ASSERT_EQ(r.score, oracle_score(c));

    if (c.opt.want_alignment &&
        !(c.opt.kind == align_kind::local && r.score == 0)) {
      const score_t match = c.opt.match, mismatch = c.opt.mismatch;
      auto subst = [match, mismatch](char a, char b) {
        return a == b ? match : mismatch;
      };
      score_t re;
      if (c.opt.gap_open == 0)
        re = rescore_alignment(r.q_aligned, r.s_aligned, subst,
                               linear_gap{c.opt.gap_extend});
      else
        re = rescore_alignment(r.q_aligned, r.s_aligned, subst,
                               affine_gap{c.opt.gap_open, c.opt.gap_extend});
      ASSERT_EQ(re, r.score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionsFuzz, ::testing::Range(0, 8));

TEST(OptionsFuzzCases, DrawThePlannedTileAndBothSidesOfTheBound) {
  // The seeds MatchesOracleAndRescores runs; an extreme case has its
  // gap_extend scaled to 2^12 or more.
  int planned = 0, inside = 0, past = 0;
  for (std::uint64_t param = 0; param < 8; ++param)
    for (std::uint64_t rep = 0; rep < 25; ++rep) {
      const auto c = make_case(param * 1000 + rep);
      planned += c.opt.tile == 0 ? 1 : 0;
      if (std::abs(c.opt.gap_extend) >= 1 << 12)
        ++(inside_bound(c) ? inside : past);
    }
  EXPECT_GT(planned, 0);
  EXPECT_GT(inside, 0);
  EXPECT_GT(past, 0);
}

TEST(OptionsValidation, PlannedPrecisionsAreNotRequests) {
  // int8, int16 and bitpar are what the plan reports, never what a
  // caller asks for; the rejection names the field.
  for (const score_precision p : {score_precision::int8,
                                  score_precision::int16,
                                  score_precision::bitpar}) {
    SCOPED_TRACE(to_string(p));
    align_options o;
    o.precision = p;
    try {
      validate(o);
      ADD_FAILURE() << "validate accepted a planned precision";
    } catch (const validation_error& e) {
      EXPECT_NE(std::string(e.what()).find("precision"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(aligner{o}, validation_error);
    EXPECT_THROW((void)align_strings("ACGT", "ACGT", o), validation_error);
  }
  for (const score_precision p :
       {score_precision::auto_select, score_precision::int32}) {
    align_options o;
    o.precision = p;
    EXPECT_NO_THROW(validate(o)) << to_string(p);
  }
}

}  // namespace
}  // namespace anyseq
