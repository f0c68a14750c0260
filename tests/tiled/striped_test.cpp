/// \file striped_test.cpp
/// Differential oracle for the intra-pair striped int16 kernel
/// (tiled/striped.hpp): every striped result must equal the int32
/// rolling engine's score AND end cell — all four kinds, linear and
/// affine gaps, simple and matrix scoring, lengths around the stripe
/// geometry (1, 2, W - 1, W, W + 1, 2W + 3) and the serving shapes (150,
/// 165, 255), on random and tie-heavy (periodic repeat) inputs.  The
/// sweep runs through the public dispatcher on every vector variant the
/// host can run (the generic lane loops on builds without ISA flags),
/// and directly against the kernel at 2, 4, 16 and 32 lanes.

#include <gtest/gtest.h>

#include <vector>

#include "anyseq/anyseq.hpp"
#include "core/rolling.hpp"
#include "testutil.hpp"
#include "tiled/striped.hpp"

namespace anyseq {
namespace {

using test::view;

/// Tie-heavy input: a short period repeated, so many cells share the
/// optimum and the end-cell tie rule decides the answer.
std::vector<char_t> repeat_codes(std::size_t n, std::size_t period,
                                 char_t offset) {
  std::vector<char_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<char_t>((i % period + offset) % 4);
  return out;
}

struct input_pair {
  std::vector<char_t> q, s;
};

/// Random (N-sprinkled, so the matrix's N row is read) and repeat pairs
/// for an (n x m) shape.
std::vector<input_pair> inputs(std::size_t n, std::size_t m) {
  return {{test::random_codes(n, 11 * n + m, 0.05),
           test::random_codes(m, 13 * m + n, 0.05)},
          {repeat_codes(n, 2, 0), repeat_codes(m, 2, 1)},
          {repeat_codes(n, 3, 0), repeat_codes(m, 3, 0)}};
}

struct scoring_case {
  const char* name;
  bool matrix;
  score_t open, extend;
};

constexpr scoring_case kScorings[] = {
    {"simple linear", false, 0, -1},
    {"simple affine", false, -2, -1},
    {"matrix linear", true, 0, -2},
    {"matrix affine", true, -4, -1},
};

align_options options(align_kind k, const scoring_case& c) {
  align_options o;
  o.kind = k;
  o.match = 1;  // ties galore: +1 / -1 with unit gaps
  o.mismatch = -1;
  o.gap_open = c.open;
  o.gap_extend = c.extend;
  if (c.matrix) o.matrix = dna_default_matrix();
  o.threads = 1;
  return o;
}

std::vector<std::size_t> lengths(int lanes) {
  const auto w = static_cast<std::size_t>(lanes);
  return {1, 2, w - 1, w, w + 1, 2 * w + 3, 150, 165, 255};
}

std::vector<backend> vector_backends() {
  std::vector<backend> out;
  for (backend b : {backend::simd_avx2, backend::simd_avx512})
    if (test::backend_runnable(b)) out.push_back(b);
  return out;
}

int lanes_of(backend b) { return b == backend::simd_avx512 ? 32 : 16; }

TEST(StripedOracle, MatchesInt32RollingThroughTheDispatcher) {
  for (const backend b : vector_backends()) {
    const auto lens = lengths(lanes_of(b));
    for (const align_kind k : test::all_kinds)
      for (const scoring_case& c : kScorings) {
        align_options o = options(k, c);
        o.exec = b;
        aligner striped(o);
        o.exec = backend::scalar;
        o.precision = score_precision::int32;
        aligner rolling(o);
        alignment_result got, want;
        for (const std::size_t n : lens)
          for (const std::size_t m : lens) {
            const auto ni = static_cast<index_t>(n);
            const auto mi = static_cast<index_t>(m);
            ASSERT_STREQ(striped.plan(ni, mi).route, "striped_score");
            for (const input_pair& in : inputs(n, m)) {
              striped.align_into(view(in.q), view(in.s), got);
              rolling.align_into(view(in.q), view(in.s), want);
              SCOPED_TRACE(::testing::Message()
                           << to_string(b) << " " << to_string(k) << " "
                           << c.name << " " << n << "x" << m);
              ASSERT_EQ(got.score, want.score);
              ASSERT_EQ(got.q_end, want.q_end);
              ASSERT_EQ(got.s_end, want.s_end);
              ASSERT_EQ(got.cells, want.cells);
              ASSERT_STREQ(got.variant, to_string(b));
            }
          }
      }
  }
}

/// The kernel itself at lane counts the dispatcher never uses (2 and 4
/// stress the cross-lane scan with long segments) and at 16 and 32.
template <int W, align_kind K, class Gap, class Scoring>
void kernel_matches_rolling(const Gap& gap, const Scoring& scoring) {
  workspace ws;
  for (const std::size_t n : lengths(W))
    for (const std::size_t m : {std::size_t{1}, std::size_t{W + 1},
                                std::size_t{37}, std::size_t{150}})
      for (const input_pair& in : inputs(n, m)) {
        const auto got =
            tiled::striped_score<K, W>(view(in.q), view(in.s), gap, scoring,
                                       ws);
        const auto want =
            rolling_score<K>(view(in.q), view(in.s), gap, scoring, ws);
        SCOPED_TRACE(::testing::Message() << "lanes " << W << " "
                                          << to_string(K) << " " << n << "x"
                                          << m);
        ASSERT_EQ(got.score, want.score);
        ASSERT_EQ(got.end_i, want.end_i);
        ASSERT_EQ(got.end_j, want.end_j);
        ASSERT_EQ(got.cells, want.cells);
      }
}

template <int W>
void kernel_sweep() {
  const simple_scoring simple{1, -1};
  const auto matrix = dna_default_matrix();
  kernel_matches_rolling<W, align_kind::global>(linear_gap{-1}, simple);
  kernel_matches_rolling<W, align_kind::global>(affine_gap{-2, -1}, matrix);
  kernel_matches_rolling<W, align_kind::local>(affine_gap{-2, -1}, simple);
  kernel_matches_rolling<W, align_kind::local>(linear_gap{-2}, matrix);
  kernel_matches_rolling<W, align_kind::semiglobal>(affine_gap{-2, -1},
                                                    simple);
  kernel_matches_rolling<W, align_kind::semiglobal>(linear_gap{-1}, matrix);
  kernel_matches_rolling<W, align_kind::extension>(linear_gap{-1}, simple);
  kernel_matches_rolling<W, align_kind::extension>(affine_gap{-4, -1},
                                                   matrix);
}

TEST(StripedKernel, MatchesRollingAtEveryLaneCount) {
  kernel_sweep<2>();
  kernel_sweep<4>();
  kernel_sweep<16>();
  kernel_sweep<32>();
}

TEST(StripedKernel, ExtremeScoresAtTheInt16BoundStayExact) {
  // (n + m + 2) * unit just under the 28000 window: match 55 on a
  // 250 x 250 self-alignment climbs to 13750, a random pair sinks far
  // below zero — both far outside int8, inside int16.
  const auto q = test::random_codes(250, 91);
  const auto s = test::random_codes(250, 92);
  for (const auto& [a, b] : {std::pair{&q, &q}, std::pair{&q, &s}}) {
    align_options o;
    o.match = 55;
    o.mismatch = -55;
    o.gap_open = -30;
    o.gap_extend = -25;
    o.threads = 1;
    for (const align_kind k : test::all_kinds) {
      o.kind = k;
      for (const backend be : vector_backends()) {
        o.exec = be;
        o.precision = score_precision::auto_select;
        aligner got_a(o);
        ASSERT_STREQ(got_a.plan(250, 250).route, "striped_score");
        const auto got = got_a.align(view(*a), view(*b));
        o.exec = backend::scalar;
        o.precision = score_precision::int32;
        const auto want = aligner(o).align(view(*a), view(*b));
        EXPECT_EQ(got.score, want.score) << to_string(k);
        EXPECT_EQ(got.q_end, want.q_end) << to_string(k);
        EXPECT_EQ(got.s_end, want.s_end) << to_string(k);
      }
    }
  }
}

TEST(StripedOracle, LargestRowBiasEqualsInt32Rolling) {
  // |gap_extend| is the scoring unit (affine: an open of -1 takes the
  // last of it) and (n + m + 2) * 40 = 27960 sits just under the 28000
  // window, so the 633-row query spans the most stripes the bound allows
  // at m = 64: 40 on 16 lanes, where stripe 39 carries a bias of
  // 39 * |extend| (1560 linear, 1521 affine), and 20 on 32 lanes.
  constexpr index_t n = 633, m = 64;
  const auto q = test::random_codes(n, 51);
  std::vector<char_t> inside(q.begin() + 300, q.begin() + 300 + m);
  inside[10] = static_cast<char_t>((inside[10] + 1) % 4);
  const std::vector<input_pair> pairs = {{q, inside},
                                         {q, test::random_codes(m, 52)},
                                         {repeat_codes(n, 2, 0),
                                          repeat_codes(m, 2, 1)}};
  for (const scoring_case& c :
       {scoring_case{"linear", false, 0, -40},
        scoring_case{"affine", false, -1, -39}}) {
    for (const align_kind k : test::all_kinds) {
      align_options o = options(k, c);
      o.match = 40;
      o.mismatch = -40;
      o.exec = backend::scalar;
      o.precision = score_precision::int32;
      aligner rolling(o);
      for (const backend b : vector_backends()) {
        o.exec = b;
        o.precision = score_precision::auto_select;
        aligner striped(o);
        ASSERT_STREQ(striped.plan(n, m).route, "striped_score");
        for (const input_pair& in : pairs) {
          SCOPED_TRACE(::testing::Message() << to_string(b) << " "
                                            << to_string(k) << " " << c.name);
          const auto got = striped.align(view(in.q), view(in.s));
          const auto want = rolling.align(view(in.q), view(in.s));
          ASSERT_EQ(got.score, want.score);
          ASSERT_EQ(got.q_end, want.q_end);
          ASSERT_EQ(got.s_end, want.s_end);
        }
      }
    }
  }
}

TEST(StripedRoute, PlanReportsTheRouteTheVariantExecutes) {
  align_options o;
  o.threads = 1;
  o.exec = backend::scalar;
  const auto scalar = aligner(o).plan(150, 150);
  EXPECT_STREQ(scalar.route, "tiled_score");  // its one-tile scalar pass
  EXPECT_EQ(scalar.precision, score_precision::int32);
  for (const backend b : vector_backends()) {
    o.exec = b;
    o.precision = score_precision::auto_select;
    const auto p = aligner(o).plan(150, 150);
    EXPECT_STREQ(p.route, "striped_score");
    EXPECT_EQ(p.precision, score_precision::int16);
    EXPECT_STREQ(p.variant, to_string(b));
    // The int32 reference stays on the rolling engine; past the small-problem
    // cutoff or the int16 bound the tiled engine takes over.
    o.precision = score_precision::int32;
    EXPECT_STREQ(aligner(o).plan(150, 150).route, "small_score");
    o.precision = score_precision::auto_select;
    EXPECT_STREQ(aligner(o).plan(300, 300).route, "tiled_score");
    o.match = 100;  // (150 + 150 + 2) * 100 > 28000
    EXPECT_STREQ(aligner(o).plan(150, 150).route, "tiled_score");
    o.match = 2;
    // Empty sequences never stripe.
    EXPECT_STRNE(aligner(o).plan(0, 150).route, "striped_score");
  }
}

}  // namespace
}  // namespace anyseq
