#include "anyseq/anyseq.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/rolling.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

const backend kAllBackends[] = {backend::scalar, backend::simd_avx2,
                                backend::simd_avx512, backend::gpu_sim,
                                backend::fpga_sim};

class BackendSweep : public ::testing::TestWithParam<backend> {};

TEST_P(BackendSweep, ScoreOnlyMatchesReferenceAllKinds) {
  if (!test::backend_runnable(GetParam()))
    GTEST_SKIP() << "host cannot run " << to_string(GetParam());
  auto q = test::random_codes(260, 1);
  auto s = test::mutate(q, 2);
  workspace ws;
  for (align_kind k : {align_kind::global, align_kind::local,
                       align_kind::semiglobal}) {
    for (score_t open : {score_t{0}, score_t{-2}}) {
      align_options opt;
      opt.kind = k;
      opt.exec = GetParam();
      opt.gap_open = open;
      opt.threads = 2;
      opt.tile = 64;
      const auto got = align(view(q), view(s), opt);
      score_t want;
      if (open == 0) {
        auto w = [&] {
          switch (k) {
            case align_kind::local:
              return rolling_score<align_kind::local>(
                  view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
            case align_kind::semiglobal:
              return rolling_score<align_kind::semiglobal>(
                  view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
            default:
              return rolling_score<align_kind::global>(
                  view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
          }
        }();
        want = w.score;
      } else {
        auto w = [&] {
          switch (k) {
            case align_kind::local:
              return rolling_score<align_kind::local>(
                  view(q), view(s), affine_gap{-2, -1},
                  simple_scoring{2, -1}, ws);
            case align_kind::semiglobal:
              return rolling_score<align_kind::semiglobal>(
                  view(q), view(s), affine_gap{-2, -1},
                  simple_scoring{2, -1}, ws);
            default:
              return rolling_score<align_kind::global>(
                  view(q), view(s), affine_gap{-2, -1},
                  simple_scoring{2, -1}, ws);
          }
        }();
        want = w.score;
      }
      EXPECT_EQ(got.score, want)
          << to_string(k) << " open " << open << " on "
          << to_string(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendSweep,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(AlignApi, QuickstartStringsGlobal) {
  align_options opt;
  opt.want_alignment = true;
  auto r = align_strings("ACGTACGT", "ACGTCGT", opt);
  EXPECT_EQ(r.score, 14 - 1);  // 7 matches, one gap
  EXPECT_TRUE(r.has_alignment);
  EXPECT_EQ(r.q_aligned.size(), 8u);
}

TEST(AlignApi, AutoBackendResolves) {
  align_options opt;  // auto
  auto r = align_strings("ACGT", "ACGT", opt);
  EXPECT_EQ(r.score, 8);
}

TEST(AlignApi, TracebackLongSequenceUsesLinearSpacePath) {
  if (!test::backend_runnable(backend::simd_avx2))
    GTEST_SKIP() << "host cannot run simd_avx2";
  auto q = test::random_codes(900, 3);
  auto s = test::mutate(q, 4);
  align_options opt;
  opt.want_alignment = true;
  opt.full_matrix_cells = 1 << 10;  // force the divide & conquer path
  opt.exec = backend::simd_avx2;
  opt.tile = 64;
  opt.threads = 2;
  const auto r = align(view(q), view(s), opt);
  workspace ws;
  const auto want = rolling_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(r.score, want.score);
  const score_t re = rescore_alignment(
      r.q_aligned, r.s_aligned,
      [](char a, char b) { return a == b ? 2 : -1; }, linear_gap{-1});
  EXPECT_EQ(re, r.score);
}

TEST(AlignApi, LocalTracebackViaLocate) {
  auto q = test::random_codes(700, 5);
  auto s = test::random_codes(650, 6);
  align_options opt;
  opt.kind = align_kind::local;
  opt.want_alignment = true;
  opt.gap_open = -3;
  opt.full_matrix_cells = 1 << 10;
  opt.tile = 64;
  const auto r = align(view(q), view(s), opt);
  workspace ws;
  const auto want = rolling_score<align_kind::local>(
      view(q), view(s), affine_gap{-3, -1}, simple_scoring{2, -1}, ws);
  EXPECT_EQ(r.score, want.score);
  if (r.score > 0) {
    const score_t re = rescore_alignment(
        r.q_aligned, r.s_aligned,
        [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-3, -1});
    EXPECT_EQ(re, r.score);
  }
}

TEST(AlignApi, SemiglobalTracebackViaLocate) {
  auto ref = test::random_codes(2000, 7);
  std::vector<char_t> read(ref.begin() + 500, ref.begin() + 800);
  align_options opt;
  opt.kind = align_kind::semiglobal;
  opt.want_alignment = true;
  opt.full_matrix_cells = 1 << 10;
  opt.tile = 64;
  const auto r = align(view(read), view(ref), opt);
  EXPECT_EQ(r.score, 600);  // perfect embedded match
  EXPECT_EQ(r.s_begin, 500);
  EXPECT_EQ(r.s_end, 800);
}

TEST(AlignApi, MatrixScoringSupported) {
  align_options opt;
  opt.matrix = dna_default_matrix();
  auto r = align_strings("ACGT", "ACGT", opt);
  EXPECT_EQ(r.score, 20);  // 4 x match(+5)
}

TEST(AlignApi, ExtensionKindScoreOnly) {
  align_options opt;
  opt.kind = align_kind::extension;
  opt.match = 2;
  auto r = align_strings("ACGTTTT", "ACGAAAA", opt);
  EXPECT_EQ(r.score, 6);  // the "ACG" prefix (3 matches), then stop
}

TEST(AlignApi, FpgaBackendRejectsTraceback) {
  align_options opt;
  opt.exec = backend::fpga_sim;
  opt.want_alignment = true;
  EXPECT_THROW((void)align_strings("ACGT", "ACGT", opt),
               invalid_argument_error);
}

TEST(AlignApi, ValidatesOptions) {
  align_options opt;
  opt.gap_extend = 1;
  EXPECT_THROW(validate(opt), invalid_argument_error);
  opt = {};
  opt.gap_open = 3;
  EXPECT_THROW(validate(opt), invalid_argument_error);
  opt = {};
  opt.threads = -1;
  EXPECT_THROW(validate(opt), invalid_argument_error);
  opt = {};
  opt.tile = -1;
  EXPECT_THROW(validate(opt), invalid_argument_error);
  opt = {};
  opt.kind = align_kind::local;
  opt.match = 0;
  EXPECT_THROW(validate(opt), invalid_argument_error);
}

TEST(AlignApi, ValidateBoundsScoreMagnitudes) {
  // Every score field past 2^20 in magnitude (INT32_MIN included, whose
  // negation overflows) is a validation_error naming the field; 2^20
  // itself is accepted and aligns exactly.  Gap fields are <= 0, so
  // their accepted edge is -2^20.
  using setter = void (*)(align_options&, score_t);
  struct field {
    const char* name;
    setter set;
    bool sign_free;  // false: positive values fail the sign rule instead
  };
  const field fields[] = {
      {"match", [](align_options& o, score_t v) { o.match = v; }, true},
      {"mismatch", [](align_options& o, score_t v) { o.mismatch = v; },
       true},
      {"gap_open", [](align_options& o, score_t v) { o.gap_open = v; },
       false},
      {"gap_extend", [](align_options& o, score_t v) { o.gap_extend = v; },
       false},
      {"matrix entry",
       [](align_options& o, score_t v) {
         o.matrix = dna_matrix_scoring::uniform(2, -1);
         o.matrix->set(1, 2, v);
       },
       true},
  };
  const score_t over = max_abs_score + 1;
  for (const field& f : fields) {
    for (const score_t bad :
         {over, -over, std::numeric_limits<score_t>::min()}) {
      align_options opt;
      f.set(opt, bad);
      try {
        validate(opt);
        ADD_FAILURE() << f.name << " = " << bad << " passed validate()";
      } catch (const validation_error& e) {
        EXPECT_NE(std::string(e.what()).find(f.name), std::string::npos)
            << e.what();
      }
    }
    for (const score_t edge : {max_abs_score, -max_abs_score}) {
      if (edge > 0 && !f.sign_free) continue;
      align_options opt;
      f.set(opt, edge);
      EXPECT_NO_THROW(validate(opt)) << f.name << " = " << edge;
      align_options ref = opt;
      ref.exec = backend::scalar;
      ref.precision = score_precision::int32;
      EXPECT_EQ(align_strings("ACGTACGGT", "ACTTACGT", opt).score,
                align_strings("ACGTACGGT", "ACTTACGT", ref).score)
          << f.name << " = " << edge;
    }
  }
}

TEST(AlignApi, LargeScoresOnALongPairEqualScalarInt32) {
  // match = 30 passes validate(), so no tile may make the SIMD variants
  // throw: the derived tile meets the 16-bit span, and an explicit
  // oversize tile runs its tiles as exact int32 singles.
  const auto q = test::random_codes(4096, 81);
  const auto s = test::mutate(q, 82);
  align_options ref;
  ref.kind = align_kind::local;
  ref.match = 30;
  ref.mismatch = -20;
  ref.gap_open = -40;
  ref.gap_extend = -10;
  ref.exec = backend::scalar;
  ref.precision = score_precision::int32;
  const auto want = align(view(q), view(s), ref);
  for (backend b : {backend::simd_avx2, backend::simd_avx512}) {
    if (!test::backend_runnable(b)) continue;
    for (index_t tile : {index_t{0}, index_t{512}}) {
      align_options opt = ref;
      opt.exec = b;
      opt.precision = score_precision::auto_select;
      opt.threads = 2;
      opt.tile = tile;
      aligner a(opt);
      EXPECT_STREQ(a.plan(4096, static_cast<index_t>(s.size())).route,
                   "tiled_score");
      alignment_result got;
      ASSERT_NO_THROW(a.align_into(view(q), view(s), got))
          << to_string(b) << " tile " << tile;
      EXPECT_EQ(got.score, want.score) << to_string(b) << " tile " << tile;
      EXPECT_EQ(got.q_end, want.q_end) << to_string(b) << " tile " << tile;
      EXPECT_EQ(got.s_end, want.s_end) << to_string(b) << " tile " << tile;
    }
  }
}

TEST(AlignApi, TilesAtTheInt16WindowEdgeEqualScalarInt32) {
  // unit 100: a striped tile needs (2 * side + 2) * 100 < 28000, so 138
  // is the last side that fits and 139 the first past it.  The pair is
  // related for 600 rows (the diagonal climbs by ~90 a cell, so tile
  // corners cross the int16 range and the local floor's rebase pins to
  // -inf) and unrelated after (local scores hug 0, so the floor fires).
  const auto head = test::random_codes(600, 83);
  auto q = head;
  auto s = test::mutate(head, 84, 0.03, 0.01);
  const auto q_tail = test::random_codes(400, 85);
  const auto s_tail = test::random_codes(420, 86);
  q.insert(q.end(), q_tail.begin(), q_tail.end());
  s.insert(s.end(), s_tail.begin(), s_tail.end());
  const auto n = static_cast<index_t>(q.size());
  const auto m = static_cast<index_t>(s.size());
  for (const align_kind k : {align_kind::global, align_kind::local}) {
    align_options ref;
    ref.kind = k;
    ref.match = 100;
    ref.mismatch = -100;
    ref.gap_open = 0;
    ref.gap_extend = -100;
    ref.exec = backend::scalar;
    ref.precision = score_precision::int32;
    const auto want = align(view(q), view(s), ref);
    for (backend b : {backend::simd_avx2, backend::simd_avx512}) {
      if (!test::backend_runnable(b)) continue;
      for (index_t tile : {index_t{138}, index_t{139}}) {
        align_options opt = ref;
        opt.exec = b;
        opt.precision = score_precision::auto_select;
        opt.threads = 2;
        opt.tile = tile;
        aligner a(opt);
        ASSERT_STREQ(a.plan(n, m).route, "tiled_score");
        const auto got = a.align(view(q), view(s));
        SCOPED_TRACE(::testing::Message() << to_string(b) << " "
                                          << to_string(k) << " tile " << tile);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.q_end, want.q_end);
        EXPECT_EQ(got.s_end, want.s_end);
        const wavefront_stats st = a.last_wavefront_stats();
        const auto count = [tile](index_t len) {
          return static_cast<std::uint64_t>((len + tile - 1) / tile);
        };
        EXPECT_EQ(st.striped_tiles + st.int32_tiles, count(n) * count(m));
        if (tile == 138) {
          EXPECT_EQ(st.int32_tiles, 0u);
        } else {
          // Only the corner tile, clipped below 139 on both sides, fits.
          EXPECT_EQ(st.striped_tiles, n % tile != 0 && m % tile != 0 ? 1u : 0u);
          EXPECT_GT(st.int32_tiles, 0u);
        }
      }
    }
  }
}

TEST(AlignApi, BatchMatchesSingleAlignments) {
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 40; ++i) {
    qs.push_back(test::random_codes(90, 500 + i));
    ss.push_back(test::random_codes(90, 600 + i));
  }
  for (int i = 0; i < 40; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  align_options opt;
  opt.exec = test::backend_runnable(backend::simd_avx2)
                 ? backend::simd_avx2
                 : backend::scalar;
  opt.threads = 2;
  auto batch = align_batch(pairs, opt);
  ASSERT_EQ(batch.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const auto single = align(pairs[i].q, pairs[i].s, opt);
    EXPECT_EQ(batch[i].score, single.score) << i;
  }
}

TEST(AlignApi, BatchWithTracebackRescores) {
  std::vector<std::vector<char_t>> qs;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 8; ++i) qs.push_back(test::random_codes(60, 700 + i));
  for (int i = 0; i < 8; ++i) pairs.push_back({view(qs[i]), view(qs[i])});
  align_options opt;
  opt.want_alignment = true;
  opt.gap_open = -2;
  auto rs = align_batch(pairs, opt);
  for (const auto& r : rs) {
    EXPECT_EQ(r.score, 120);  // self alignment, 60 matches
    EXPECT_EQ(r.cigar, "60=");
  }
}

TEST(AlignApi, EmptyInputsHandled) {
  align_options opt;
  EXPECT_EQ(align_strings("", "ACG", opt).score, -3);
  EXPECT_EQ(align_strings("", "", opt).score, 0);
  opt.kind = align_kind::local;
  EXPECT_EQ(align_strings("", "ACG", opt).score, 0);
}

TEST(AlignApi, VersionIsSet) {
  EXPECT_STREQ(version(), "1.0.0");
}

}  // namespace
}  // namespace anyseq
