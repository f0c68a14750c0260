/// Input-validation and degenerate-input contract of align_batch
/// (documented in anyseq.hpp): empty batches, zero-length sequence
/// entries, and the per-pair identity of batch results with align() —
/// the invariants the asynchronous service layer builds on.

#include <gtest/gtest.h>

#include "anyseq/anyseq.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::backend_runnable;
using test::random_codes;
using test::view;

TEST(AlignBatchValidation, EmptyBatchReturnsEmptyVector) {
  EXPECT_TRUE(align_batch({}, {}).empty());
  align_options opt;
  opt.want_alignment = true;
  EXPECT_TRUE(align_batch({}, opt).empty());
}

TEST(AlignBatchValidation, EmptyBatchStillValidatesOptions) {
  align_options opt;
  opt.gap_extend = 1;  // invalid: must be <= 0
  EXPECT_THROW((void)align_batch({}, opt), invalid_argument_error);
}

TEST(AlignBatchValidation, ZeroLengthEntriesAreDefined) {
  const auto a = random_codes(24, 1);
  const std::vector<char_t> empty;
  const std::vector<seq_pair> pairs{
      {view(a), view(a)}, {view(empty), view(a)},
      {view(a), view(empty)}, {view(empty), view(empty)}};

  for (const bool traceback : {false, true}) {
    align_options opt;
    opt.want_alignment = traceback;
    const auto rs = align_batch(pairs, opt);
    ASSERT_EQ(rs.size(), pairs.size());
    // An empty side aligns against all-gaps: score is the full gap run.
    EXPECT_EQ(rs[1].score, -static_cast<score_t>(a.size()));
    EXPECT_EQ(rs[2].score, -static_cast<score_t>(a.size()));
    EXPECT_EQ(rs[3].score, 0);
    if (traceback) {
      EXPECT_EQ(rs[1].q_aligned, std::string(a.size(), '-'));
      EXPECT_EQ(rs[2].s_aligned, std::string(a.size(), '-'));
      EXPECT_TRUE(rs[3].q_aligned.empty());
    }
    // Entry-by-entry identical to a single align() call.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto want = align(pairs[i].q, pairs[i].s, opt);
      EXPECT_EQ(rs[i].score, want.score) << i;
      EXPECT_EQ(rs[i].cells, want.cells) << i;
      if (traceback) {
        EXPECT_EQ(rs[i].q_aligned, want.q_aligned) << i;
        EXPECT_EQ(rs[i].s_aligned, want.s_aligned) << i;
        EXPECT_EQ(rs[i].cigar, want.cigar) << i;
      }
    }
  }
}

TEST(AlignBatchValidation, ZeroLengthLocalScoresZero) {
  const auto a = random_codes(16, 2);
  const std::vector<char_t> empty;
  align_options opt;
  opt.kind = align_kind::local;
  const auto rs = align_batch(
      std::vector<seq_pair>{{view(empty), view(a)}}, opt);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].score, 0);
}

TEST(AlignBatchValidation, ScoreOnlyResultsCarryEndCoordinates) {
  // The score path used to drop the optimum's end cell; the service
  // layer needs it to match per-pair align() byte for byte.
  const auto q = random_codes(48, 3);
  const auto s = random_codes(52, 4);
  for (const backend exec :
       {backend::scalar, backend::simd_avx2, backend::simd_avx512}) {
    if (!backend_runnable(exec)) continue;
    align_options opt;
    opt.exec = exec;
    const auto rs =
        align_batch(std::vector<seq_pair>{{view(q), view(s)}}, opt);
    const auto want = align(view(q), view(s), opt);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].score, want.score);
    EXPECT_EQ(rs[0].q_end, want.q_end);
    EXPECT_EQ(rs[0].s_end, want.s_end);
    EXPECT_EQ(rs[0].q_end, static_cast<index_t>(q.size()));
    EXPECT_EQ(rs[0].s_end, static_cast<index_t>(s.size()));
    EXPECT_EQ(rs[0].cells, want.cells);
    EXPECT_STREQ(rs[0].variant, want.variant);
  }
}

TEST(AlignBatchValidation, MixedLengthBatchMatchesPerPairAlign) {
  // Mixed lengths force both the SIMD chunks and the scalar fallback;
  // global score-only results must equal align() entry by entry.
  std::vector<std::vector<char_t>> store;
  std::vector<seq_pair> pairs;
  for (int i = 0; i < 40; ++i) {
    store.push_back(random_codes(8 + (i * 13) % 80, 100 + i));
    store.push_back(random_codes(8 + (i * 19) % 80, 200 + i));
  }
  for (int i = 0; i < 40; ++i)
    pairs.push_back({view(store[2 * i]), view(store[2 * i + 1])});
  const auto rs = align_batch(pairs, {});
  ASSERT_EQ(rs.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto want = align(pairs[i].q, pairs[i].s, {});
    EXPECT_EQ(rs[i].score, want.score) << i;
    EXPECT_EQ(rs[i].q_end, want.q_end) << i;
    EXPECT_EQ(rs[i].s_end, want.s_end) << i;
    EXPECT_EQ(rs[i].cells, want.cells) << i;
  }
}

}  // namespace
}  // namespace anyseq
