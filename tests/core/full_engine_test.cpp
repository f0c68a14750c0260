#include "core/full_engine.hpp"

#include <gtest/gtest.h>

#include "core/alphabet.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

std::vector<char_t> enc(const std::string& s) { return dna_encode_all(s); }

/// One full-matrix pass with traceback, carved from the test's arena.
template <align_kind K, class Gap, class Scoring>
alignment_result full_pass(workspace& ws, stage::seq_view q,
                           stage::seq_view s, Gap gap, Scoring sc) {
  alignment_result r;
  full_engine<K, Gap, Scoring>(gap, sc).align_into(q, s, true, ws, r);
  return r;
}

TEST(FullEngineGlobal, IdenticalSequences) {
  auto q = enc("ACGTACGT");
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(q), linear_gap{-1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, 16);
  EXPECT_EQ(r.q_aligned, "ACGTACGT");
  EXPECT_EQ(r.s_aligned, "ACGTACGT");
  EXPECT_EQ(r.cigar, "8=");
}

TEST(FullEngineGlobal, EmptyVsEmpty) {
  std::vector<char_t> q, s;
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.q_aligned.empty());
}

TEST(FullEngineGlobal, EmptyVsNonEmptyLinear) {
  std::vector<char_t> q;
  auto s = enc("ACGT");
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, -4);
  EXPECT_EQ(r.q_aligned, "----");
  EXPECT_EQ(r.s_aligned, "ACGT");
}

TEST(FullEngineGlobal, EmptyVsNonEmptyAffine) {
  std::vector<char_t> q;
  auto s = enc("ACGT");
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s),
                                         affine_gap{-2, -1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, -6);  // one open (-2) + 4 extends (-4)
}

TEST(FullEngineGlobal, SingleSubstitution) {
  auto q = enc("ACGT"), s = enc("AGGT");
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, 5);  // 3 matches + 1 mismatch
  EXPECT_EQ(r.cigar, "1=1X2=");
}

TEST(FullEngineGlobal, SingleInsertionAffinePrefersOneGap) {
  auto q = enc("ACGT"), s = enc("ACGGT");
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s),
                                         affine_gap{-2, -1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.score, 8 - 3);  // 4 matches, one gap open+extend
  EXPECT_EQ(r.q_aligned.size(), 5u);
}

TEST(FullEngineGlobal, AffineMergesGapsLinearSplitsThem) {
  // q has two separated deletions vs s; with a huge open cost the affine
  // optimum prefers one long gap even at the cost of mismatches.
  auto q = enc("AAAATTTTCCCC"), s = enc("AAAACCCC");
  workspace ws;
  auto lin = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                           simple_scoring{2, -1});
  auto aff = full_pass<align_kind::global>(ws, view(q), view(s),
                                           affine_gap{-10, -1},
                                           simple_scoring{2, -1});
  EXPECT_EQ(lin.score, 16 - 4);  // 8 matches, 4 gap symbols
  EXPECT_EQ(aff.score, 16 - 14); // 8 matches, one open + 4 extends
}

TEST(FullEngineLocal, FindsEmbeddedMatch) {
  auto q = enc("TTTTACGTACGTTTTT");
  auto s = enc("GGGGACGTACGGGGGG");
  workspace ws;
  auto r = full_pass<align_kind::local>(ws, view(q), view(s), linear_gap{-2},
                                        simple_scoring{2, -2});
  EXPECT_EQ(r.score, 14);  // "ACGTACG" 7 matches
  EXPECT_EQ(r.q_aligned, "ACGTACG");
  EXPECT_EQ(r.s_aligned, "ACGTACG");
  EXPECT_EQ(r.q_begin, 4);
  EXPECT_EQ(r.s_begin, 4);
}

TEST(FullEngineLocal, AllMismatchesGiveEmptyAlignment) {
  auto q = enc("AAAA"), s = enc("TTTT");
  workspace ws;
  auto r = full_pass<align_kind::local>(ws, view(q), view(s), linear_gap{-1},
                                        simple_scoring{2, -1});
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.q_aligned.empty());
}

TEST(FullEngineLocal, ScoreNeverNegative) {
  auto q = test::random_codes(40, 1);
  auto s = test::random_codes(35, 2);
  workspace ws;
  auto r = full_pass<align_kind::local>(ws, view(q), view(s), linear_gap{-3},
                                        simple_scoring{1, -3});
  EXPECT_GE(r.score, 0);
}

TEST(FullEngineSemiglobal, FreeEndGaps) {
  // Read contained in a longer reference: all matches, no gap penalty.
  auto q = enc("ACGTAC");
  auto s = enc("TTTTACGTACTTTT");
  workspace ws;
  auto r = full_pass<align_kind::semiglobal>(ws, view(q), view(s),
                                             linear_gap{-1},
                                             simple_scoring{2, -1});
  EXPECT_EQ(r.score, 12);
  EXPECT_EQ(r.q_aligned, "ACGTAC");
  EXPECT_EQ(r.s_begin, 4);
  EXPECT_EQ(r.s_end, 10);
}

TEST(FullEngineSemiglobal, OverlapAlignment) {
  // Suffix of q overlaps prefix of s.
  auto q = enc("GGGGACGT");
  auto s = enc("ACGTCCCC");
  workspace ws;
  auto r = full_pass<align_kind::semiglobal>(ws, view(q), view(s),
                                             linear_gap{-1},
                                             simple_scoring{2, -1});
  EXPECT_EQ(r.score, 8);
  EXPECT_EQ(r.q_begin, 4);
  EXPECT_EQ(r.s_begin, 0);
}

TEST(FullEngineExtension, AnchoredAtOrigin) {
  // Extension must start at (0,0): prefix match then it may stop.
  auto q = enc("ACGTTTTT");
  auto s = enc("ACGAAAA");
  workspace ws;
  auto r = full_pass<align_kind::extension>(ws, view(q), view(s),
                                            linear_gap{-2},
                                            simple_scoring{2, -2});
  EXPECT_EQ(r.score, 6);  // "ACG" prefix
  EXPECT_EQ(r.q_begin, 0);
  EXPECT_EQ(r.s_begin, 0);
  EXPECT_EQ(r.q_end, 3);
  EXPECT_EQ(r.s_end, 3);
}

TEST(FullEngineTraceback, RescoreReproducesScoreLinear) {
  workspace ws;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto q = test::random_codes(30 + seed, seed * 3 + 1);
    auto s = test::mutate(q, seed * 7 + 2);
    auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                           simple_scoring{2, -1});
    const score_t re = rescore_alignment(
        r.q_aligned, r.s_aligned,
        [](char a, char b) { return a == b ? 2 : -1; }, linear_gap{-1});
    EXPECT_EQ(re, r.score) << "seed " << seed;
  }
}

TEST(FullEngineTraceback, RescoreReproducesScoreAffine) {
  workspace ws;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto q = test::random_codes(25 + seed, seed + 11);
    auto s = test::mutate(q, seed + 12, 0.1, 0.08);
    auto r = full_pass<align_kind::global>(ws, view(q), view(s),
                                           affine_gap{-3, -1},
                                           simple_scoring{2, -1});
    const score_t re = rescore_alignment(
        r.q_aligned, r.s_aligned,
        [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-3, -1});
    EXPECT_EQ(re, r.score) << "seed " << seed;
  }
}

TEST(FullEngineTraceback, AlignedStringsConsistentWithInputs) {
  auto q = test::random_codes(40, 5);
  auto s = test::mutate(q, 6);
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s),
                                         affine_gap{-2, -1},
                                         simple_scoring{2, -1});
  // Stripping gaps must reproduce the inputs exactly.
  std::string q_plain, s_plain;
  for (char c : r.q_aligned)
    if (c != '-') q_plain.push_back(c);
  for (char c : r.s_aligned)
    if (c != '-') s_plain.push_back(c);
  EXPECT_EQ(q_plain, dna_decode_all(q));
  EXPECT_EQ(s_plain, dna_decode_all(s));
}

TEST(FullEngineTraceback, LocalRegionRescores) {
  workspace ws;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto q = test::random_codes(50, seed + 100);
    auto s = test::random_codes(45, seed + 200);
    auto r = full_pass<align_kind::local>(ws, view(q), view(s),
                                          affine_gap{-4, -1},
                                          simple_scoring{3, -2});
    const score_t re = rescore_alignment(
        r.q_aligned, r.s_aligned,
        [](char a, char b) { return a == b ? 3 : -2; }, affine_gap{-4, -1});
    EXPECT_EQ(re, r.score) << "seed " << seed;
    // Region bounds consistent with emitted strings.
    std::size_t q_chars = 0, s_chars = 0;
    for (char c : r.q_aligned)
      if (c != '-') ++q_chars;
    for (char c : r.s_aligned)
      if (c != '-') ++s_chars;
    EXPECT_EQ(static_cast<index_t>(q_chars), r.q_end - r.q_begin);
    EXPECT_EQ(static_cast<index_t>(s_chars), r.s_end - r.s_begin);
  }
}

TEST(FullEngine, CellsCounterIsNM) {
  auto q = test::random_codes(13, 1), s = test::random_codes(17, 2);
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                         simple_scoring{2, -1});
  EXPECT_EQ(r.cells, 13u * 17u);
}

TEST(FullEngine, MatrixScoringPath) {
  auto q = enc("ACGT"), s = enc("ACGT");
  const auto m = dna_matrix_scoring::uniform(2, -1);
  workspace ws;
  auto r = full_pass<align_kind::global>(ws, view(q), view(s), linear_gap{-1},
                                         m);
  EXPECT_EQ(r.score, 8);
}

}  // namespace
}  // namespace anyseq
