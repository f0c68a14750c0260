#include "core/hirschberg.hpp"

#include <gtest/gtest.h>

#include "core/alphabet.hpp"
#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

/// The serial divide & conquer engine, carving from `ws`.
template <class Gap>
alignment_result hirschberg_pass(workspace& ws, stage::seq_view q,
                                 stage::seq_view s, const Gap& gap,
                                 const simple_scoring& sc,
                                 index_t base_cells = 1 << 14) {
  using lr = serial_last_row<Gap, simple_scoring>;
  hirschberg_engine<Gap, simple_scoring, lr> eng(gap, sc, lr{gap, sc},
                                                 {base_cells});
  alignment_result r;
  eng.align_into(q, s, ws, r);
  return r;
}

template <class Gap>
void check_hirschberg(const std::vector<char_t>& q,
                      const std::vector<char_t>& s, const Gap& gap,
                      index_t base_cells, const char* label) {
  const simple_scoring sc{2, -1};
  workspace ws;
  alignment_result full;
  full_engine<align_kind::global, Gap, simple_scoring>(gap, sc).align_into(
      view(q), view(s), true, ws, full);
  auto hir = hirschberg_pass(ws, view(q), view(s), gap, sc, base_cells);
  EXPECT_EQ(hir.score, full.score) << label;
  // The alignment itself may differ (co-optimal paths) but must re-score
  // to the optimum and reproduce the inputs when gaps are stripped.
  const score_t re = rescore_alignment(
      hir.q_aligned, hir.s_aligned,
      [&sc](char a, char b) {
        return sc.subst<score_t>(dna_encode(a), dna_encode(b));
      },
      gap);
  EXPECT_EQ(re, hir.score) << label;
  std::string qp, sp;
  for (char c : hir.q_aligned)
    if (c != '-') qp.push_back(c);
  for (char c : hir.s_aligned)
    if (c != '-') sp.push_back(c);
  EXPECT_EQ(qp, dna_decode_all(q)) << label;
  EXPECT_EQ(sp, dna_decode_all(s)) << label;
}

TEST(Hirschberg, RandomPairsLinear) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto q = test::random_codes(40 + seed * 3, seed);
    auto s = test::mutate(q, seed + 50);
    check_hirschberg(q, s, linear_gap{-1}, 1, "linear deep recursion");
  }
}

TEST(Hirschberg, RandomPairsAffine) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto q = test::random_codes(35 + seed * 2, seed + 7);
    auto s = test::mutate(q, seed + 70, 0.08, 0.06);
    check_hirschberg(q, s, affine_gap{-3, -1}, 1, "affine deep recursion");
  }
}

TEST(Hirschberg, CutoffValuesAllAgree) {
  auto q = test::random_codes(60, 1);
  auto s = test::mutate(q, 2, 0.1, 0.05);
  for (index_t cells : {index_t{1}, index_t{16}, index_t{256}, index_t{4096},
                        index_t{1} << 20}) {
    check_hirschberg(q, s, affine_gap{-2, -1}, cells, "cutoff sweep");
  }
}

TEST(Hirschberg, LongGapCrossingTheCut) {
  // A single long deletion spanning the middle row stresses the E-join.
  auto q = dna_encode_all("ACGTACGTAAAAAAAAAAAAAAAAACGTACGT");
  auto s = dna_encode_all("ACGTACGTACGTACGT");
  check_hirschberg(q, s, affine_gap{-10, -1}, 1, "gap crossing cut");
}

TEST(Hirschberg, GapAtColumnZero) {
  // Optimal path consumes no subject characters in the upper half: the
  // vertical gap crosses the cut at column 0 (the ee[0]=hh[0] boundary).
  auto q = dna_encode_all("TTTTTTTTAC");
  auto s = dna_encode_all("AC");
  check_hirschberg(q, s, affine_gap{-8, -1}, 1, "gap at column 0");
}

TEST(Hirschberg, GapAtLastColumn) {
  auto q = dna_encode_all("ACTTTTTTTT");
  auto s = dna_encode_all("AC");
  check_hirschberg(q, s, affine_gap{-8, -1}, 1, "gap at column m");
}

TEST(Hirschberg, DegenerateShapes) {
  const simple_scoring sc{2, -1};
  std::vector<char_t> empty;
  auto a = dna_encode_all("ACGT");
  // empty vs empty
  workspace ws;
  auto r0 = hirschberg_pass(ws, view(empty), view(empty), linear_gap{-1}, sc);
  EXPECT_EQ(r0.score, 0);
  // empty vs s
  auto r1 = hirschberg_pass(ws, view(empty), view(a), affine_gap{-2, -1}, sc);
  EXPECT_EQ(r1.score, -6);
  EXPECT_EQ(r1.s_aligned, "ACGT");
  EXPECT_EQ(r1.q_aligned, "----");
  // q vs empty
  auto r2 = hirschberg_pass(ws, view(a), view(empty), affine_gap{-2, -1}, sc);
  EXPECT_EQ(r2.score, -6);
  // single characters
  auto c = dna_encode_all("A"), g = dna_encode_all("G");
  auto r3 = hirschberg_pass(ws, view(c), view(g), linear_gap{-1}, sc);
  EXPECT_EQ(r3.score, -1);  // mismatch beats two gaps
}

TEST(Hirschberg, SingleRowBaseCase) {
  // n == 1 exercises base_single_row directly (base_cells = 0 would never
  // trigger; force via tiny base and 1-row query).
  auto q = dna_encode_all("G");
  auto s = dna_encode_all("AAGAA");
  const simple_scoring sc{2, -1};
  workspace ws;
  auto r = hirschberg_pass(ws, view(q), view(s), affine_gap{-2, -1}, sc, 1);
  alignment_result ref;
  full_engine<align_kind::global, affine_gap, simple_scoring>(
      affine_gap{-2, -1}, sc)
      .align_into(view(q), view(s), true, ws, ref);
  EXPECT_EQ(r.score, ref.score);
}

TEST(Hirschberg, CellsAtMostDoubled) {
  auto q = test::random_codes(100, 9);
  auto s = test::random_codes(90, 10);
  workspace ws;
  auto r = hirschberg_pass(ws, view(q), view(s), affine_gap{-2, -1},
                           simple_scoring{2, -1}, 64);
  EXPECT_LE(r.cells, 2u * 100u * 90u + 100u + 90u);
  EXPECT_GE(r.cells, 100u * 90u);  // at least one full sweep
}

TEST(Hirschberg, MatchesFullOnHomopolymers) {
  // Many co-optimal paths: scores must still agree.
  auto q = dna_encode_all("AAAAAAAAAA");
  auto s = dna_encode_all("AAAAA");
  check_hirschberg(q, s, linear_gap{-1}, 1, "homopolymer linear");
  check_hirschberg(q, s, affine_gap{-4, -1}, 1, "homopolymer affine");
}

TEST(Hirschberg, WideShortMatrix) {
  auto q = test::random_codes(4, 21);
  auto s = test::random_codes(200, 22);
  check_hirschberg(q, s, affine_gap{-2, -1}, 1, "wide short");
}

TEST(Hirschberg, TallNarrowMatrix) {
  auto q = test::random_codes(200, 23);
  auto s = test::random_codes(4, 24);
  check_hirschberg(q, s, affine_gap{-2, -1}, 1, "tall narrow");
}

}  // namespace
}  // namespace anyseq
