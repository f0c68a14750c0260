#include "core/locate.hpp"

#include <gtest/gtest.h>

#include "core/full_engine.hpp"
#include "core/hirschberg.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

/// locate_align_into with the serial D&C engine as its global aligner,
/// every pass carved from `ws`.
template <align_kind K, class Gap>
alignment_result locate_pass(workspace& ws, stage::seq_view q,
                             stage::seq_view s, const Gap& gap) {
  const simple_scoring sc{2, -1};
  using lr = serial_last_row<Gap, simple_scoring>;
  hirschberg_engine<Gap, simple_scoring, lr> hir(gap, sc, lr{gap, sc});
  alignment_result out;
  locate_align_into<K>(
      q, s, gap, sc,
      [&](stage::seq_view subq, stage::seq_view subs, alignment_result& r) {
        hir.align_into(subq, subs, ws, r);
      },
      ws, out);
  return out;
}

template <align_kind K, class Gap>
void locate_matches_full(std::uint64_t seed, index_t nq, index_t ns,
                         const Gap& gap) {
  auto q = test::random_codes(nq, seed);
  auto s = test::random_codes(ns, seed + 77);
  const simple_scoring sc{2, -1};
  workspace ws;
  alignment_result want;
  full_engine<K, Gap, simple_scoring>(gap, sc).align_into(view(q), view(s),
                                                          true, ws, want);
  const auto got = locate_pass<K>(ws, view(q), view(s), gap);
  ASSERT_EQ(got.score, want.score) << to_string(K) << " seed " << seed;
  if (got.score > 0 || K == align_kind::semiglobal) {
    const score_t re = rescore_alignment(
        got.q_aligned, got.s_aligned,
        [](char a, char b) { return a == b ? 2 : -1; }, gap);
    EXPECT_EQ(re, got.score);
  }
}

TEST(Locate, LocalLinearRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    locate_matches_full<align_kind::local>(seed, 60, 55, linear_gap{-2});
}

TEST(Locate, LocalAffineRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    locate_matches_full<align_kind::local>(seed, 48, 62,
                                           affine_gap{-3, -1});
}

TEST(Locate, SemiglobalLinearRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    locate_matches_full<align_kind::semiglobal>(seed, 30, 90,
                                                linear_gap{-1});
}

TEST(Locate, SemiglobalAffineRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    locate_matches_full<align_kind::semiglobal>(seed, 90, 30,
                                                affine_gap{-2, -1});
}

TEST(Locate, LocalRegionCoordinatesConsistent) {
  auto q = test::random_codes(120, 5);
  auto s = test::mutate(q, 6);
  const affine_gap gap{-2, -1};
  workspace ws;
  const auto r = locate_pass<align_kind::local>(ws, view(q), view(s), gap);
  std::size_t q_chars = 0, s_chars = 0;
  for (char c : r.q_aligned)
    if (c != '-') ++q_chars;
  for (char c : r.s_aligned)
    if (c != '-') ++s_chars;
  EXPECT_EQ(static_cast<index_t>(q_chars), r.q_end - r.q_begin);
  EXPECT_EQ(static_cast<index_t>(s_chars), r.s_end - r.s_begin);
}

TEST(Locate, EmptyLocalOptimalAlignment) {
  auto q = dna_encode_all("AAAA");
  auto s = dna_encode_all("TTTT");
  const linear_gap gap{-1};
  workspace ws;
  const auto r = locate_pass<align_kind::local>(ws, view(q), view(s), gap);
  EXPECT_EQ(r.score, 0);
  EXPECT_TRUE(r.q_aligned.empty());
}

TEST(Locate, SemiglobalEmbeddedReadRecoversCoordinates) {
  auto ref = test::random_codes(500, 9);
  std::vector<char_t> read(ref.begin() + 100, ref.begin() + 250);
  const linear_gap gap{-1};
  workspace ws;
  const auto r = locate_pass<align_kind::semiglobal>(ws, view(read), view(ref),
                                                     gap);
  EXPECT_EQ(r.score, 300);
  EXPECT_EQ(r.s_begin, 100);
  EXPECT_EQ(r.s_end, 250);
  EXPECT_EQ(r.q_begin, 0);
  EXPECT_EQ(r.q_end, 150);
}

TEST(ExtensionBorderScore, MatchesBruteForceBorderMax) {
  // extension_border_score = max over last row/col of the global-init DP.
  auto q = test::random_codes(14, 11);
  auto s = test::random_codes(17, 12);
  const affine_gap gap{-2, -1};
  const simple_scoring sc{2, -1};
  workspace ws;
  const auto got = extension_border_score(view(q), view(s), gap, sc, ws);

  // Brute force via the full extension engine's H matrix.
  // (H is readable after the pass only from an arena reserved to it.)
  using full_t = full_engine<align_kind::extension, affine_gap, simple_scoring>;
  full_t eng(gap, sc);
  ws.reserve_bytes(full_t::plan_bytes(static_cast<index_t>(q.size()),
                                      static_cast<index_t>(s.size())));
  alignment_result full;
  eng.align_into(view(q), view(s), false, ws, full);
  auto hm = eng.h_matrix(static_cast<index_t>(q.size()),
                         static_cast<index_t>(s.size()));
  score_t want = neg_inf();
  for (index_t i = 0; i <= static_cast<index_t>(q.size()); ++i)
    want = std::max(want, hm.read(i, static_cast<index_t>(s.size())));
  for (index_t j = 0; j <= static_cast<index_t>(s.size()); ++j)
    want = std::max(want, hm.read(static_cast<index_t>(q.size()), j));
  EXPECT_EQ(got.score, want);
}

}  // namespace
}  // namespace anyseq
