#include "bio/datasets.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "core/full_engine.hpp"
#include "core/scoring.hpp"

namespace anyseq::bio {
namespace {

TEST(Datasets, Table1HasSixEntriesMatchingPaper) {
  const auto& specs = table1_specs();
  EXPECT_EQ(specs.size(), 6u);
  EXPECT_STREQ(specs[0].accession, "NC_000962.3");
  EXPECT_EQ(specs[0].full_length, 4411532u);
  EXPECT_STREQ(specs[5].accession, "NC_019478.1");
  EXPECT_EQ(specs[5].full_length, 50073674u);
}

TEST(Datasets, PairsCoverSimilarLengthGenomes) {
  for (const auto& pr : table1_pairs()) {
    const auto& a = table1_specs()[static_cast<std::size_t>(pr.first)];
    const auto& b = table1_specs()[static_cast<std::size_t>(pr.second)];
    const double ratio = static_cast<double>(a.full_length) /
                         static_cast<double>(b.full_length);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
  }
}

TEST(Datasets, SurrogateScalesLength) {
  const auto& spec = table1_specs()[0];
  auto s = make_surrogate(spec, 64);
  EXPECT_EQ(s.size(), static_cast<index_t>(spec.full_length / 64));
}

TEST(Datasets, SurrogateMatchesGc) {
  const auto& spec = table1_specs()[0];  // M. tuberculosis, GC ~0.656
  auto s = make_surrogate(spec, 16);
  EXPECT_NEAR(s.gc_content(), spec.gc, 0.02);
}

TEST(Datasets, SurrogateDeterministic) {
  const auto& spec = table1_specs()[2];
  auto a = make_surrogate(spec, 256, 9);
  auto b = make_surrogate(spec, 256, 9);
  EXPECT_EQ(a.codes(), b.codes());
}

TEST(Datasets, SurrogateRejectsZeroScale) {
  EXPECT_THROW(make_surrogate(table1_specs()[0], 0), invalid_argument_error);
}

TEST(Datasets, MakePairLengthsMatchScaledAccessions) {
  auto pr = make_pair(0, 64);
  const auto& sa = table1_specs()[0];
  const auto& sb = table1_specs()[1];
  EXPECT_EQ(pr.a.size(), static_cast<index_t>(sa.full_length / 64));
  EXPECT_EQ(pr.b.size(), static_cast<index_t>(sb.full_length / 64));
}

TEST(Datasets, MakePairSharesHomologousCore) {
  // The pair must be alignable: a window of `a` semiglobally aligned into
  // the corresponding neighbourhood of `b` should score far above what
  // unrelated random DNA achieves (indels shift coordinates, so positional
  // identity is not a valid measure — alignment is).
  auto pr = make_pair(0, 256);
  const index_t w = 800;
  const index_t pos = pr.a.size() / 3;
  auto qv = pr.a.view().sub(pos, pos + w);
  const index_t lo = std::max<index_t>(0, pos - 2000);
  const index_t hi = std::min(pr.b.size(), pos + w + 2000);
  auto sv = pr.b.view().sub(lo, hi);
  full_engine<align_kind::semiglobal, linear_gap, simple_scoring> eng(
      linear_gap{-1}, simple_scoring{2, -1});
  workspace ws;
  alignment_result hom, rnd;
  eng.align_into(qv, sv, false, ws, hom);
  // Unrelated locus for comparison (same query, far-away subject window).
  auto far = pr.b.view().sub(0, hi - lo);
  eng.align_into(qv, far, false, ws, rnd);
  EXPECT_GT(hom.score, w);          // > 50% of the all-match maximum (2w)
  EXPECT_GT(hom.score, rnd.score);  // and clearly better than background
}

TEST(Datasets, MakePairRejectsBadIndex) {
  EXPECT_THROW(make_pair(3, 64), invalid_argument_error);
  EXPECT_THROW(make_pair(-1, 64), invalid_argument_error);
}

}  // namespace
}  // namespace anyseq::bio
