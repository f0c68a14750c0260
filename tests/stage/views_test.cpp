#include "stage/views.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/alphabet.hpp"

namespace anyseq::stage {
namespace {

TEST(SeqView, BasicAccess) {
  auto codes = dna_encode_all("ACGT");
  seq_view v(codes.data(), 4);
  EXPECT_EQ(v.size(), 4);
  EXPECT_EQ(v[0], dna_a);
  EXPECT_EQ(v[3], dna_t);
}

TEST(SeqView, SubView) {
  auto codes = dna_encode_all("ACGTACGT");
  seq_view v(codes.data(), 8);
  auto s = v.sub(2, 6);
  EXPECT_EQ(s.size(), 4);
  EXPECT_EQ(s[0], dna_g);
  EXPECT_EQ(s[3], dna_c);
}

TEST(RevView, ReversesIndexing) {
  auto codes = dna_encode_all("ACGT");
  rev_view r(seq_view{codes.data(), 4});
  EXPECT_EQ(r.size(), 4);
  EXPECT_EQ(r[0], dna_t);
  EXPECT_EQ(r[3], dna_a);
}

TEST(RevView, SubViewInReversedCoordinates) {
  auto codes = dna_encode_all("ACGTAA");
  rev_view r(seq_view{codes.data(), 6});  // AATGCA
  auto s = r.sub(1, 4);                   // ATG
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s[0], dna_a);
  EXPECT_EQ(s[1], dna_t);
  EXPECT_EQ(s[2], dna_g);
}

TEST(RevView, DoubleReverseIsIdentity) {
  auto codes = dna_encode_all("ACGTN");
  seq_view v(codes.data(), 5);
  rev_view r(v);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(r[4 - i], v[i]);
}

TEST(MatrixView, ReadWrite) {
  std::vector<score_t> buf(12, 0);
  matrix_view<score_t> m(buf.data(), 3, 4);
  m.write(1, 2, 42);
  EXPECT_EQ(m.read(1, 2), 42);
  EXPECT_EQ(buf[1 * 4 + 2], 42);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
}

TEST(TileCount, RoundsUp) {
  EXPECT_EQ(tile_count(10, 4), 3);
  EXPECT_EQ(tile_count(8, 4), 2);
  EXPECT_EQ(tile_count(1, 100), 1);
  EXPECT_EQ(tile_count(0, 4), 0);
}

}  // namespace
}  // namespace anyseq::stage
