#include "fpgasim/systolic.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace anyseq::fpgasim {
namespace {

using test::view;

template <align_kind K, class Gap>
void fpga_matches_reference(index_t n, index_t m, const Gap& gap,
                            std::uint64_t seed, int kpe) {
  auto q = test::random_codes(n, seed);
  auto s = test::random_codes(m, seed + 13);
  const simple_scoring sc{2, -1};
  fpga_config cfg;
  cfg.kpe = kpe;
  const auto got = systolic_score<K>(view(q), view(s), gap, sc, cfg);
  workspace ws;
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  ASSERT_EQ(got.score, want.score)
      << to_string(K) << " kpe " << kpe << " seed " << seed;
}

TEST(Systolic, GlobalLinearBitExact) {
  for (int kpe : {1, 3, 16, 64, 128})
    fpga_matches_reference<align_kind::global>(150, 170, linear_gap{-1}, 1,
                                               kpe);
}

TEST(Systolic, GlobalAffineBitExact) {
  for (int kpe : {1, 7, 32, 256})
    fpga_matches_reference<align_kind::global>(130, 111, affine_gap{-2, -1},
                                               2, kpe);
}

TEST(Systolic, LocalBitExact) {
  for (int kpe : {4, 33})
    fpga_matches_reference<align_kind::local>(90, 120, affine_gap{-3, -1}, 3,
                                              kpe);
}

TEST(Systolic, SemiglobalBitExact) {
  for (int kpe : {8, 50})
    fpga_matches_reference<align_kind::semiglobal>(75, 140, linear_gap{-1},
                                                   4, kpe);
}

/// Score of one kind x gap x scoring against rolling_score, on a
/// homologous pair (even seeds) or an unrelated one (odd seeds), with a
/// K_PE that splits the query into stripes.
/// (The array reports no end cell: `fpga_result` is score-only.)
template <align_kind K, class Gap, class Scoring>
void fpga_matches_rolling(const Gap& gap, const Scoring& sc,
                          std::uint64_t seed, double n_rate = 0.0) {
  const auto q = test::random_codes(150, seed, n_rate);
  const auto s = seed % 2 == 0 ? test::mutate(q, seed + 1)
                                : test::random_codes(170, seed + 1, n_rate);
  fpga_config cfg;
  cfg.kpe = 48;
  const auto got = systolic_score<K>(view(q), view(s), gap, sc, cfg);
  workspace ws;
  const auto want = rolling_score<K>(view(q), view(s), gap, sc, ws);
  EXPECT_EQ(got.score, want.score) << to_string(K) << " seed " << seed;
}

template <align_kind K>
void fpga_matches_rolling_both_gaps(std::uint64_t seed) {
  fpga_matches_rolling<K>(linear_gap{-1}, simple_scoring{2, -1}, seed);
  fpga_matches_rolling<K>(affine_gap{-2, -1}, simple_scoring{2, -1}, seed);
}

TEST(Systolic, EveryKindAndGapModelMatchesRolling) {
  for (const std::uint64_t seed : {21, 22, 23}) {
    fpga_matches_rolling_both_gaps<align_kind::global>(seed);
    fpga_matches_rolling_both_gaps<align_kind::local>(seed);
    fpga_matches_rolling_both_gaps<align_kind::semiglobal>(seed);
  }
}

TEST(Systolic, DefaultMatrixMatchesRolling) {
  constexpr auto matrix = dna_default_matrix();
  const affine_gap gap{-4, -1};
  fpga_matches_rolling<align_kind::global>(gap, matrix, 31, 0.05);
  fpga_matches_rolling<align_kind::local>(gap, matrix, 32, 0.05);
  fpga_matches_rolling<align_kind::semiglobal>(gap, matrix, 33, 0.05);
}

TEST(Systolic, QueryShorterThanArray) {
  fpga_matches_reference<align_kind::global>(10, 200, affine_gap{-2, -1}, 5,
                                             128);
}

TEST(Systolic, QueryMultipleStripesExactBoundary) {
  // n an exact multiple of K_PE exercises full stripes only.
  fpga_matches_reference<align_kind::global>(96, 120, linear_gap{-1}, 6, 32);
}

TEST(Systolic, CycleCountMatchesSystolicFormula) {
  auto q = test::random_codes(64, 7);
  auto s = test::random_codes(100, 8);
  fpga_config cfg;
  cfg.kpe = 32;
  const auto r = systolic_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, cfg);
  // 2 stripes of 32 rows, each taking m + rows - 1 cycles.
  EXPECT_EQ(r.cycles, 2u * (100 + 32 - 1));
  EXPECT_EQ(r.cells, 6400u);
  EXPECT_GT(r.utilization, 0.7);
  EXPECT_LE(r.utilization, 1.0);
}

TEST(Systolic, GcupsApproachesPeakForLongSubject) {
  // Long subject amortizes the pipeline fill: GCUPS -> K_PE * f.
  auto q = test::random_codes(128, 9);
  auto s = test::random_codes(20000, 10);
  fpga_config cfg;  // 128 PEs at 187.5 MHz -> 24 GCUPS peak
  const auto r = systolic_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1}, cfg);
  EXPECT_GT(r.gcups, 20.0);   // the paper reports ~20 GCUPS
  EXPECT_LE(r.gcups, 24.01);  // cannot beat K_PE * f
}

TEST(Systolic, GapSchemeDoesNotChangeCycleCount) {
  // Paper §V: "The runtime is not affected by the gap penalty scheme as
  // the computation happens in a single clock-cycle nonetheless."
  auto q = test::random_codes(100, 11);
  auto s = test::random_codes(300, 12);
  const auto lin = systolic_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1});
  const auto aff = systolic_score<align_kind::global>(
      view(q), view(s), affine_gap{-2, -1}, simple_scoring{2, -1});
  EXPECT_EQ(lin.cycles, aff.cycles);
}

TEST(Systolic, EnergyEfficiencyBeatsCpuAndGpuSpecs) {
  // Table II shape: ZCU104 GCUPS/W is a multiple of the CPU's ~1.0 and
  // the GPU's ~0.76.
  auto q = test::random_codes(128, 13);
  auto s = test::random_codes(10000, 14);
  const auto r = systolic_score<align_kind::global>(
      view(q), view(s), linear_gap{-1}, simple_scoring{2, -1});
  EXPECT_GT(r.gcups_per_watt, 3.0);
}

TEST(Systolic, EmptyInputs) {
  std::vector<char_t> e;
  auto s = test::random_codes(5, 15);
  const auto r = systolic_score<align_kind::global>(
      view(e), view(s), linear_gap{-1}, simple_scoring{2, -1});
  EXPECT_EQ(r.score, -5);
  const auto r2 = systolic_score<align_kind::local>(
      view(e), view(e), linear_gap{-1}, simple_scoring{2, -1});
  EXPECT_EQ(r2.score, 0);
}

TEST(Systolic, RejectsBadConfig) {
  auto q = test::random_codes(4, 16);
  fpga_config cfg;
  cfg.kpe = 0;
  EXPECT_THROW((void)systolic_score<align_kind::global>(
                   view(q), view(q), linear_gap{-1}, simple_scoring{2, -1},
                   cfg),
               invalid_argument_error);
}

}  // namespace
}  // namespace anyseq::fpgasim
