/// Substitution-matrix scoring through every engine: the SIMD engines use
/// a per-lane gather (vlookup) instead of the compare/blend fast path, so
/// the matrix code path needs its own cross-backend equality sweep.

#include <gtest/gtest.h>

#include "anyseq/anyseq.hpp"
#include "baselines/naive.hpp"
#include "fpgasim/systolic.hpp"
#include "gpusim/gpu_engine.hpp"
#include "testutil.hpp"
#include "tiled/batch_engine.hpp"
#include "tiled/tiled_engine.hpp"

namespace anyseq {
namespace {

using test::view;

constexpr auto kMatrix = dna_default_matrix();
constexpr affine_gap kGap{-4, -1};

score_t oracle(const std::vector<char_t>& q, const std::vector<char_t>& s,
               align_kind k) {
  baselines::naive_params p;
  p.kind = k;
  p.gap_open = kGap.open();
  p.gap_extend = kGap.extend();
  p.subst_table = kMatrix.table.data();
  p.alphabet = dna_alphabet_size;
  return baselines::naive_score(q, s, p);
}

class MatrixKinds : public ::testing::TestWithParam<align_kind> {};

TEST_P(MatrixKinds, TiledSimdMatchesOracle) {
  const align_kind k = GetParam();
  auto q = test::random_codes(200, 1, /*n_rate=*/0.03);
  auto s = test::mutate(q, 2);
  const score_t want = oracle(q, s, k);
  auto run = [&](auto kc) {
    constexpr align_kind K = decltype(kc)::value;
    tiled::tiled_engine<K, affine_gap, dna_matrix_scoring, 16> eng(
        kGap, kMatrix, {48, 48, 2});
    workspace ws;
    return eng.score(view(q), view(s), ws).score;
  };
  score_t got = 0;
  switch (k) {
    case align_kind::global:
      got = run(std::integral_constant<align_kind, align_kind::global>{});
      break;
    case align_kind::local:
      got = run(std::integral_constant<align_kind, align_kind::local>{});
      break;
    case align_kind::semiglobal:
      got = run(std::integral_constant<align_kind, align_kind::semiglobal>{});
      break;
    default:
      GTEST_SKIP();
  }
  EXPECT_EQ(got, want) << to_string(k);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MatrixKinds,
                         ::testing::Values(align_kind::global,
                                           align_kind::local,
                                           align_kind::semiglobal),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MatrixScoringBackends, BatchSimdGatherMatchesOracle) {
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<tiled::pair_view> pairs;
  for (int i = 0; i < 40; ++i) {
    qs.push_back(test::random_codes(70, 100 + i, 0.02));
    ss.push_back(test::random_codes(70, 200 + i, 0.02));
  }
  for (int i = 0; i < 40; ++i) pairs.push_back({view(qs[i]), view(ss[i])});
  std::vector<workspace> workers(2);
  tiled::batch_engine<align_kind::global, affine_gap, dna_matrix_scoring, 16>
      eng(kGap, kMatrix, {2, score_precision::auto_select, workers});
  workspace ws;
  std::vector<score_result> got(pairs.size());
  eng.score_into(std::span<const tiled::pair_view>(pairs), ws,
                 std::span<score_result>(got));
  for (int i = 0; i < 40; ++i)
    ASSERT_EQ(got[i].score, oracle(qs[i], ss[i], align_kind::global)) << i;
  EXPECT_GT(eng.last_stats().simd_pairs, 0u);  // the gather path ran
}

TEST(MatrixScoringBackends, GpuSimMatchesOracle) {
  auto q = test::random_codes(150, 7, 0.02);
  auto s = test::mutate(q, 8);
  gpusim::device dev;
  gpusim::gpu_engine<align_kind::global, affine_gap, dna_matrix_scoring>
      eng(dev, kGap, kMatrix, {40, 40, 8});
  EXPECT_EQ(eng.score(view(q), view(s)).score,
            oracle(q, s, align_kind::global));
}

TEST(MatrixScoringBackends, FpgaSimMatchesOracle) {
  auto q = test::random_codes(90, 9, 0.02);
  auto s = test::random_codes(120, 10, 0.02);
  const auto r = fpgasim::systolic_score<align_kind::global>(
      view(q), view(s), kGap, kMatrix);
  EXPECT_EQ(r.score, oracle(q, s, align_kind::global));
}

TEST(MatrixScoringBackends, FacadeMatrixAcrossBackends) {
  auto q = test::random_codes(180, 11);
  auto s = test::mutate(q, 12);
  align_options opt;
  opt.matrix = kMatrix;
  opt.gap_open = kGap.open();
  opt.gap_extend = kGap.extend();
  opt.threads = 2;
  opt.tile = 64;
  const score_t want = oracle(q, s, align_kind::global);
  for (backend b : {backend::scalar, backend::simd_avx2,
                    backend::simd_avx512, backend::gpu_sim,
                    backend::fpga_sim}) {
    if (!test::backend_runnable(b)) continue;
    opt.exec = b;
    EXPECT_EQ(align(view(q), view(s), opt).score, want) << to_string(b);
  }
}

TEST(MatrixScoringBackends, NMatchesNeutrallyWithDefaultMatrix) {
  // dna_default_matrix scores N as 0 against everything: alignments over
  // N-rich regions should sit between all-match and all-mismatch.
  auto q = test::random_codes(50, 13, /*n_rate=*/1.0);  // all N
  align_options opt;
  opt.matrix = kMatrix;
  opt.gap_open = -4;
  const auto r = align(view(q), view(q), opt);
  EXPECT_EQ(r.score, 0);  // N vs N scores 0 per column
}

}  // namespace
}  // namespace anyseq
