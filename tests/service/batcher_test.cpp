/// Unit tests for the pure coalescing policy (service/batcher.hpp):
/// route classification, option compatibility, and lane ordering — the
/// decisions that make batched results byte-identical to synchronous
/// align() calls.

#include "service/batcher.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace anyseq::service {
namespace {

TEST(BatcherRoutes, GlobalScoreOnlyBatches) {
  const align_options opt;  // defaults: global, score-only, auto backend
  EXPECT_EQ(classify(opt), route::batch_score);
}

TEST(BatcherRoutes, TracebackBatches) {
  align_options opt;
  opt.want_alignment = true;
  EXPECT_EQ(classify(opt), route::batch_traceback);
}

TEST(BatcherRoutes, CpuRequestsClassifyByWantAlignmentAlone) {
  // align_batch runs every pair on the route align picks for it, so no
  // kind, bound or precision keeps a CPU request out of a batch (the
  // sequences are not even an argument).
  for (const backend exec : {backend::scalar, backend::simd_avx2,
                             backend::simd_avx512, backend::auto_select})
    for (const align_kind k : test::all_kinds)
      for (const score_precision p :
           {score_precision::auto_select, score_precision::int32})
        for (const index_t bound : {index_t{0}, index_t{1} << 22})
          for (const bool traceback : {false, true}) {
            align_options opt;
            opt.exec = exec;
            opt.kind = k;
            opt.precision = p;
            opt.full_matrix_cells = bound;
            opt.want_alignment = traceback;
            EXPECT_EQ(classify(opt), traceback ? route::batch_traceback
                                               : route::batch_score)
                << to_string(exec) << " " << to_string(k) << " bound "
                << bound;
          }
}

TEST(BatcherRoutes, ForcedCpuBackendsBatch) {
  align_options opt;
  for (const backend exec : {backend::scalar, backend::simd_avx2,
                             backend::simd_avx512, backend::auto_select}) {
    opt.exec = exec;
    EXPECT_EQ(classify(opt), route::batch_score) << to_string(exec);
  }
}

TEST(BatcherCompat, IdenticalOptionsAreCompatible) {
  align_options a, b;
  EXPECT_TRUE(options_compatible(a, b));
}

TEST(BatcherCompat, EveryDispatchFieldIsABoundary) {
  const align_options base;
  const auto differs = [&](auto mutate) {
    align_options m = base;
    mutate(m);
    return !options_compatible(base, m) && !options_compatible(m, base);
  };
  EXPECT_TRUE(differs([](align_options& o) { o.kind = align_kind::local; }));
  EXPECT_TRUE(differs([](align_options& o) { o.want_alignment = true; }));
  EXPECT_TRUE(differs([](align_options& o) { o.match = 3; }));
  EXPECT_TRUE(differs([](align_options& o) { o.mismatch = -2; }));
  EXPECT_TRUE(differs([](align_options& o) { o.gap_open = -2; }));
  EXPECT_TRUE(differs([](align_options& o) { o.gap_extend = -3; }));
  EXPECT_TRUE(differs([](align_options& o) { o.exec = backend::scalar; }));
  EXPECT_TRUE(differs([](align_options& o) { o.threads = 2; }));
  EXPECT_TRUE(differs([](align_options& o) { o.tile = 128; }));
  EXPECT_TRUE(differs([](align_options& o) { o.full_matrix_cells = 64; }));
  EXPECT_TRUE(
      differs([](align_options& o) { o.matrix = dna_default_matrix(); }));
  EXPECT_TRUE(differs(
      [](align_options& o) { o.precision = score_precision::int32; }));
}

TEST(BatcherCompat, MatrixContentsMatter) {
  align_options a, b;
  a.matrix = dna_default_matrix();
  b.matrix = dna_default_matrix();
  EXPECT_TRUE(options_compatible(a, b));
  b.matrix->set(0, 0, 42);
  EXPECT_FALSE(options_compatible(a, b));
}

TEST(BatcherLaneOrder, GroupsBySizeThenKey) {
  // (q, s, key) triples: primary q length, then s length, then key.
  EXPECT_TRUE(lane_order_less(8, 8, 1, 16, 8, 0));
  EXPECT_FALSE(lane_order_less(16, 8, 0, 8, 8, 1));
  EXPECT_TRUE(lane_order_less(8, 4, 1, 8, 8, 0));
  EXPECT_TRUE(lane_order_less(8, 8, 0, 8, 8, 1));
  EXPECT_FALSE(lane_order_less(8, 8, 1, 8, 8, 1));  // irreflexive
}

TEST(BatcherLaneOrder, FullShapeSortFormsNearShapeRunsDeterministically) {
  // Sorting batch members with lane_order_less must order by the FULL
  // (|q|, |s|) shape: equal shapes become adjacent (uniform SIMD chunks)
  // and near-shapes become contiguous runs the lane-padding kernel can
  // admit as one chunk.  The key tie-break makes the result independent
  // of input order.
  struct member {
    index_t q, s;
    std::uint64_t key;
  };
  std::vector<member> in = {
      {150, 152, 7}, {148, 150, 3}, {150, 150, 5}, {148, 150, 1},
      {152, 148, 6}, {150, 150, 2}, {148, 152, 4}, {150, 152, 0},
  };
  const auto by_lane_order = [](const member& x, const member& y) {
    return lane_order_less(x.q, x.s, x.key, y.q, y.s, y.key);
  };
  auto sorted = in;
  std::sort(sorted.begin(), sorted.end(), by_lane_order);
  const std::vector<member> want = {
      {148, 150, 1}, {148, 150, 3}, {148, 152, 4}, {150, 150, 2},
      {150, 150, 5}, {150, 152, 0}, {150, 152, 7}, {152, 148, 6},
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sorted[i].q, want[i].q) << "slot " << i;
    EXPECT_EQ(sorted[i].s, want[i].s) << "slot " << i;
    EXPECT_EQ(sorted[i].key, want[i].key) << "slot " << i;
  }
  // Determinism: any input permutation sorts to the same sequence.
  std::reverse(in.begin(), in.end());
  std::sort(in.begin(), in.end(), by_lane_order);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(in[i].key, want[i].key) << "permuted slot " << i;
}

}  // namespace
}  // namespace anyseq::service
