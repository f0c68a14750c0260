/// Tests for the per-variant engine namespaces (docs/DESIGN.md §5).
///
/// The build compiles the whole lane-dependent engine stack once per
/// variant inside anyseq::v_scalar / v_avx2 / v_avx512 (one
/// `ANYSEQ_TARGET` per variant TU, simd/targets.hpp); the `engine::ops`
/// tables are the only boundary.  These tests assert the tables report
/// the expected {lanes, native, name} triple, that the three variants are
/// physically distinct code (no shared entry points), and — via the
/// `variant` stamp written *inside* each namespace — that dispatch,
/// including the align_batch traceback path, really executes the
/// selected variant.
/// The archive-level half of the contract (no engine symbol outside its
/// variant namespace) is checked by scripts/check_symbol_isolation.sh,
/// registered as the `symbol_isolation` ctest.

#include "anyseq/engine_table.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "anyseq/anyseq.hpp"
#include "simd/detect.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

struct variant_case {
  const engine::ops* table;
  int lanes;
  bool native;
  const char* name;
  backend exec;
};

std::vector<variant_case> variants() {
  return {
      {&engine::ops_x1(), 1, true, "scalar", backend::scalar},
      {&engine::ops_x16(), 16, simd::avx2_native_build(), "avx2",
       backend::simd_avx2},
      {&engine::ops_x32(), 32, simd::avx512_native_build(), "avx512",
       backend::simd_avx512},
  };
}

bool runnable(const variant_case& v) {
  return simd::lanes_runnable(v.lanes, simd::detect());
}

TEST(Isolation, OpsTablesReportExpectedTriples) {
  for (const auto& v : variants()) {
    EXPECT_EQ(v.table->lanes, v.lanes) << v.name;
    EXPECT_EQ(v.table->native, v.native) << v.name;
    EXPECT_STREQ(v.table->name, v.name);
  }
}

/// Function-pointer fields of engine::ops, all compared below.  A new
/// entry trips the static_assert until it is listed here.
#define ANYSEQ_OPS_ENTRIES(X)                                           \
  X(ws_create) X(ws_destroy) X(ws_shrink) X(ws_capacity) X(ws_reserve) \
  X(plan_bytes) X(plan_tile) X(align) X(align_batch) X(banded_align)
#define ANYSEQ_COUNT_ENTRY(field) +1
static_assert(sizeof(engine::ops) ==
                  offsetof(engine::ops, ws_create) +
                      (0 ANYSEQ_OPS_ENTRIES(ANYSEQ_COUNT_ENTRY)) *
                          sizeof(void (*)()),
              "engine::ops gained an entry: add it to ANYSEQ_OPS_ENTRIES");

TEST(Isolation, VariantsAreDistinctCode) {
  // Namespace cloning gives every variant its own copy of every entry
  // point; if two tables shared a function pointer, two variants would be
  // linked to one instantiation — the COMDAT collapse the refactor
  // forbids.
  const auto vs = variants();
  for (std::size_t a = 0; a < vs.size(); ++a) {
    for (std::size_t b = a + 1; b < vs.size(); ++b) {
      const engine::ops& x = *vs[a].table;
      const engine::ops& y = *vs[b].table;
#define ANYSEQ_EXPECT_DISTINCT(field)                     \
  EXPECT_NE(x.field, y.field) << #field << ": " << x.name \
                              << " / " << y.name;
      ANYSEQ_OPS_ENTRIES(ANYSEQ_EXPECT_DISTINCT)
#undef ANYSEQ_EXPECT_DISTINCT
    }
  }
}

TEST(Isolation, AlignStampsTheDispatchedVariant) {
  for (const auto& v : variants()) {
    if (!runnable(v)) continue;
    align_options opt;
    opt.exec = v.exec;

    auto r = align_strings("ACGTACGTTGCA", "ACGTCGTTACGCA", opt);
    EXPECT_STREQ(r.variant, v.name) << "score path";

    opt.want_alignment = true;
    r = align_strings("ACGTACGTTGCA", "ACGTCGTTACGCA", opt);
    EXPECT_STREQ(r.variant, v.name) << "traceback path";
    EXPECT_TRUE(r.has_alignment);
  }
}

TEST(Isolation, BackendNameMatchesDispatch) {
  align_options opt;
  const auto r = align_strings("ACGTACGT", "ACGTCGT", opt);
  EXPECT_STREQ(backend_name(opt), r.variant);
  for (const auto& v : variants()) {
    if (!runnable(v)) continue;
    opt.exec = v.exec;
    EXPECT_STREQ(backend_name(opt), v.name);
  }
}

/// The acceptance-criterion scenario: align_batch with traceback must
/// route through the selected variant (it used to pin a baseline
/// Lanes=1 batch engine), and its results must agree with the scalar
/// variant and carry valid tracebacks.
TEST(Isolation, BatchTracebackExecutesSelectedVariant) {
  std::vector<std::vector<char_t>> qs, ss;
  std::vector<seq_pair> pairs;
  for (std::size_t i = 0; i < 33; ++i) {
    qs.push_back(test::random_codes(60, i + 1));
    ss.push_back(test::random_codes(60, i + 101));
  }
  for (std::size_t i = 0; i < qs.size(); ++i)
    pairs.push_back({test::view(qs[i]), test::view(ss[i])});

  align_options scalar_opt;
  scalar_opt.exec = backend::scalar;
  scalar_opt.want_alignment = true;
  scalar_opt.gap_open = -2;
  const auto ref = align_batch(pairs, scalar_opt);
  ASSERT_EQ(ref.size(), pairs.size());

  for (const auto& v : variants()) {
    if (!runnable(v)) continue;
    align_options opt = scalar_opt;
    opt.exec = v.exec;
    const auto got = align_batch(pairs, opt);
    ASSERT_EQ(got.size(), pairs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_STREQ(got[i].variant, v.name) << "pair " << i;
      EXPECT_TRUE(got[i].has_alignment) << "pair " << i;
      EXPECT_EQ(got[i].score, ref[i].score) << "pair " << i;
      const score_t re = rescore_alignment(
          got[i].q_aligned, got[i].s_aligned,
          [](char a, char b) { return a == b ? 2 : -1; }, affine_gap{-2, -1});
      EXPECT_EQ(re, got[i].score) << "pair " << i;
    }
  }
}

TEST(Isolation, BatchScoresStampTheVariant) {
  std::vector<std::vector<char_t>> qs;
  std::vector<seq_pair> pairs;
  for (std::size_t i = 0; i < 16; ++i) qs.push_back(test::random_codes(40, i));
  for (auto& q : qs) pairs.push_back({test::view(q), test::view(q)});
  for (const auto& v : variants()) {
    if (!runnable(v)) continue;
    align_options opt;
    opt.exec = v.exec;
    const auto got = align_batch(pairs, opt);
    for (const auto& r : got) {
      EXPECT_STREQ(r.variant, v.name);
      EXPECT_EQ(r.score, 80);  // self-alignment, all matches
    }
  }
}

TEST(Isolation, BandedAlignDispatchesPerVariant) {
  auto q = test::random_codes(300, 7);
  auto s = test::mutate(q, 8);
  align_options ref_opt;
  ref_opt.exec = backend::scalar;
  const auto full = align(test::view(q), test::view(s), ref_opt);

  const band b = band::around_main(
      static_cast<index_t>(q.size()), static_cast<index_t>(s.size()), 48);
  for (const auto& v : variants()) {
    if (!runnable(v)) continue;
    align_options opt;
    opt.exec = v.exec;
    const auto r = align_banded(test::view(q), test::view(s), b, opt);
    EXPECT_STREQ(r.variant, v.name);
    // A generous band contains the unrestricted optimum.
    EXPECT_EQ(r.score, full.score) << v.name;
  }
}

}  // namespace
}  // namespace anyseq
