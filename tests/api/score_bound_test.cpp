// The int32 score bound (validate_shape): every public entry rejects a
// pair whose worst-case score, (n + m + 2) * unit computed in int64,
// reaches int32_score_window(), with score_overflow_error before any
// work.  Uniform sequences at the bound have a closed-form score, so the
// last accepted shape must return it exactly — on every kind, score-only
// and with a traceback, through `align` and `align_batch` — and the next
// shape must throw.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

/// Match +2^20, mismatch and linear gap -2^20: every per-cell step is
/// 2^20, the `unit` of the bound.
constexpr std::int64_t kUnit = max_abs_score;

/// The longest n for which an n x n pair stays inside the window.
constexpr index_t kLastN = ((int32_score_window() - 1) / kUnit - 2) / 2;
static_assert((2 * kLastN + 2) * kUnit < int32_score_window());
static_assert((2 * (kLastN + 1) + 2) * kUnit >= int32_score_window());

align_options extreme(align_kind k, bool traceback, backend b) {
  align_options o;
  o.kind = k;
  o.want_alignment = traceback;
  o.match = max_abs_score;
  o.mismatch = -max_abs_score;
  o.gap_extend = -max_abs_score;
  o.exec = b;
  return o;
}

/// Global aligns A^n against C^n (n mismatches beat 2n gaps: -n * unit,
/// the negative extreme); the other kinds align A^n against A^n (n
/// matches: +n * unit, the positive extreme).
struct uniform_pair {
  std::vector<char_t> q, s;
  std::int64_t score;
};

uniform_pair at(align_kind k, index_t n) {
  const std::string a(static_cast<std::size_t>(n), 'A');
  const std::string c(static_cast<std::size_t>(n), 'C');
  if (k == align_kind::global)
    return {dna_encode_all(a), dna_encode_all(c), -n * kUnit};
  return {dna_encode_all(a), dna_encode_all(a), n * kUnit};
}

std::vector<backend> runnable_backends() {
  std::vector<backend> out;
  for (const backend b :
       {backend::scalar, backend::simd_avx2, backend::simd_avx512})
    if (test::backend_runnable(b)) out.push_back(b);
  return out;
}

TEST(ScoreBound, LastShapeInsideTheWindowIsExactAndTheNextThrows) {
  for (const backend b : runnable_backends())
    for (const align_kind k : test::all_kinds)
      for (const bool tb : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(b) << " " << to_string(k)
                     << (tb ? " traceback" : " score-only"));
        const align_options o = extreme(k, tb, b);
        const uniform_pair last = at(k, kLastN), next = at(k, kLastN + 1);
        EXPECT_EQ(align(view(last.q), view(last.s), o).score, last.score);
        try {
          (void)align(view(next.q), view(next.s), o);
          ADD_FAILURE() << "n = " << kLastN + 1 << " passed align";
        } catch (const score_overflow_error& e) {
          const std::string what = e.what();
          const std::string shape = std::to_string(kLastN + 1) + " x " +
                                    std::to_string(kLastN + 1);
          EXPECT_NE(what.find(shape), std::string::npos) << what;
          EXPECT_NE(what.find(std::to_string(int32_score_window())),
                    std::string::npos)
              << what;
        }

        // A batch checks every shape before any pair runs: three pairs
        // at the bound return the closed form on one and two threads,
        // and one pair past it rejects the whole batch.
        const std::vector<seq_pair> ok(3, {view(last.q), view(last.s)});
        for (const int threads : {1, 2}) {
          align_options bo = o;
          bo.threads = threads;
          aligner a(bo);
          std::vector<alignment_result> out;
          a.align_batch_into(ok, out);
          ASSERT_EQ(out.size(), ok.size());
          for (const alignment_result& r : out)
            EXPECT_EQ(r.score, last.score) << "threads " << threads;
          std::vector<seq_pair> bad = ok;
          bad.push_back({view(next.q), view(next.s)});
          std::vector<alignment_result> untouched;
          EXPECT_THROW(a.align_batch_into(bad, untouched),
                       score_overflow_error);
          EXPECT_TRUE(untouched.empty());
        }
      }
}

TEST(ScoreBound, OverflowReprosThrowTheTypedError) {
  // Shapes that returned wrapped scores before the bound: global A^n
  // against C^n at +-2^20 (n = 2100 and 4000), and A^2,200,000 against
  // "A" at the default scores with gap -1000.
  struct repro {
    std::size_t n, m;
    char s_char;
    align_options opt;
  };
  align_options gap1000;
  gap1000.gap_extend = -1000;
  const align_options huge = extreme(align_kind::global, false, {});
  for (const repro& r : {repro{2100, 2100, 'C', huge},
                         repro{4000, 4000, 'C', huge},
                         repro{2200000, 1, 'A', gap1000}}) {
    const auto q = dna_encode_all(std::string(r.n, 'A'));
    const auto s = dna_encode_all(std::string(r.m, r.s_char));
    for (const backend b : runnable_backends())
      for (const bool tb : {false, true}) {
        SCOPED_TRACE(::testing::Message() << to_string(b) << " n " << r.n
                                          << (tb ? " traceback" : ""));
        align_options o = r.opt;
        o.exec = b;
        o.want_alignment = tb;
        EXPECT_THROW((void)align(view(q), view(s), o), score_overflow_error);
        const std::vector<seq_pair> batch{{view(q), view(s)}};
        EXPECT_THROW((void)align_batch(batch, o), score_overflow_error);
      }
  }
}

TEST(ScoreBound, EmptySequencesStayAccepted) {
  const std::vector<char_t> empty;
  const auto a = dna_encode_all("ACGT");
  const align_options o = extreme(align_kind::global, true, {});
  EXPECT_EQ(align(view(empty), view(empty), o).score, 0);
  EXPECT_EQ(align(view(empty), view(a), o).score, -4 * kUnit);
  const std::vector<seq_pair> batch{{view(empty), view(a)},
                                    {view(a), view(empty)}};
  for (const alignment_result& r : align_batch(batch, o))
    EXPECT_EQ(r.score, -4 * kUnit);
}

}  // namespace
}  // namespace anyseq
