// Band-doubling global traceback (core/banded.hpp: doubling_global_into):
// a randomized oracle against full_align<global> through every public
// traceback entry — align, aligner::align_into, align_batch at 1 and 2
// threads — on every compiled variant, plus the hand-built tie case
// that pins the bound's strictness.

#include "core/banded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "anyseq/option_dispatch.hpp"
#include "core/full_engine.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

using test::view;

/// One scoring set of the sweep.
struct scheme {
  const char* name;
  align_options opt;
};

align_options base_opts(score_t match, score_t mismatch, score_t open,
                        score_t extend) {
  align_options o;
  o.kind = align_kind::global;
  o.want_alignment = true;
  o.match = match;
  o.mismatch = mismatch;
  o.gap_open = open;
  o.gap_extend = extend;
  o.threads = 1;
  return o;
}

std::vector<scheme> schemes() {
  align_options matrix = base_opts(0, 0, -5, -2);
  matrix.matrix = dna_default_matrix();
  return {{"linear", base_opts(2, -1, 0, -1)},
          {"affine", base_opts(2, -1, -2, -1)},
          {"affine_1_3_5_2", base_opts(1, -3, -5, -2)},
          {"matrix", matrix}};
}

/// The reference: the full-matrix engine under the same options.
alignment_result reference(const std::vector<char_t>& q,
                           const std::vector<char_t>& s,
                           const align_options& o) {
  return with_gap(o, [&](auto gap) {
    return with_scoring(o, [&](const auto& scoring) {
      return full_align<align_kind::global>(view(q), view(s), gap, scoring);
    });
  });
}

void expect_same(const alignment_result& got, const alignment_result& want,
                 const std::string& where) {
  EXPECT_EQ(got.score, want.score) << where;
  EXPECT_EQ(got.cigar, want.cigar) << where;
  EXPECT_EQ(got.q_aligned, want.q_aligned) << where;
  EXPECT_EQ(got.s_aligned, want.s_aligned) << where;
  EXPECT_EQ(got.q_begin, want.q_begin) << where;
  EXPECT_EQ(got.s_begin, want.s_begin) << where;
  EXPECT_EQ(got.q_end, want.q_end) << where;
  EXPECT_EQ(got.s_end, want.s_end) << where;
  EXPECT_EQ(got.cells, want.cells) << where;
  EXPECT_TRUE(got.has_alignment) << where;
}

std::vector<backend> compiled_backends() {
  std::vector<backend> out{backend::scalar, backend::auto_select};
  if (test::backend_runnable(backend::simd_avx2))
    out.push_back(backend::simd_avx2);
  if (test::backend_runnable(backend::simd_avx512))
    out.push_back(backend::simd_avx512);
  return out;
}

/// A read pair: a 165 bp template, the mate a lightly mutated copy, each
/// trimmed independently to 135..165 bp from random ends.
std::pair<std::vector<char_t>, std::vector<char_t>> trimmed_read_pair(
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> len(135, 165);
  const auto base = test::random_codes(165, seed);
  const auto mate = test::mutate(base, seed + 1, 0.01, 0.004);
  auto trim = [&](const std::vector<char_t>& v) {
    const auto n = static_cast<std::size_t>(
        std::min<int>(len(rng), static_cast<int>(v.size())));
    std::uniform_int_distribution<std::size_t> off(0, v.size() - n);
    const std::size_t o = off(rng);
    return std::vector<char_t>(v.begin() + static_cast<std::ptrdiff_t>(o),
                               v.begin() + static_cast<std::ptrdiff_t>(o + n));
  };
  return {trim(base), trim(mate)};
}

/// A copy of `src` with `d` random codes spliced in a third of the way
/// along: a pair of the two runs off the main diagonal by d.
std::vector<char_t> with_block(std::vector<char_t> src, std::size_t d,
                               std::uint64_t seed) {
  const auto block = test::random_codes(d, seed);
  src.insert(src.begin() + static_cast<std::ptrdiff_t>(src.size() / 3),
             block.begin(), block.end());
  return src;
}

/// The sweep's pairs: trimmed reads, 15% and 35% edits, unrelated pairs
/// (which force doubling and the full-matrix fallback), n or m = 1,
/// pairs skewed by 20..70 bases, reads with runs of N, and the int16
/// window's edge.
std::vector<std::pair<std::vector<char_t>, std::vector<char_t>>>
oracle_pairs() {
  std::vector<std::pair<std::vector<char_t>, std::vector<char_t>>> out;
  for (std::uint64_t k = 0; k < 12; ++k) out.push_back(trimmed_read_pair(k));
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto q = test::random_codes(100 + 7 * k, 1000 + k);
    out.emplace_back(q, test::mutate(q, 2000 + k, 0.10, 0.05));  // ~15%
    out.emplace_back(q, test::mutate(q, 3000 + k, 0.25, 0.10));  // ~35%
    out.emplace_back(q, test::random_codes(90 + 9 * k, 4000 + k));
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto one = test::random_codes(1, 5000 + k);
    const auto other = test::random_codes(1 + 13 * k, 6000 + k);
    out.emplace_back(one, other);
    out.emplace_back(other, one);
  }
  // |m - n| = 20..70 both ways round, at ~1%, ~6% and ~14% edits: an
  // anti-diagonal of the band spans two or more packs on 16 and 32
  // lanes, and the edited pairs certify only at radius 16, 32 or 64.
  const double sub[] = {0.01, 0.04, 0.08}, indel[] = {0.0, 0.01, 0.03};
  for (std::uint64_t k = 0; k < 6; ++k) {
    const auto q = test::random_codes(300 + 20 * k, 8000 + k);
    const auto s = with_block(test::mutate(q, 8100 + k, sub[k % 3],
                                           indel[k % 3]),
                              20 + 10 * k, 8200 + k);
    out.emplace_back(q, s);
    out.emplace_back(s, q);
  }
  // Reads with runs of N: N against N is a match under simple scoring
  // and scores 0 under the matrix.
  for (std::uint64_t k = 0; k < 2; ++k) {
    auto q = test::random_codes(150, 8300 + k);
    auto s = test::mutate(q, 8400 + k, 0.02, 0.01);
    std::fill_n(q.begin() + 40, 12 + 6 * k, dna_n);
    std::fill_n(s.begin() + 90, 8, dna_n);
    out.emplace_back(q, s);
  }
  // The int16 window's edge at unit 7 (affine_1_3_5_2 and matrix, whose
  // open + extend is -7): (n + m + 2) * 7 < 28000 admits n + m = 3997 on
  // int16 lanes; n + m = 3998 runs on int32 lanes.
  const auto edge = test::random_codes(1999, 8500);
  const auto edge_mate = test::mutate(edge, 8501, 0.02, 0.0);
  out.emplace_back(std::vector<char_t>(edge.begin(), edge.end() - 1),
                   edge_mate);
  out.emplace_back(edge, edge_mate);
  return out;
}

TEST(BandDoubling, OracleMatchesFullMatrixOnEveryRoute) {
  const auto pairs = oracle_pairs();
  std::vector<seq_pair> batch;
  for (const auto& [q, s] : pairs) batch.push_back({view(q), view(s)});

  for (const scheme& sc : schemes()) {
    std::vector<alignment_result> want;
    for (const auto& [q, s] : pairs) want.push_back(reference(q, s, sc.opt));

    for (const backend b : compiled_backends()) {
      align_options o = sc.opt;
      o.exec = b;
      const std::string tag =
          std::string(sc.name) + "/" + to_string(b) + " pair ";
      aligner a(o);
      alignment_result reused;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& [q, s] = pairs[i];
        expect_same(align(view(q), view(s), o), want[i],
                    tag + std::to_string(i) + " align");
        a.align_into(view(q), view(s), reused);
        expect_same(reused, want[i],
                    tag + std::to_string(i) + " align_into");
      }
      for (const int threads : {1, 2}) {
        o.threads = threads;
        aligner ab(o);
        const auto got = ab.align_batch(batch);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          expect_same(got[i], want[i],
                      tag + std::to_string(i) + " align_batch threads=" +
                          std::to_string(threads));
        // Every pair is either certified in a band or ran the full
        // matrix; each certified pair ran at least one band pass, and
        // the unrelated pairs force fallbacks.
        const batch_stats st = ab.last_batch_stats();
        EXPECT_GT(st.banded_pairs, 0u) << tag;
        EXPECT_LT(st.banded_pairs, batch.size()) << tag;
        EXPECT_GE(st.band_passes, st.banded_pairs) << tag;
        EXPECT_EQ(st.scalar_pairs + st.simd_pairs, 0u) << tag;
      }
    }
  }
}

TEST(BandDoubling, SoloTracebacksReportTheirPasses) {
  // A solo full-matrix traceback is a one-pair traceback batch, so
  // last_batch_stats() counts its band doubling; each call starts at 0.
  const auto q = test::random_codes(150, 7200);
  const auto near = test::mutate(q, 7201, 0.02, 0.0);
  const auto unrelated = test::random_codes(150, 7202);
  for (const int threads : {1, 4}) {
    align_options o = base_opts(2, -1, -2, -1);
    o.threads = threads;
    aligner a(o);
    ASSERT_STREQ(a.plan(150, 150).route, "full_matrix");
    alignment_result out;
    a.align_into(view(q), view(near), out);
    EXPECT_EQ(a.last_batch_stats().banded_pairs, 1u);
    EXPECT_EQ(a.last_batch_stats().band_passes, 1u);
    a.align_into(view(q), view(unrelated), out);
    EXPECT_EQ(a.last_batch_stats().banded_pairs, 0u);
    EXPECT_GE(a.last_batch_stats().band_passes, 1u);
    o.kind = align_kind::local;  // no band doubling off the global kind
    a.set_options(o);
    a.align_into(view(q), view(near), out);
    EXPECT_EQ(a.last_batch_stats().banded_pairs, 0u);
    EXPECT_EQ(a.last_batch_stats().band_passes, 0u);
  }
}

TEST(BandDoubling, SimilarReadsCertifyInTheFirstBand) {
  workspace ws;
  alignment_result out;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto q = test::random_codes(150, 7000 + k);
    const auto s = test::mutate(q, 7100 + k, 0.02, 0.0);  // substitutions
    ws.begin_pass();
    const doubling_result d = doubling_global_into(
        view(q), view(s), test::paper_affine, test::paper_scoring, ws, out);
    EXPECT_TRUE(d.certified) << k;
    EXPECT_EQ(d.passes, 1) << k;
    EXPECT_EQ(out.cells, 150u * s.size()) << k;  // n*m, like the full matrix
  }
}

TEST(BandDoubling, FallsBackWhereTheBoundCannotHelp) {
  workspace ws;
  alignment_result out;
  const auto q = test::random_codes(150, 11);
  const auto one = test::random_codes(1, 12);
  // n == 1: the first band already spans more than half the matrix.
  EXPECT_FALSE(doubling_global_into(view(one), view(q), test::paper_affine,
                                    test::paper_scoring, ws, out)
                   .certified);
  // Empty sequences and negative best substitution scores never run.
  const std::vector<char_t> empty;
  EXPECT_EQ(doubling_global_into(view(empty), view(q), test::paper_affine,
                                 test::paper_scoring, ws, out)
                .passes,
            0);
  EXPECT_EQ(doubling_global_into(view(q), view(q), test::paper_affine,
                                 simple_scoring{-1, -2}, ws, out)
                .passes,
            0);
  // Unrelated 150 bp pairs double until the band would pass half the
  // matrix, then hand the pair back to full_engine.
  const auto r = test::random_codes(150, 13);
  const doubling_result d = doubling_global_into(
      view(q), view(r), test::paper_affine, test::paper_scoring, ws, out);
  EXPECT_FALSE(d.certified);
  EXPECT_GE(d.passes, 2);
}

TEST(BandDoubling, ExactTieWithAnOutOfBandPathDoesNotCertify) {
  // q = A^80, s = C^9 A^71 under match +1, mismatch -5, linear gap -1.
  // The radius-8 band (diagonals -8..8) holds a path scoring 53
  // (interleaved C insertions and A deletions); the out-of-band path —
  // 9 insertions, 71 matches, 9 deletions, touching diagonal 9 — scores
  // 53 as well, exactly the bound U(9) = (160-18)/2 - 18.  Full-matrix
  // traceback prefers the diagonal, then the deletion, and walks that
  // out-of-band path, so certifying the radius-8 band on a tie (>=
  // instead of >) returns a different CIGAR.  The strict bound doubles
  // to radius 16 instead.
  const std::vector<char_t> q(80, 0);
  std::vector<char_t> s(9, 1);
  s.insert(s.end(), 71, 0);
  const simple_scoring sc{1, -5};
  const linear_gap gap{-1};

  const auto full = full_align<align_kind::global>(view(q), view(s), gap, sc);
  ASSERT_EQ(full.score, 53);
  const band first = band::around_main(80, 80, kDoublingRadius);
  ASSERT_EQ(banded_global_score(view(q), view(s), gap, sc, first), 53);
  const auto in_band = banded_global(view(q), view(s), gap, sc, first);
  ASSERT_NE(in_band.cigar, full.cigar) << "the tie must be observable";

  workspace ws;
  alignment_result out;
  const doubling_result d =
      doubling_global_into(view(q), view(s), gap, sc, ws, out);
  EXPECT_TRUE(d.certified);
  EXPECT_EQ(d.passes, 2);
  EXPECT_EQ(out.score, full.score);
  EXPECT_EQ(out.cigar, full.cigar);
  EXPECT_EQ(out.q_aligned, full.q_aligned);
  EXPECT_EQ(out.s_aligned, full.s_aligned);

  align_options o = base_opts(1, -5, 0, -1);
  for (const backend b : compiled_backends()) {
    o.exec = b;
    expect_same(align(view(q), view(s), o), full, to_string(b));
  }
}

}  // namespace
}  // namespace anyseq
