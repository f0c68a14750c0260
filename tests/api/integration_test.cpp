/// End-to-end integration: bio data generation -> public API -> results,
/// across backends, mirroring how the examples and benchmarks compose the
/// library.

#include <gtest/gtest.h>

#include <sstream>

#include "anyseq/anyseq.hpp"
#include "bio/datasets.hpp"
#include "bio/fasta.hpp"
#include "bio/read_sim.hpp"
#include "testutil.hpp"

namespace anyseq {
namespace {

TEST(Integration, Table1PairThroughAllCpuBackends) {
  auto pr = bio::make_pair(0, 2048);  // ~2 kbp surrogates
  align_options opt;
  opt.threads = 2;
  opt.tile = 128;
  score_t reference = 0;
  bool first = true;
  for (backend b :
       {backend::scalar, backend::simd_avx2, backend::simd_avx512}) {
    if (!test::backend_runnable(b)) continue;
    opt.exec = b;
    const auto r = align(pr.a.view(), pr.b.view(), opt);
    if (first) {
      reference = r.score;
      first = false;
    } else {
      EXPECT_EQ(r.score, reference) << to_string(b);
    }
  }
  // Homologous pair: strongly positive global score.
  EXPECT_GT(reference, 0);
}

TEST(Integration, SimulatedReadsRoundTripThroughFastqAndBatch) {
  bio::genome_params gp;
  gp.length = 30000;
  gp.seed = 77;
  const auto ref = bio::random_genome("chr10_surrogate", gp);
  const auto reads = bio::simulate_reads(ref, 64, {});

  // FASTQ round trip.
  std::ostringstream out;
  bio::write_fastq(out, bio::to_fastq(reads));
  std::istringstream in(out.str());
  const auto back = bio::read_fastq(in);
  ASSERT_EQ(back.size(), 64u);

  // Align each read back to its origin window semiglobally.
  align_options opt;
  opt.kind = align_kind::semiglobal;
  opt.want_alignment = true;
  int well_aligned = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto& rd = reads[i];
    const index_t lo = std::max<index_t>(0, rd.origin - 20);
    const index_t hi =
        std::min<index_t>(ref.size(), rd.origin + rd.read.size() + 20);
    const auto r = align(rd.read.view(), ref.view().sub(lo, hi), opt);
    if (r.score > rd.read.size()) ++well_aligned;  // > 50% of max
  }
  EXPECT_GE(well_aligned, 14);
}

TEST(Integration, BatchPipelineAcrossBackends) {
  bio::genome_params gp;
  gp.length = 20000;
  gp.seed = 88;
  const auto ref = bio::random_genome("ref", gp);
  const auto pairs_data = bio::simulate_read_pairs(ref, 48, {});
  std::vector<seq_pair> pairs;
  for (const auto& p : pairs_data)
    pairs.push_back({p.first.view(), p.second.view()});

  align_options opt;
  opt.gap_open = -2;
  opt.threads = 2;
  std::vector<score_t> reference;
  for (backend b :
       {backend::scalar, backend::simd_avx2, backend::simd_avx512}) {
    if (!test::backend_runnable(b)) continue;
    opt.exec = b;
    const auto rs = align_batch(pairs, opt);
    ASSERT_EQ(rs.size(), pairs.size());
    if (reference.empty()) {
      for (const auto& r : rs) reference.push_back(r.score);
    } else {
      for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(rs[i].score, reference[i]) << to_string(b) << " " << i;
    }
  }
}

TEST(Integration, FastaToAlignmentPipeline) {
  std::istringstream in(">a\nACGTACGTACGT\n>b\nACGTCCGTACGT\n");
  const auto seqs = bio::read_fasta(in);
  ASSERT_EQ(seqs.size(), 2u);
  align_options opt;
  opt.want_alignment = true;
  const auto r = align(seqs[0].view(), seqs[1].view(), opt);
  EXPECT_EQ(r.score, 11 * 2 - 1);  // 11 matches, 1 mismatch
  EXPECT_EQ(r.cigar, "4=1X7=");
}

TEST(Integration, DeterministicAcrossRuns) {
  auto pr = bio::make_pair(1, 8192);
  align_options opt;
  opt.exec = test::backend_runnable(backend::simd_avx2)
                 ? backend::simd_avx2
                 : backend::scalar;
  opt.threads = 3;
  opt.tile = 96;
  const auto a = align(pr.a.view(), pr.b.view(), opt);
  const auto b = align(pr.a.view(), pr.b.view(), opt);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.cells, b.cells);
}

}  // namespace
}  // namespace anyseq
