#include "bio/read_sim.hpp"

#include <gtest/gtest.h>

#include "bio/random.hpp"
#include "core/errors.hpp"
#include "core/full_engine.hpp"
#include "core/scoring.hpp"

namespace anyseq::bio {
namespace {

sequence make_ref(index_t len, std::uint64_t seed) {
  genome_params p;
  p.length = len;
  p.repeat_rate = 0;
  p.seed = seed;
  return random_genome("ref", p);
}

TEST(ReadSim, ProducesRequestedCountAndLength) {
  auto ref = make_ref(20000, 1);
  read_sim_params p;
  auto reads = simulate_reads(ref, 50, p);
  ASSERT_EQ(reads.size(), 50u);
  for (const auto& r : reads) {
    EXPECT_EQ(r.read.size(), p.read_length);
    EXPECT_EQ(static_cast<index_t>(r.quality.size()), p.read_length);
  }
}

TEST(ReadSim, Deterministic) {
  auto ref = make_ref(20000, 2);
  read_sim_params p;
  auto a = simulate_reads(ref, 10, p);
  auto b = simulate_reads(ref, 10, p);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(a[i].read.codes(), b[i].read.codes());
}

TEST(ReadSim, ErrorFreeReadsMatchReferenceExactly) {
  auto ref = make_ref(20000, 3);
  read_sim_params p;
  p.sub_rate_begin = p.sub_rate_end = 0.0;
  p.indel_rate = 0.0;
  auto reads = simulate_reads(ref, 20, p);
  for (const auto& r : reads) {
    EXPECT_EQ(r.n_errors, 0);
    for (index_t k = 0; k < p.read_length; ++k)
      ASSERT_EQ(r.read[k], ref[r.origin + k]) << "read " << r.read.name();
  }
}

TEST(ReadSim, ErrorRateScalesWithParams) {
  auto ref = make_ref(50000, 4);
  read_sim_params lo, hi;
  lo.sub_rate_begin = lo.sub_rate_end = 0.001;
  lo.indel_rate = 0;
  hi.sub_rate_begin = hi.sub_rate_end = 0.05;
  hi.indel_rate = 0;
  hi.seed = lo.seed;
  auto rl = simulate_reads(ref, 200, lo);
  auto rh = simulate_reads(ref, 200, hi);
  auto total = [](const std::vector<simulated_read>& v) {
    int t = 0;
    for (const auto& r : v) t += r.n_errors;
    return t;
  };
  EXPECT_LT(total(rl), total(rh));
}

TEST(ReadSim, RejectsTooShortReference) {
  auto ref = make_ref(100, 5);
  read_sim_params p;  // read_length 150 > reference
  EXPECT_THROW(simulate_reads(ref, 1, p), invalid_argument_error);
}

TEST(ReadSim, PairsAlignWellToEachOther) {
  // Both mates come from the same locus with small error rates, so their
  // global alignment score should be close to the all-match maximum.
  auto ref = make_ref(30000, 6);
  read_sim_params p;
  auto pairs = simulate_read_pairs(ref, 10, p);
  ASSERT_EQ(pairs.size(), 10u);
  full_engine<align_kind::global, linear_gap, simple_scoring> eng(
      linear_gap{-1}, simple_scoring{2, -1});
  workspace ws;
  alignment_result r;
  for (const auto& pr : pairs) {
    eng.align_into(pr.first.view(), pr.second.view(), false, ws, r);
    EXPECT_GT(r.score, 2 * 150 * 3 / 4) << pr.first.name();
  }
}

TEST(ReadSim, FastqConversionConsistent) {
  auto ref = make_ref(20000, 7);
  auto reads = simulate_reads(ref, 5, {});
  auto fq = to_fastq(reads);
  ASSERT_EQ(fq.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fq[i].seq.size(), reads[i].read.size());
    EXPECT_EQ(fq[i].quality, reads[i].quality);
  }
}

TEST(ReadSim, QualityReflectsPositionDependentErrors) {
  auto ref = make_ref(20000, 8);
  read_sim_params p;  // default Illumina-shaped ramp
  auto reads = simulate_reads(ref, 50, p);
  // Average quality near the 5' end should exceed the 3' end.
  double q_begin = 0, q_end = 0;
  for (const auto& r : reads) {
    q_begin += r.quality[5];
    q_end += r.quality[static_cast<std::size_t>(p.read_length) - 5];
  }
  EXPECT_GT(q_begin, q_end);
}

}  // namespace
}  // namespace anyseq::bio
