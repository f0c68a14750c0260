/// Tests for the telemetry primitives behind the serving tier's
/// observability surface: the log-linear latency histogram's bucket
/// math, its nearest-rank quantiles (p50/p90/p99/p99.9) with their edge
/// cases, its exact bucket-wise merge, the execution-accounting table,
/// and the text_buffer snprintf sizing contract — plus the shard-merge
/// discipline checked against a whole-population oracle.
///
/// Every quantile is checked by exact equality against a sort-based
/// nearest-rank oracle: the histogram must report the upper edge of the
/// bucket that holds the oracle's sample.

#include "service/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "service/metrics.hpp"

namespace anyseq::service {
namespace {

// ---------------------------------------------------------------------
// Reference oracle: sort-based nearest rank over the raw samples
// ---------------------------------------------------------------------

struct oracle_percentiles {
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  std::uint64_t samples = 0;
};

/// Nearest-rank p50/p90/p99/p99.9: the ceil(num/den * n)-th smallest
/// sample (exact rationals, zeros when empty).
oracle_percentiles nearest_rank_percentiles(std::vector<std::uint64_t> v) {
  oracle_percentiles out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto rank = [&](std::size_t num, std::size_t den) {
    const std::size_t r = (num * v.size() + den - 1) / den;
    return v[std::max<std::size_t>(1, r) - 1];
  };
  out.p50 = rank(50, 100);
  out.p90 = rank(90, 100);
  out.p99 = rank(99, 100);
  out.p999 = rank(999, 1000);
  return out;
}

/// Upper edge of the log-linear bucket holding `ns`.
std::uint64_t edge(std::uint64_t ns) {
  return latency_histogram::bucket_upper_ns(latency_histogram::bucket_of(ns));
}

histogram_snapshot histogram_of(const std::vector<std::uint64_t>& v) {
  latency_histogram h;
  for (const auto ns : v) h.record(ns);
  return h.snapshot();
}

/// The histogram's four quantiles and count equal the bucket edges of
/// the oracle's samples — exactly.
void expect_matches_oracle(const histogram_snapshot& h,
                           const std::vector<std::uint64_t>& population) {
  const auto want = nearest_rank_percentiles(population);
  EXPECT_EQ(h.quantile_ns(50, 100), edge(want.p50));
  EXPECT_EQ(h.quantile_ns(90, 100), edge(want.p90));
  EXPECT_EQ(h.quantile_ns(99, 100), edge(want.p99));
  EXPECT_EQ(h.quantile_ns(999, 1000), edge(want.p999));
  EXPECT_EQ(h.count, want.samples);
}

// ---------------------------------------------------------------------
// Nearest-rank quantiles of the histogram
// ---------------------------------------------------------------------

TEST(Percentiles, EmptyIsAllZero) {
  const histogram_snapshot h;
  EXPECT_EQ(h.quantile_ns(50, 100), 0u);
  EXPECT_EQ(h.quantile_ns(90, 100), 0u);
  EXPECT_EQ(h.quantile_ns(99, 100), 0u);
  EXPECT_EQ(h.quantile_ns(999, 1000), 0u);
  EXPECT_EQ(h.count, 0u);

  service_stats s;
  fill_latency_percentiles(s);
  EXPECT_EQ(s.p99_latency_ns, 0u);
  EXPECT_EQ(s.latency_samples, 0u);
}

TEST(Percentiles, SingleSampleIsEveryRank) {
  const std::vector<std::uint64_t> v = {42};
  const auto h = histogram_of(v);
  expect_matches_oracle(h, v);
  // Below 64 ns every value has its own bucket: the edge is the value.
  EXPECT_EQ(h.quantile_ns(50, 100), 42u);
  EXPECT_EQ(h.quantile_ns(999, 1000), 42u);
}

TEST(Percentiles, AllDuplicatesCollapse) {
  const std::vector<std::uint64_t> v(1000, 7);
  const auto h = histogram_of(v);
  expect_matches_oracle(h, v);
  EXPECT_EQ(h.quantile_ns(50, 100), 7u);
  EXPECT_EQ(h.quantile_ns(999, 1000), 7u);
}

TEST(Percentiles, KnownDistributionExactRanks) {
  // 1..1000: nearest-rank pX is the ceil(X/100 * 1000)-th smallest —
  // 500/900/990/999 — reported as the upper edge of its bucket.
  std::vector<std::uint64_t> v(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) v[i] = 1000 - i;  // unsorted
  const auto h = histogram_of(v);
  expect_matches_oracle(h, v);
  EXPECT_EQ(h.quantile_ns(50, 100), 503u);    // [496, 503]
  EXPECT_EQ(h.quantile_ns(90, 100), 911u);    // [896, 911]
  EXPECT_EQ(h.quantile_ns(99, 100), 991u);    // [976, 991]
  EXPECT_EQ(h.quantile_ns(999, 1000), 1007u); // [992, 1007]
}

TEST(Percentiles, SmallSampleRanksCeil) {
  // n = 3: rank(p) = ceil(p * 3); p50 -> 2nd, p90/p99/p999 -> 3rd.
  const std::vector<std::uint64_t> v = {30, 10, 20};
  const auto h = histogram_of(v);
  expect_matches_oracle(h, v);
  EXPECT_EQ(h.quantile_ns(50, 100), 20u);
  EXPECT_EQ(h.quantile_ns(90, 100), 30u);
  EXPECT_EQ(h.quantile_ns(99, 100), 30u);
  EXPECT_EQ(h.quantile_ns(999, 1000), 30u);
}

TEST(Percentiles, P999NeedsThousandSamplesToLeaveMax) {
  // Below 1000 samples p99.9's nearest rank is the maximum; at exactly
  // 1000 samples it is the 999th.  One outlier above 998 (then 999)
  // duplicates shows the threshold on exact sub-64 ns buckets.
  std::vector<std::uint64_t> small(998, 10);
  small.push_back(50);
  EXPECT_EQ(histogram_of(small).quantile_ns(999, 1000), 50u);
  std::vector<std::uint64_t> full(999, 10);
  full.push_back(50);
  EXPECT_EQ(histogram_of(full).quantile_ns(999, 1000), 10u);

  // Distinct values, against the oracle: 1..999 and 1..2000.
  std::vector<std::uint64_t> distinct(999);
  for (std::uint64_t i = 0; i < 999; ++i) distinct[i] = i + 1;
  expect_matches_oracle(histogram_of(distinct), distinct);
  distinct.resize(2000);
  for (std::uint64_t i = 0; i < 2000; ++i) distinct[i] = i + 1;
  const auto h = histogram_of(distinct);
  expect_matches_oracle(h, distinct);
  EXPECT_EQ(h.quantile_ns(999, 1000), edge(1998));  // ceil(.999*2000)
}

/// The histogram ranks every completion: on a random population it
/// agrees exactly with the oracle, and each quantile stays within 1/32
/// of the oracle's sample.
TEST(Percentiles, HistogramMatchesOracleOverEverySample) {
  std::vector<std::uint64_t> all;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 3000; ++i) all.push_back(rng() % 1'000'000);
  const auto h = histogram_of(all);
  expect_matches_oracle(h, all);
  const auto want = nearest_rank_percentiles(all);
  for (const auto& [got, exact] :
       {std::pair{h.quantile_ns(50, 100), want.p50},
        std::pair{h.quantile_ns(999, 1000), want.p999}}) {
    EXPECT_GE(got, exact);
    EXPECT_LE((got - exact) * 32, exact);
  }
}

/// The shard-merge discipline: summing the histograms of several shards
/// bucket-wise and ranking the merge gives exactly the whole-population
/// answer, which NO combination of per-shard percentiles can reproduce
/// on a skewed split.
TEST(Percentiles, ShardMergeMatchesWholePopulationOracle) {
  // Shard 0 gets the slow tail, shards 1-3 the fast bulk — the worst
  // case for any "average the p99s" shortcut.
  latency_histogram shard[4];
  std::vector<std::uint64_t> population;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 900; ++i) {
    const std::uint64_t slow = 1'000'000 + rng() % 9'000'000;
    shard[0].record(slow);
    population.push_back(slow);
  }
  for (int s = 1; s < 4; ++s)
    for (int i = 0; i < 900; ++i) {
      const std::uint64_t fast = 1'000 + rng() % 9'000;
      shard[s].record(fast);
      population.push_back(fast);
    }

  histogram_snapshot merged;
  for (auto& h : shard) merged.merge(h.snapshot());
  expect_matches_oracle(merged, population);
  EXPECT_EQ(merged.count, population.size());

  // And the naive combination really is wrong here: every per-shard p50
  // is far from the pooled p50's regime boundary.
  std::uint64_t mean_p50 = 0;
  for (auto& h : shard) mean_p50 += h.snapshot().quantile_ns(50, 100);
  mean_p50 /= 4;
  EXPECT_NE(mean_p50, merged.quantile_ns(50, 100));
}

/// fill_latency_percentiles: each class ranks its own histogram, the
/// top-level figures rank the bucket-wise merge of both classes.
TEST(Percentiles, FillRanksEachClassAndTheirMerge) {
  std::vector<std::uint64_t> cls[n_request_classes], all;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 400; ++i) cls[0].push_back(500 + rng() % 5'000);
  for (int i = 0; i < 1300; ++i) cls[1].push_back(40'000 + rng() % 900'000);
  service_stats s;
  for (std::size_t c = 0; c < n_request_classes; ++c) {
    s.per_class[c].latency_hist = histogram_of(cls[c]);
    all.insert(all.end(), cls[c].begin(), cls[c].end());
  }
  fill_latency_percentiles(s);
  const auto check = [](const auto& st, const std::vector<std::uint64_t>& v) {
    const auto want = nearest_rank_percentiles(v);
    EXPECT_EQ(st.p50_latency_ns, edge(want.p50));
    EXPECT_EQ(st.p90_latency_ns, edge(want.p90));
    EXPECT_EQ(st.p99_latency_ns, edge(want.p99));
    EXPECT_EQ(st.p999_latency_ns, edge(want.p999));
    EXPECT_EQ(st.latency_samples, want.samples);
  };
  check(s.per_class[0], cls[0]);
  check(s.per_class[1], cls[1]);
  check(s, all);
}

// ---------------------------------------------------------------------
// log-linear latency histogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, BucketMath) {
  EXPECT_EQ(n_latency_buckets, 1408u);
  // Values below 32 ns are exact: one bucket per value.
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(latency_histogram::bucket_of(v), v);
    EXPECT_EQ(latency_histogram::bucket_lower_ns(v), v);
    EXPECT_EQ(latency_histogram::bucket_upper_ns(v), v);
  }
  // Every bucket's bounds round-trip, buckets tile the range without
  // gaps, and a bucket is at most 1/32 of its lower bound wide.
  for (std::size_t i = 0; i < n_latency_buckets; ++i) {
    const std::uint64_t lo = latency_histogram::bucket_lower_ns(i);
    const std::uint64_t hi = latency_histogram::bucket_upper_ns(i);
    ASSERT_LE(lo, hi) << i;
    EXPECT_EQ(latency_histogram::bucket_of(lo), i);
    EXPECT_EQ(latency_histogram::bucket_of(hi), i);
    if (i + 1 < n_latency_buckets) {
      EXPECT_EQ(latency_histogram::bucket_lower_ns(i + 1), hi + 1) << i;
    }
    if (lo >= 32) {
      EXPECT_LE((hi - lo + 1) * 32, lo) << i;
    }
  }
  // The octave edges are the old log2 `le` values 2^(o+1) - 1: each is
  // the upper edge of a bucket, and the next value opens a new octave.
  for (std::size_t o = 0; o < n_latency_octaves; ++o) {
    const std::uint64_t le = (std::uint64_t{2} << o) - 1;
    EXPECT_EQ(edge(le), le) << o;
    EXPECT_EQ(std::bit_width(le + 1) - 1, static_cast<int>(o) + 1) << o;
  }
  EXPECT_EQ(latency_histogram::bucket_upper_ns(n_latency_buckets - 1),
            (std::uint64_t{1} << 48) - 1);
  // Saturates at the top bucket instead of indexing out of range.
  EXPECT_EQ(latency_histogram::bucket_of(std::uint64_t{1} << 48),
            n_latency_buckets - 1);
  EXPECT_EQ(latency_histogram::bucket_of(~std::uint64_t{0}),
            n_latency_buckets - 1);
}

TEST(LatencyHistogram, RecordAndSnapshot) {
  latency_histogram h;
  const auto empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.sum_ns, 0u);

  h.record(1);     // exact bucket 1
  h.record(1000);  // [992, 1007]
  h.record(1000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum_ns, 2001u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[latency_histogram::bucket_of(1000)], 2u);
  std::uint64_t total = 0;
  for (const auto b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST(LatencyHistogram, MergeIsExactBucketwiseSum) {
  // Split one sample stream across two histograms; the merge must be
  // byte-identical to a single histogram that saw everything (this is
  // the property the shard merge relies on — histograms lose nothing).
  latency_histogram a, b, whole;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t ns = rng() % (1u << 30);
    (i % 3 == 0 ? a : b).record(ns);
    whole.record(ns);
  }
  histogram_snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  // add_to, the service's stripe merge, sums in place to the same.
  histogram_snapshot added;
  a.add_to(added);
  b.add_to(added);
  const auto want = whole.snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum_ns, want.sum_ns);
  EXPECT_EQ(added.count, want.count);
  EXPECT_EQ(added.sum_ns, want.sum_ns);
  for (std::size_t i = 0; i < n_latency_buckets; ++i) {
    EXPECT_EQ(merged.buckets[i], want.buckets[i]) << "bucket " << i;
    EXPECT_EQ(added.buckets[i], want.buckets[i]) << "bucket " << i;
  }
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  latency_histogram h;
  h.record(123);
  auto s = h.snapshot();
  s.merge(histogram_snapshot{});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum_ns, 123u);

  histogram_snapshot empty;
  empty.merge(h.snapshot());
  EXPECT_EQ(empty.count, 1u);
  EXPECT_EQ(empty.sum_ns, 123u);
}

// ---------------------------------------------------------------------
// execution accounting
// ---------------------------------------------------------------------

TEST(ExecSnapshot, MergeAndGcups) {
  exec_snapshot a, b;
  a.at[0][1] = {10, 1'000'000, 500'000};  // 1e6 cells in 0.5 ms -> 2 GCUPS
  b.at[0][1] = {5, 500'000, 250'000};
  b.at[2][0] = {1, 100, 100};
  a.merge(b);
  EXPECT_EQ(a.at[0][1].requests, 15u);
  EXPECT_EQ(a.at[0][1].cells, 1'500'000u);
  EXPECT_EQ(a.at[0][1].ns, 750'000u);
  EXPECT_EQ(a.at[2][0].requests, 1u);
  EXPECT_NEAR(a.total_gcups(), (1'500'000.0 + 100.0) / (750'000.0 + 100.0),
              1e-12);
}

TEST(ExecSnapshot, NamesAndVariantIndex) {
  EXPECT_STREQ(exec_route_name(0), "batch_score");
  EXPECT_STREQ(exec_route_name(1), "batch_traceback");
  EXPECT_STREQ(exec_route_name(2), "solo");
  EXPECT_EQ(exec_variant_index("scalar"), 0u);
  EXPECT_EQ(exec_variant_index("avx2"), 1u);
  EXPECT_EQ(exec_variant_index("avx512"), 2u);
  EXPECT_EQ(exec_variant_index("something_else"), 3u);
  EXPECT_EQ(exec_variant_index(nullptr), 3u);
  EXPECT_STREQ(exec_variant_name(3), "other");
}

// ---------------------------------------------------------------------
// text_buffer sizing contract
// ---------------------------------------------------------------------

TEST(TextBuffer, NullBufferCountsOnly) {
  text_buffer tb(nullptr, 0);
  tb.printf("hello %d", 42);
  EXPECT_EQ(tb.needed(), 8u);
}

TEST(TextBuffer, WritesWhatFitsAndCountsEverything) {
  char buf[8];
  text_buffer tb(buf, sizeof(buf));
  tb.printf("0123456789");  // needs 10, fits 7 + NUL
  EXPECT_EQ(tb.needed(), 10u);
  EXPECT_STREQ(buf, "0123456");

  // Further appends past capacity keep counting, never write.
  tb.printf("abc");
  EXPECT_EQ(tb.needed(), 13u);
  EXPECT_STREQ(buf, "0123456");
}

TEST(TextBuffer, TwoCallSizingRoundTrip) {
  text_buffer probe(nullptr, 0);
  probe.printf("a=%d b=%s\n", 7, "xyz");
  std::vector<char> buf(probe.needed() + 1);
  text_buffer out(buf.data(), buf.size());
  out.printf("a=%d b=%s\n", 7, "xyz");
  EXPECT_EQ(out.needed(), probe.needed());
  EXPECT_STREQ(buf.data(), "a=7 b=xyz\n");
}

// ---------------------------------------------------------------------
// Prometheus rendering sanity (full-contract checks live in
// scripts/check_observability.py; this guards the C++-visible parts)
// ---------------------------------------------------------------------

TEST(RenderPrometheus, HistogramSeriesAreCumulativeAndInfEqualsCount) {
  service_stats s;
  s.accepted = 3;
  s.completed = 3;
  auto& cls = s.per_class[0];
  cls.completed = 3;
  latency_histogram h;
  h.record(800);        // octave 9
  h.record(70'000);     // octave 16
  h.record(2'000'000);  // octave 20
  cls.latency_hist = h.snapshot();

  text_buffer probe(nullptr, 0);
  render_prometheus(s, probe);
  std::vector<char> buf(probe.needed() + 1);
  text_buffer out(buf.data(), buf.size());
  render_prometheus(s, out);
  const std::string text(buf.data());

  EXPECT_NE(text.find("anyseq_requests_total{class=\"interactive\","
                      "outcome=\"completed\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("anyseq_request_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("anyseq_request_latency_seconds_count"
                      "{class=\"interactive\"} 3\n"),
            std::string::npos);
  // Sum is in seconds.
  EXPECT_NE(text.find("anyseq_request_latency_seconds_sum"
                      "{class=\"interactive\"} 0.002070800\n"),
            std::string::npos);
}

/// The `_bucket` series are the plain log2 histogram's: one line per
/// octave edge le = 2^(o+1) - 1 ns carrying the cumulative count at or
/// below it, byte for byte, whatever the sub-bucket resolution inside.
TEST(RenderPrometheus, BucketSeriesMatchPlainLog2Histogram) {
  service_stats s;
  latency_histogram h;
  std::uint64_t log2_counts[n_latency_octaves] = {};
  std::mt19937_64 rng(3);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t ns = rng() >> (rng() % 64);  // every octave
    h.record(ns);
    const int w = std::bit_width(ns);
    ++log2_counts[std::min<std::size_t>(w == 0 ? 0 : w - 1,
                                        n_latency_octaves - 1)];
  }
  s.per_class[1].latency_hist = h.snapshot();

  text_buffer probe(nullptr, 0);
  render_prometheus(s, probe);
  std::vector<char> buf(probe.needed() + 1);
  text_buffer out(buf.data(), buf.size());
  render_prometheus(s, out);
  const std::string text(buf.data());

  std::string want;
  std::uint64_t cumulative = 0;
  for (std::size_t o = 0; o < n_latency_octaves; ++o) {
    cumulative += log2_counts[o];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "anyseq_request_latency_seconds_bucket{class=\"bulk\","
                  "le=\"%.16g\"} %llu\n",
                  static_cast<double>((std::uint64_t{2} << o) - 1) * 1e-9,
                  static_cast<unsigned long long>(cumulative));
    want += line;
  }
  want += "anyseq_request_latency_seconds_bucket{class=\"bulk\","
          "le=\"+Inf\"} 4000\n";
  EXPECT_NE(text.find(want), std::string::npos);
}

}  // namespace
}  // namespace anyseq::service
