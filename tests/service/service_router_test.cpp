/// Tests for the sharded service router: byte-identity across shards,
/// the shared response cache serving hits across shard boundaries,
/// affinity + spill routing and the affinity hash's spread, and merged
/// telemetry (counters and latency histograms summed, percentiles ranked
/// on the merged histograms).

#include "service/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::mutate;
using test::random_codes;
using test::view;
using namespace std::chrono_literals;

void expect_identical(const alignment_result& got,
                      const alignment_result& want) {
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.q_begin, want.q_begin);
  EXPECT_EQ(got.q_end, want.q_end);
  EXPECT_EQ(got.s_begin, want.s_begin);
  EXPECT_EQ(got.s_end, want.s_end);
  EXPECT_EQ(got.q_aligned, want.q_aligned);
  EXPECT_EQ(got.s_aligned, want.s_aligned);
  EXPECT_EQ(got.cigar, want.cigar);
  EXPECT_EQ(got.has_alignment, want.has_alignment);
  EXPECT_EQ(got.cells, want.cells);
}

/// Every result from a multi-shard group is byte-identical to the
/// synchronous oracle, across score-only, traceback, and local routes.
TEST(ServiceRouter, ResultsByteIdenticalAcrossShards) {
  service_group::config cfg;
  cfg.shards = 4;
  cfg.cache_capacity = 128;
  service_group group(cfg);
  ASSERT_EQ(group.shard_count(), 4u);

  std::vector<align_options> opts(3);
  opts[1].want_alignment = true;
  opts[2].kind = align_kind::local;

  std::vector<ticket> ts;
  std::vector<alignment_result> want;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 24; ++i) {
    qs.push_back(random_codes(40 + 5 * i, 3000 + i));
    ss.push_back(mutate(qs.back(), 4000 + i));
    const auto& opt = opts[i % opts.size()];
    want.push_back(align(view(qs.back()), view(ss.back()), opt));
    ts.push_back(group.submit(view(qs.back()), view(ss.back()), opt));
  }
  for (std::size_t i = 0; i < ts.size(); ++i)
    expect_identical(ts[i].get(), want[i]);

  const auto st = group.stats();
  EXPECT_EQ(st.accepted, 24u);
  EXPECT_EQ(st.completed, 24u);
  // 24 distinct queries over 4 shards: affinity hashing spreads them.
  std::size_t shards_used = 0;
  for (std::size_t i = 0; i < group.shard_count(); ++i)
    shards_used += group.shard(i).stats().accepted > 0 ? 1 : 0;
  EXPECT_GE(shards_used, 2u);
}

/// The cache is shared: a result computed by one shard serves a hit
/// submitted directly to another shard.
TEST(ServiceRouter, SharedCacheServesHitsAcrossShards) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 64;
  service_group group(cfg);

  const auto q = random_codes(60, 31);
  const auto s = random_codes(60, 32);

  auto miss = group.shard(0).submit(view(q), view(s), {});
  const auto want = miss.get();
  auto hit = group.shard(1).submit(view(q), view(s), {});
  expect_identical(hit.get(), want);

  const auto st = group.stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(group.shard(1).stats().cache_hits, 1u);
}

/// Requests for one hot query spill off their home shard once its queue
/// runs deep: with spill_margin 0 both shards end up doing work, while
/// an effectively-infinite margin pins everything to the home shard.
TEST(ServiceRouter, SpillBalancesHotQueryAndAffinityPinsIt) {
  const auto q = random_codes(256, 33);  // one hot query: one home shard
  std::vector<std::vector<char_t>> subjects;
  for (int i = 0; i < 64; ++i) subjects.push_back(random_codes(256, 40 + i));
  // 256 x 2048 cells: past aligner::inline_cell_bound, so the batch it
  // leads goes to the pool instead of running on the batcher.
  const auto big = random_codes(2048, 39);

  const auto run = [&](std::size_t margin, bool hold_home) {
    service_group::config cfg;
    cfg.shards = 2;
    cfg.cache_capacity = 0;  // distinct subjects anyway; keep all misses
    cfg.spill_margin = margin;
    cfg.shard.max_batch = 4;
    cfg.shard.max_inflight_batches = 1;
    cfg.shard.max_linger = 2ms;  // let depth build on the home shard
    service_group group(cfg);
    std::vector<ticket> ts;
    // Keep the home shard busy through the flood: every pool worker
    // waits on `release`, so the pool batch the big pair leads holds the
    // shard's only workspace and its queue has to build, however the
    // host schedules the submitting thread and the batcher.
    std::promise<void> release;
    if (hold_home) {
      auto& pool = parallel::thread_pool::global();
      const std::shared_future<void> gate = release.get_future().share();
      for (int w = 0; w < pool.size(); ++w) pool.run([gate] { gate.wait(); });
      ts.push_back(group.submit(view(q), view(big), {}));
    }
    for (const auto& s : subjects)
      ts.push_back(group.submit(view(q), view(s), {}));
    if (hold_home) release.set_value();
    for (auto& t : ts) (void)t.get();
    std::vector<std::uint64_t> per_shard;
    for (std::size_t i = 0; i < group.shard_count(); ++i)
      per_shard.push_back(group.shard(i).stats().accepted);
    return per_shard;
  };

  // Margin 0: any imbalance spills.  The hot query floods its home
  // shard while its batcher waits for the held workspace, so the other
  // shard must receive spilled work.
  const auto spilled = run(0, true);
  EXPECT_GT(spilled[0], 0u);
  EXPECT_GT(spilled[1], 0u);

  // Effectively infinite margin: pure affinity, one shard owns the key.
  const auto pinned = run(1u << 20, false);
  EXPECT_TRUE((pinned[0] == 64 && pinned[1] == 0) ||
              (pinned[0] == 0 && pinned[1] == 64));
}

/// The affinity hash spreads distinct queries evenly: over 10k random
/// 150 bp reads, every home shard of a 2- or 4-shard group gets within
/// ±5% of an equal share.
TEST(ServiceRouter, AffinityHashSpreadsQueriesEvenly) {
  constexpr std::size_t reads = 10000;
  for (const std::size_t n : {2u, 4u}) {
    std::vector<std::size_t> home(n);
    for (std::size_t i = 0; i < reads; ++i)
      ++home[sequence_hash(view(random_codes(150, 5000 + i))) % n];
    const double mean = static_cast<double>(reads) / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(static_cast<double>(home[k]), mean, 0.05 * mean)
          << "shard " << k << " of " << n;
  }
}

/// Merged percentiles are the nearest-rank of the bucket-merged
/// histograms — not any combination of per-shard percentiles.  Verified
/// exactly on the helper the router uses, with shard-like partitions
/// whose per-shard p99s would give a very different (wrong) answer.
TEST(ServiceRouter, MergedPercentilesRankTheBucketMergedHistograms) {
  // "Shard A": 99 fast samples.  "Shard B": 99 slow samples.
  latency_histogram a, b;
  for (std::uint64_t i = 1; i <= 99; ++i) {
    a.record(i);         // 1..99
    b.record(1000 + i);  // 1001..1099
  }
  // Merged: 198 samples.  nearest-rank p50 = 99th smallest -> 99 (bucket
  // [98, 99]); p99 = ceil(0.99*198) = 197th smallest -> 1098, reported
  // as its bucket's upper edge (bucket [1088, 1119]).
  service_stats st;
  st.per_class[0].latency_hist = a.snapshot();
  st.per_class[0].latency_hist.merge(b.snapshot());
  fill_latency_percentiles(st);
  EXPECT_EQ(st.latency_samples, 198u);
  EXPECT_EQ(st.p50_latency_ns, 99u);
  EXPECT_EQ(st.p99_latency_ns, 1119u);
  EXPECT_EQ(st.p99_latency_ns, latency_histogram::bucket_upper_ns(
                                   latency_histogram::bucket_of(1098)));
  // Averaging the per-shard p99s (99 and 1099 -> 599) or summing them
  // (1198) would both be far off the true pooled tail.
}

/// group.stats() merges the real shard histograms: sample counts add up
/// across shards and the merged percentiles rank the bucket-wise sum.
TEST(ServiceRouter, GroupStatsMergeShardHistograms) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 0;
  service_group group(cfg);

  std::vector<ticket> ts;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 16; ++i) {
    qs.push_back(random_codes(48, 5000 + i));
    ss.push_back(random_codes(48, 6000 + i));
    ts.push_back(group.submit(view(qs.back()), view(ss.back()), {}));
  }
  for (auto& t : ts) (void)t.get();

  const auto st = group.stats();
  std::uint64_t sum = 0;
  histogram_snapshot merged;
  for (std::size_t i = 0; i < group.shard_count(); ++i) {
    const auto sh = group.shard(i).stats();
    sum += sh.latency_samples;
    for (const auto& cs : sh.per_class) merged.merge(cs.latency_hist);
  }
  EXPECT_EQ(st.latency_samples, sum);
  EXPECT_EQ(st.latency_samples, 16u);
  EXPECT_EQ(st.p50_latency_ns, merged.quantile_ns(50, 100));
  EXPECT_EQ(st.p99_latency_ns, merged.quantile_ns(99, 100));
  EXPECT_GT(st.p99_latency_ns, 0u);
  EXPECT_LE(st.p50_latency_ns, st.p99_latency_ns);
}

/// Priority classes and quotas pass through the router to the shards.
TEST(ServiceRouter, ClassesAndStringSubmissionsRouteThrough) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 32;
  service_group group(cfg);

  submit_options bulk_so;
  bulk_so.cls = request_class::bulk;
  auto b = group.submit_strings("ACGTACGTACGTACGT", "ACGTTCGTACGTACGT", {},
                                bulk_so);
  const auto rb = b.get();  // completed: its result is now cached
  auto i = group.submit_strings("ACGTACGTACGTACGT", "ACGTTCGTACGTACGT", {});
  const auto ri = i.get();
  expect_identical(ri, rb);

  const auto st = group.stats();
  EXPECT_EQ(st.of(request_class::bulk).accepted, 1u);
  EXPECT_EQ(st.of(request_class::interactive).accepted, 1u);
  EXPECT_EQ(st.cache_hits, 1u);  // identical pair: second one hit
}

/// Shutdown is idempotent and rejects later submissions, like a single
/// service.
TEST(ServiceRouter, ShutdownDrainsAndRejects) {
  service_group::config cfg;
  cfg.shards = 2;
  service_group group(cfg);

  const auto q = random_codes(32, 35);
  const auto s = random_codes(32, 36);
  auto t = group.submit(view(q), view(s), {});
  group.shutdown(true);
  (void)t.get();  // drained work still completes
  group.shutdown(true);  // idempotent
  EXPECT_THROW((void)group.submit(view(q), view(s), {}), shutdown_error);
}

}  // namespace
}  // namespace anyseq::service
