/// Correctness tests for the serving tier's response cache: randomized
/// differential against synchronous align() across every dispatch route
/// (including the int32 reference precision and the bit-parallel engine),
/// eviction behaviour under capacity pressure, and option
/// discrimination — equal sequences with different options must never
/// share an entry.

#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "service/service.hpp"
#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::mutate;
using test::random_codes;
using test::view;

/// Field-by-field identity with a synchronous align() result.
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

/// Option sets spanning every dispatch route the cache can front:
/// batch-score, batch-traceback, solo (matrix / local traceback), the
/// int32 reference precision, and the bit-parallel engine.
std::vector<align_options> route_spanning_options() {
  std::vector<align_options> out;

  align_options score_only;  // batch_score route
  out.push_back(score_only);

  align_options local = score_only;
  local.kind = align_kind::local;
  out.push_back(local);

  align_options semi = score_only;
  semi.kind = align_kind::semiglobal;
  semi.gap_open = -3;  // affine
  out.push_back(semi);

  align_options traceback;  // batch_traceback route
  traceback.want_alignment = true;
  out.push_back(traceback);

  align_options local_tb = traceback;  // solo route (local traceback)
  local_tb.kind = align_kind::local;
  out.push_back(local_tb);

  align_options matrix = score_only;  // solo route (matrix scoring)
  matrix.matrix = dna_matrix_scoring::uniform(2, -1);
  out.push_back(matrix);

  align_options int32 = score_only;  // the int32 rolling reference route
  int32.precision = score_precision::int32;
  out.push_back(int32);

  align_options bitpar;  // Myers bit-parallel engine (unit-cost, auto)
  bitpar.match = 0;
  bitpar.mismatch = -1;
  bitpar.gap_open = 0;
  bitpar.gap_extend = -1;
  out.push_back(bitpar);

  return out;
}

// -------------------------------------------------------------------
// response_cache unit tests
// -------------------------------------------------------------------

TEST(ServiceCacheUnit, InsertLookupRoundTrip) {
  response_cache cache(response_cache::config{64, 4});
  const auto q = random_codes(50, 1);
  const auto s = random_codes(48, 2);
  const align_options opt;

  alignment_result out;
  EXPECT_FALSE(cache.lookup(view(q), view(s), opt, out));

  const auto want = align(view(q), view(s), opt);
  cache.insert(view(q), view(s), opt, want);

  ASSERT_TRUE(cache.lookup(view(q), view(s), opt, out));
  expect_identical(out, want);

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(ServiceCacheUnit, OverwriteSameKeyKeepsOneEntry) {
  response_cache cache(response_cache::config{64, 1});
  const auto q = random_codes(30, 3);
  const auto s = random_codes(30, 4);
  const align_options opt;
  const auto r = align(view(q), view(s), opt);
  cache.insert(view(q), view(s), opt, r);
  cache.insert(view(q), view(s), opt, r);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(ServiceCacheUnit, DistinctOptionsGetDistinctEntries) {
  response_cache cache(response_cache::config{256, 2});
  const auto q = random_codes(40, 5);
  const auto s = random_codes(44, 6);
  const auto opts = route_spanning_options();
  for (const auto& opt : opts)
    cache.insert(view(q), view(s), opt, align(view(q), view(s), opt));
  EXPECT_EQ(cache.stats().entries, opts.size());
  // Every variant must come back as its own result.
  for (const auto& opt : opts) {
    alignment_result out;
    ASSERT_TRUE(cache.lookup(view(q), view(s), opt, out));
    expect_identical(out, align(view(q), view(s), opt));
  }
}

TEST(ServiceCacheUnit, SwappedAndShiftedKeysDoNotCollide) {
  // (AB, C) vs (A, BC): equal concatenated bytes, different split — the
  // length delimiter in the key hash has to keep them apart.
  response_cache cache(response_cache::config{64, 1});
  const std::vector<char_t> ab = {0, 1, 2, 3}, c = {1, 1};
  const std::vector<char_t> a = {0, 1}, bc = {2, 3, 1, 1};
  const align_options opt;
  cache.insert(view(ab), view(c), opt, align(view(ab), view(c), opt));
  alignment_result out;
  EXPECT_FALSE(cache.lookup(view(a), view(bc), opt, out));
  // Swapped query/subject is likewise a different key.
  EXPECT_FALSE(cache.lookup(view(c), view(ab), opt, out));
}

TEST(ServiceCacheUnit, ClearDropsEntriesKeepsCapacity) {
  response_cache cache(response_cache::config{32, 2});
  const auto q = random_codes(20, 7);
  const auto s = random_codes(20, 8);
  const align_options opt;
  cache.insert(view(q), view(s), opt, align(view(q), view(s), opt));
  const std::size_t cap = cache.capacity();
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.capacity(), cap);
  alignment_result out;
  EXPECT_FALSE(cache.lookup(view(q), view(s), opt, out));
}

TEST(ServiceCacheUnit, EvictionBoundsEntriesUnderPressure) {
  response_cache cache(response_cache::config{16, 1});
  const align_options opt;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 200; ++i) {
    qs.push_back(random_codes(24, 100 + i));
    ss.push_back(random_codes(24, 300 + i));
    cache.insert(view(qs.back()), view(ss.back()), opt,
                 align(view(qs.back()), view(ss.back()), opt));
  }
  const auto st = cache.stats();
  EXPECT_LE(st.entries, cache.capacity());
  EXPECT_GT(st.evictions, 0u);
  // Whatever still resides must be correct — eviction may drop entries,
  // never corrupt them.
  std::size_t resident = 0;
  for (int i = 0; i < 200; ++i) {
    alignment_result out;
    if (cache.lookup(view(qs[i]), view(ss[i]), opt, out)) {
      ++resident;
      expect_identical(out, align(view(qs[i]), view(ss[i]), opt));
    }
  }
  EXPECT_GT(resident, 0u);
  EXPECT_LE(resident, cache.capacity());
}

TEST(ServiceCacheUnit, ClockEvictionPrefersUnreferencedEntries) {
  // One shard, capacity == one probe window: entries that keep getting
  // hits (ref bit set) should survive a stream of single-use inserts
  // more often than untouched ones.  Pin one hot key, flood with cold
  // keys that map anywhere, and require the hot key to survive at least
  // the first eviction wave after its reference bit is set.
  response_cache cache(response_cache::config{8, 1});
  const align_options opt;
  const auto hot_q = random_codes(16, 900);
  const auto hot_s = random_codes(16, 901);
  const auto hot_r = align(view(hot_q), view(hot_s), opt);
  cache.insert(view(hot_q), view(hot_s), opt, hot_r);
  alignment_result out;
  ASSERT_TRUE(cache.lookup(view(hot_q), view(hot_s), opt, out));  // ref=1

  // Insert a handful of cold entries — fewer than two full windows, so
  // a second-chance clock cannot have evicted the referenced entry yet.
  for (int i = 0; i < 4; ++i) {
    const auto q = random_codes(16, 910 + i);
    const auto s = random_codes(16, 920 + i);
    cache.insert(view(q), view(s), opt, align(view(q), view(s), opt));
  }
  EXPECT_TRUE(cache.lookup(view(hot_q), view(hot_s), opt, out));
}

// -------------------------------------------------------------------
// Service-integrated differential tests
// -------------------------------------------------------------------

/// Cached results must be byte-identical to a fresh synchronous align()
/// on every route: submit each (pair, options) twice through a cached
/// service — the second submission is a cache hit — and compare both
/// against the synchronous oracle.
TEST(ServiceCache, HitsAreByteIdenticalAcrossRoutes) {
  config cfg;
  cfg.cache_capacity = 256;
  aligner svc(cfg);

  const auto opts = route_spanning_options();
  std::uint64_t expected_hits = 0;
  for (int p = 0; p < 6; ++p) {
    const auto q = random_codes(64 + 7 * p, 40 + p);
    const auto s = mutate(q, 70 + p);
    for (const auto& opt : opts) {
      const auto want = align(view(q), view(s), opt);
      auto miss = svc.submit(view(q), view(s), opt);
      expect_identical(miss.get(), want);  // cold: executed
      auto hit = svc.submit(view(q), view(s), opt);
      expect_identical(hit.get(), want);  // warm: served from cache
      ++expected_hits;
      ASSERT_EQ(svc.stats().cache_hits, expected_hits)
          << "second submission of an identical request must hit";
    }
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.cache_hits, expected_hits);
  EXPECT_EQ(st.cache_misses, expected_hits);  // every pair missed once
  EXPECT_EQ(st.completed, 2 * expected_hits);
}

/// Randomized differential under a hit/miss mix: a pool of pairs
/// streamed repeatedly with varying options; every single result —
/// cached or computed — must match the synchronous oracle.
TEST(ServiceCache, RandomizedStreamMatchesOracle) {
  config cfg;
  cfg.cache_capacity = 64;
  cfg.max_batch = 8;
  aligner svc(cfg);

  const auto opts = route_spanning_options();
  constexpr int pool_size = 12;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < pool_size; ++i) {
    qs.push_back(random_codes(50 + 3 * i, 500 + i));
    ss.push_back(mutate(qs.back(), 600 + i));
  }
  // Rounds 0/1 share one option pick per pair and rounds 2/3 another,
  // so half the stream re-requests a key that is already resident.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < pool_size; ++i) {
      const auto& opt = opts[(i + (round / 2)) % opts.size()];
      auto t = svc.submit(view(qs[i]), view(ss[i]), opt);
      expect_identical(t.get(), align(view(qs[i]), view(ss[i]), opt));
    }
  }
  const auto st = svc.stats();
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_EQ(st.completed, 4u * pool_size);
}

/// Equal sequences with different options must never share an entry —
/// the options fingerprint is part of the key.
TEST(ServiceCache, NoStaleHitsAcrossOptionSets) {
  config cfg;
  cfg.cache_capacity = 128;
  aligner svc(cfg);

  const auto q = random_codes(80, 77);
  const auto s = mutate(q, 78);

  align_options a;  // default global score-only
  align_options b = a;
  b.mismatch = -2;  // different scoring: different scores possible
  align_options c = a;
  c.kind = align_kind::local;
  align_options d = a;
  d.want_alignment = true;

  for (const auto& opt : {a, b, c, d}) {
    auto t = svc.submit(view(q), view(s), opt);
    expect_identical(t.get(), align(view(q), view(s), opt));
  }
  // Four distinct option sets on identical bytes: all four missed.
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(svc.stats().cache_misses, 4u);

  // And each now hits its own entry with its own result.
  for (const auto& opt : {a, b, c, d}) {
    auto t = svc.submit(view(q), view(s), opt);
    expect_identical(t.get(), align(view(q), view(s), opt));
  }
  EXPECT_EQ(svc.stats().cache_hits, 4u);
}

/// Eviction pressure through the service: a cache far smaller than the
/// working set still returns only correct results, and evictions show
/// up in the service's stats.
TEST(ServiceCache, EvictionUnderCapacityPressureStaysCorrect) {
  config cfg;
  cfg.cache_capacity = 16;
  cfg.cache_shards = 1;
  aligner svc(cfg);

  const align_options opt;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 64; ++i) {
    qs.push_back(random_codes(40, 1000 + i));
    ss.push_back(random_codes(40, 2000 + i));
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      auto t = svc.submit(view(qs[i]), view(ss[i]), opt);
      expect_identical(t.get(), align(view(qs[i]), view(ss[i]), opt));
    }
  }
  const auto st = svc.stats();
  EXPECT_GT(st.cache_evictions, 0u);
  ASSERT_NE(svc.cache(), nullptr);
  EXPECT_LE(svc.cache()->stats().entries, svc.cache()->capacity());
}

/// submit_strings must hit the same entries as view submissions of the
/// same encoded bytes (the cache keys encoded bytes, not raw chars).
TEST(ServiceCache, StringSubmissionsShareEntriesWithViews) {
  config cfg;
  cfg.cache_capacity = 32;
  aligner svc(cfg);

  auto t1 = svc.submit_strings("ACGTACGTACGT", "ACGTTCGTACGT");
  const auto r1 = t1.get();
  auto t2 = svc.submit_strings("ACGTACGTACGT", "ACGTTCGTACGT");
  const auto r2 = t2.get();
  expect_identical(r2, r1);
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

/// A service without a cache behaves exactly as before: no counters
/// move, every request executes.
TEST(ServiceCache, DisabledCacheExecutesEverything) {
  aligner svc;  // default config: no cache
  EXPECT_EQ(svc.cache(), nullptr);
  const auto q = random_codes(32, 9);
  const auto s = random_codes(32, 10);
  for (int i = 0; i < 3; ++i) {
    auto t = svc.submit(view(q), view(s), {});
    (void)t.get();
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.completed, 3u);
}

}  // namespace
}  // namespace anyseq::service
