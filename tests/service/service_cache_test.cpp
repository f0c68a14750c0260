/// Correctness tests for the serving tier's response cache: randomized
/// differential against synchronous align() across every dispatch route
/// (including the int32 reference precision and the bit-parallel engine),
/// eviction behaviour under capacity pressure, and option
/// discrimination — equal sequences with different options must never
/// share an entry — the spread of the key hash itself, and value
/// tickets: score-only hits that carry their result and hold no slot.

#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "service/batcher.hpp"
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
/// batch-score and batch-traceback over several kinds, matrix scoring,
/// the int32 reference precision, and the bit-parallel engine.
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

  align_options local_tb = traceback;  // batch_traceback, local kind
  local_tb.kind = align_kind::local;
  out.push_back(local_tb);

  align_options matrix = score_only;  // batch_score, matrix scoring
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
  EXPECT_FALSE(cache.lookup(view(q), view(s), opt,
                            cache_key_hash(view(q), view(s), opt), out));

  const auto want = align(view(q), view(s), opt);
  cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt),
               want);

  ASSERT_TRUE(cache.lookup(view(q), view(s), opt,
                           cache_key_hash(view(q), view(s), opt), out));
  expect_identical(out, want);

  const auto st = cache.stats();
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(ServiceCacheUnit, OverwriteSameKeyKeepsOneEntry) {
  response_cache cache(response_cache::config{64, 1});
  const auto q = random_codes(30, 3);
  const auto s = random_codes(30, 4);
  const align_options opt;
  const auto r = align(view(q), view(s), opt);
  cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt), r);
  cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt), r);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(ServiceCacheUnit, DistinctOptionsGetDistinctEntries) {
  response_cache cache(response_cache::config{256, 2});
  const auto q = random_codes(40, 5);
  const auto s = random_codes(44, 6);
  const auto opts = route_spanning_options();
  for (const auto& opt : opts)
    cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt),
                 align(view(q), view(s), opt));
  EXPECT_EQ(cache.stats().entries, opts.size());
  // Every variant must come back as its own result.
  for (const auto& opt : opts) {
    alignment_result out;
    ASSERT_TRUE(cache.lookup(view(q), view(s), opt,
                             cache_key_hash(view(q), view(s), opt), out));
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
  cache.insert(view(ab), view(c), opt, cache_key_hash(view(ab), view(c), opt),
               align(view(ab), view(c), opt));
  alignment_result out;
  EXPECT_FALSE(cache.lookup(view(a), view(bc), opt,
                            cache_key_hash(view(a), view(bc), opt), out));
  // Swapped query/subject is likewise a different key.
  EXPECT_FALSE(cache.lookup(view(c), view(ab), opt,
                            cache_key_hash(view(c), view(ab), opt), out));
}

TEST(ServiceCacheUnit, ClearDropsEntriesKeepsCapacity) {
  response_cache cache(response_cache::config{32, 2});
  const auto q = random_codes(20, 7);
  const auto s = random_codes(20, 8);
  const align_options opt;
  cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt),
               align(view(q), view(s), opt));
  const std::size_t cap = cache.capacity();
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.capacity(), cap);
  alignment_result out;
  EXPECT_FALSE(cache.lookup(view(q), view(s), opt,
                            cache_key_hash(view(q), view(s), opt), out));
}

TEST(ServiceCacheUnit, EvictionBoundsEntriesUnderPressure) {
  response_cache cache(response_cache::config{16, 1});
  const align_options opt;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 200; ++i) {
    qs.push_back(random_codes(24, 100 + i));
    ss.push_back(random_codes(24, 300 + i));
    cache.insert(view(qs.back()), view(ss.back()), opt,
                 cache_key_hash(view(qs.back()), view(ss.back()), opt),
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
    if (cache.lookup(view(qs[i]), view(ss[i]), opt,
                     cache_key_hash(view(qs[i]), view(ss[i]), opt), out)) {
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
  cache.insert(view(hot_q), view(hot_s), opt,
               cache_key_hash(view(hot_q), view(hot_s), opt), hot_r);
  alignment_result out;
  ASSERT_TRUE(cache.lookup(view(hot_q), view(hot_s), opt,
                           cache_key_hash(view(hot_q), view(hot_s), opt),
                           out));  // ref=1

  // Insert a handful of cold entries — fewer than two full windows, so
  // a second-chance clock cannot have evicted the referenced entry yet.
  for (int i = 0; i < 4; ++i) {
    const auto q = random_codes(16, 910 + i);
    const auto s = random_codes(16, 920 + i);
    cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt),
                 align(view(q), view(s), opt));
  }
  EXPECT_TRUE(cache.lookup(view(hot_q), view(hot_s), opt,
                           cache_key_hash(view(hot_q), view(hot_s), opt), out));
}

// -------------------------------------------------------------------
// cache_key_hash spread
// -------------------------------------------------------------------

/// Every count within ±5% of the counts' mean.
void expect_balanced(const std::vector<std::size_t>& counts,
                     const char* what) {
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  const double mean =
      static_cast<double>(total) / static_cast<double>(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_NEAR(static_cast<double>(counts[i]), mean, 0.05 * mean)
        << what << " bucket " << i;
}

/// 100k simulated 150 bp read pairs plus every single-base substitution
/// of one read: no two distinct keys share a 64-bit hash, and the keys
/// spread evenly over the default cache's shards (high bits) and over
/// its slot indices (low bits), split as response_cache splits them.
TEST(ServiceCacheUnit, ReadPairKeysSpreadWithoutCollisions) {
  bio::genome_params gp;
  gp.seed = 31;
  const auto ref = bio::random_genome("hash_spread", gp);
  const auto pairs = bio::simulate_read_pairs(ref, 100000, {});
  const align_options opt;

  const auto q0 = pairs[0].first.view();
  const std::vector<char_t> read(q0.data(), q0.data() + q0.size());
  std::vector<std::vector<char_t>> edits;
  for (std::size_t i = 0; i < read.size(); ++i)
    for (char_t b = 0; b < 4; ++b) {
      if (b == read[i]) continue;
      edits.push_back(read);
      edits.back()[i] = b;
    }
  ASSERT_EQ(edits.size(), 3 * read.size());

  struct key {
    stage::seq_view q, s;
  };
  std::vector<key> keys;
  for (const auto& p : pairs) keys.push_back({p.first.view(), p.second.view()});
  for (const auto& e : edits) keys.push_back({view(e), pairs[0].second.view()});

  const auto same = [](stage::seq_view a, stage::seq_view b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  };
  // The default response_cache geometry: 8 shards of 512 slots.
  constexpr std::size_t shards = 8, slots = 512;
  std::vector<std::size_t> per_shard(shards), slot_high(8), slot_low(8);
  std::unordered_map<std::uint64_t, std::size_t> first_with;
  std::size_t distinct = 0, collisions = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t h = cache_key_hash(keys[i].q, keys[i].s, opt);
    const auto [it, fresh] = first_with.emplace(h, i);
    if (!fresh) {
      const key& k = keys[it->second];
      if (!same(k.q, keys[i].q) || !same(k.s, keys[i].s)) ++collisions;
      continue;  // an exact duplicate pair is the same key
    }
    ++distinct;
    ++per_shard[(h >> 48) & (shards - 1)];
    const std::size_t slot = static_cast<std::size_t>(h) & (slots - 1);
    ++slot_high[slot / (slots / 8)];
    ++slot_low[slot % 8];
  }
  EXPECT_EQ(collisions, 0u);
  EXPECT_GT(distinct, 99000u);
  expect_balanced(per_shard, "shard");
  expect_balanced(slot_high, "slot index / 64");
  expect_balanced(slot_low, "slot index % 8");
}

/// Prefixes of lengths 0..40 of one sequence all hash differently: the
/// range crosses the 16-byte step and every tail length, and a poly-A
/// prefix (code 0) differs from its padded shorter prefixes only by its
/// length.
TEST(ServiceCacheUnit, EqualPrefixSequencesHashApart) {
  const align_options opt;
  const auto other = random_codes(40, 61);
  const auto distinct = [](const std::vector<std::uint64_t>& hashes) {
    return std::set<std::uint64_t>(hashes.begin(), hashes.end()).size();
  };
  const struct {
    const char* name;
    std::vector<char_t> base;
  } families[] = {{"poly-A", std::vector<char_t>(40, 0)},
                  {"random", random_codes(40, 60)}};
  for (const auto& [family, base] : families) {
    std::vector<std::uint64_t> seq, as_query, as_subject;
    for (index_t n = 0; n <= 40; ++n) {
      const stage::seq_view prefix(base.data(), n);
      seq.push_back(sequence_hash(prefix));
      as_query.push_back(cache_key_hash(prefix, view(other), opt));
      as_subject.push_back(cache_key_hash(view(other), prefix, opt));
    }
    EXPECT_EQ(distinct(seq), 41u) << family << " sequence_hash";
    EXPECT_EQ(distinct(as_query), 41u) << family << " query prefixes";
    EXPECT_EQ(distinct(as_subject), 41u) << family << " subject prefixes";
  }
}

/// Changing any one field options_compatible compares changes the key
/// hash; an equal copy hashes equally.
TEST(ServiceCacheUnit, EveryComparedOptionFieldChangesTheHash) {
  const auto q = random_codes(150, 62);
  const auto s = random_codes(150, 63);
  align_options base;
  base.gap_open = -2;
  align_options with_matrix = base;
  with_matrix.matrix = dna_matrix_scoring::uniform(2, -1);

  std::vector<std::pair<const char*, align_options>> variants;
  const auto vary = [&](const char* field, auto&& edit) {
    align_options o = base;
    edit(o);
    variants.emplace_back(field, o);
  };
  vary("kind", [](align_options& o) { o.kind = align_kind::local; });
  vary("want_alignment", [](align_options& o) { o.want_alignment = true; });
  vary("match", [](align_options& o) { o.match = 3; });
  vary("mismatch", [](align_options& o) { o.mismatch = -2; });
  vary("matrix presence", [&](align_options& o) { o = with_matrix; });
  vary("gap_open", [](align_options& o) { o.gap_open = -3; });
  vary("gap_extend", [](align_options& o) { o.gap_extend = -2; });
  vary("exec", [](align_options& o) { o.exec = backend::scalar; });
  vary("threads", [](align_options& o) { o.threads = 1; });
  vary("tile", [](align_options& o) { o.tile = 64; });
  vary("precision",
       [](align_options& o) { o.precision = score_precision::int32; });
  vary("full_matrix_cells",
       [](align_options& o) { o.full_matrix_cells = index_t{1} << 10; });

  const auto key = [&](const align_options& o) {
    return cache_key_hash(view(q), view(s), o);
  };
  const align_options copy = base;
  EXPECT_EQ(key(copy), key(base));
  for (const auto& [field, o] : variants) {
    ASSERT_FALSE(options_compatible(base, o)) << field;
    EXPECT_NE(key(o), key(base)) << field;
  }
  // Matrix tables compare entry by entry.
  align_options entry = with_matrix;
  entry.matrix->set(1, 2, -3);
  ASSERT_FALSE(options_compatible(with_matrix, entry));
  EXPECT_NE(key(entry), key(with_matrix)) << "matrix entry";
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

// -------------------------------------------------------------------
// Value tickets: score-only hits submitted by view hold no slot
// -------------------------------------------------------------------

config with_cache(config cfg) {
  cfg.cache_capacity = 16;
  return cfg;
}

/// A cached service with one score-only pair already resident.
struct warm_service {
  explicit warm_service(const config& cfg = {}) : svc(with_cache(cfg)) {
    auto t = svc.submit(view(q), view(s));
    want = t.get();
  }
  std::vector<char_t> q = random_codes(60, 81);
  std::vector<char_t> s = mutate(q, 82);
  aligner svc;
  alignment_result want;
};

TEST(ServiceValueTicket, IsReadyAtOnceAndHoldsNoSlot) {
  warm_service w;
  auto t = w.svc.submit(view(w.q), view(w.s));
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(w.svc.stats().outstanding_tickets, 0u);
  EXPECT_TRUE(t.ready());
  EXPECT_TRUE(t.wait_for(std::chrono::microseconds(0)));
  EXPECT_TRUE(t.wait_until(std::chrono::steady_clock::time_point::min()));
  expect_identical(t.get(), w.want);
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(w.svc.stats().cache_hits, 1u);
}

TEST(ServiceValueTicket, MovesAndAbandonmentHoldNoSlot) {
  warm_service w;
  {
    auto a = w.svc.submit(view(w.q), view(w.s));
    ticket b(std::move(a));
    EXPECT_FALSE(a.valid());
    ASSERT_TRUE(b.valid());
    ticket c;
    c = std::move(b);
    EXPECT_FALSE(b.valid());
    ASSERT_TRUE(c.valid());
    c = w.svc.submit(view(w.q), view(w.s));  // retires the first hit
    EXPECT_EQ(w.svc.stats().outstanding_tickets, 0u);
  }  // destroyed without get()
  const auto st = w.svc.stats();
  EXPECT_EQ(st.outstanding_tickets, 0u);
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.completed, st.accepted);
}

TEST(ServiceValueTicket, SecondGetThrows) {
  warm_service w;
  auto t = w.svc.submit(view(w.q), view(w.s));
  (void)t.get();
  EXPECT_THROW((void)t.get(), invalid_argument_error);
  EXPECT_THROW((void)t.ready(), invalid_argument_error);
}

/// Value tickets do not count against max_outstanding: with the only
/// slot held by an unretrieved miss, a hit still succeeds while another
/// miss is refused.
TEST(ServiceValueTicket, HitSucceedsWhileTheSlotBoundIsFull) {
  config cfg;
  cfg.queue_capacity = 1;
  cfg.max_outstanding = 1;
  cfg.policy = backpressure::reject;
  warm_service w(cfg);
  const auto q2 = random_codes(60, 83);
  const auto q3 = random_codes(60, 84);
  auto held = w.svc.submit(view(q2), view(w.s));  // a miss: takes the slot
  EXPECT_THROW((void)w.svc.submit(view(q3), view(w.s)), queue_full_error);
  auto hit = w.svc.submit(view(w.q), view(w.s));
  expect_identical(hit.get(), w.want);
  expect_identical(held.get(), align(view(q2), view(w.s), {}));
}

TEST(ServiceValueTicket, HitAfterShutdownThrows) {
  warm_service w;
  w.svc.shutdown(true);
  EXPECT_THROW((void)w.svc.submit(view(w.q), view(w.s)), shutdown_error);
}

/// Producers submitting hits race a shutdown: each submission either
/// serves its result or throws shutdown_error, and every served hit is
/// counted once.
TEST(ServiceValueTicket, HitsRacingShutdownServeOrRefuse) {
  warm_service w;
  constexpr int producers = 3, per_producer = 2000;
  std::atomic<std::uint64_t> served{0}, refused{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < producers; ++c)
    threads.emplace_back([&] {
      for (int i = 0; i < per_producer; ++i) {
        try {
          auto t = w.svc.submit(view(w.q), view(w.s));
          if (t.get().score != w.want.score) ++wrong;
          ++served;
        } catch (const shutdown_error&) {
          ++refused;
        }
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  w.svc.shutdown(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(served + refused, std::uint64_t{producers * per_producer});
  EXPECT_EQ(w.svc.stats().cache_hits, served.load());
}

TEST(ServiceValueTicket, VariantNamesTheEngine) {
  warm_service w;
  const auto fresh = align(view(w.q), view(w.s), {});
  ASSERT_NE(fresh.variant, nullptr);
  auto t = w.svc.submit(view(w.q), view(w.s));
  const auto got = t.get();
  EXPECT_STREQ(got.variant, fresh.variant);
  EXPECT_STREQ(w.want.variant, fresh.variant);
}

/// A cached score-only result a ticket cannot hold inline — an end past
/// 32 bits, a nonzero begin, or a variant outside the engine-name table —
/// is served through a slot, field for field.
TEST(ServiceValueTicket, ResultsTooWideForAValueTakeTheSlotPath) {
  const auto q = random_codes(40, 85);
  const auto s = random_codes(40, 86);
  const align_options opt;
  alignment_result base;
  base.score = 7;
  base.q_end = 40;
  base.s_end = 9;
  base.cells = 123;
  base.variant = "avx2";
  std::vector<std::pair<const char*, alignment_result>> cases;
  const auto add = [&](const char* what, auto&& edit) {
    alignment_result r = base;
    edit(r);
    cases.emplace_back(what, r);
  };
  add("q_end >= 2^32 and gpu_sim", [](alignment_result& r) {
    r.q_end = (index_t{1} << 32) + 5;
    r.variant = "gpu_sim";
  });
  add("q_end >= 2^32", [](alignment_result& r) { r.q_end = index_t{1} << 32; });
  add("s_end >= 2^32", [](alignment_result& r) { r.s_end = index_t{1} << 32; });
  add("q_begin != 0", [](alignment_result& r) { r.q_begin = 3; });
  add("s_begin != 0", [](alignment_result& r) { r.s_begin = 4; });
  add("fpga_sim", [](alignment_result& r) { r.variant = "fpga_sim"; });
  add("no variant", [](alignment_result& r) { r.variant = nullptr; });
  for (const auto& [what, fabricated] : cases) {
    response_cache cache(response_cache::config{64, 1});
    cache.insert(view(q), view(s), opt, cache_key_hash(view(q), view(s), opt),
                 fabricated);
    config cfg;
    cfg.shared_cache = &cache;
    aligner svc(cfg);
    auto t = svc.submit(view(q), view(s), opt);
    EXPECT_EQ(svc.stats().outstanding_tickets, 1u) << what;
    const auto got = t.get();
    expect_identical(got, fabricated);
    if (fabricated.variant == nullptr)
      EXPECT_EQ(got.variant, nullptr) << what;
    else
      EXPECT_STREQ(got.variant, fabricated.variant) << what;
    const auto st = svc.stats();
    EXPECT_EQ(st.cache_hits, 1u) << what;
    EXPECT_EQ(st.outstanding_tickets, 0u) << what;
  }
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
