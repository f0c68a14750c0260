/// Serving-tier benchmark: the sharded, cache-fronted service group on
/// a fig5b-style 150 bp read-pair workload, emitted as
/// BENCH_serving.json.  Three experiments:
///
///   1. **Hit-rate sweep** — the same request count streamed over pools
///      of distinct pairs sized for ~0%, ~50%, and ~95% response-cache
///      hit rates.  Hits bypass the admission ring and the batcher
///      entirely (lookup + copy-out), so throughput should rise steeply
///      with the hit rate.  The cache-cold stream is also set against a
///      synchronous one-call-per-request loop over the same pairs
///      (`sync_baseline`), whose checksum it must reproduce.  The
///      `cache_lookup_hit` row times `response_cache::lookup` hits on
///      one thread, in ns per lookup, without the service around it;
///      the `submit_get_hit_1` / `_2` rows time submit() plus get() of
///      the same hits through a service, at 1 and 2 producer threads.
///   2. **Shard scaling** — all-distinct (cache-cold) requests through
///      1, 2, and 4 shards.  Each shard owns its own admission mutex
///      and batcher thread; scaling is bounded by physical cores, so
///      the meta records `cores` and the numbers are whatever this host
///      honestly delivers.  Producer threads are clamped to the cores.
///      Two saturated streams through one shard, 48 bp pairs at
///      max_batch 64 and 150 bp pairs at max_batch 8, measure throughput
///      where every batch is small enough for the batcher to run itself
///      (`short_reads_48`, `small_batches_150`).
///   3. **Adaptive vs fixed linger** — a bulk flood plus an interactive
///      trickle under a deliberately generous max_linger.  The fixed
///      service pays the full linger on every interactive request; the
///      adaptive controller shrinks the window when interactive p99
///      drifts above target.  Reported: interactive p99 per policy.
///
/// Every row records the median and, as `min_ns`/`max_ns`, the spread
/// over its --repeats runs.
///
///   $ ./serving_bench [--pairs N] [--threads N] [--repeats N]
///                     [--out FILE] [--quick]   (default BENCH_serving.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "bench/harness.hpp"
#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "service/cache.hpp"
#include "service/router.hpp"
#include "service/trace.hpp"
#include "simd/detect.hpp"

namespace {

using namespace anyseq;
using namespace anyseq::bench;

align_options request_options() {
  align_options o;
  o.kind = align_kind::global;
  o.gap_open = -2;
  o.gap_extend = -1;
  o.threads = 1;  // per-request work is tiny; parallelism comes from above
  return o;
}

/// Simulate `n` distinct 150 bp read pairs against a shared reference.
std::vector<bio::read_pair> make_pairs(std::size_t n, std::uint64_t seed) {
  bio::genome_params gp;
  gp.length = 1 << 20;
  gp.seed = seed;
  const auto ref = bio::random_genome("chr_surrogate", gp);
  return bio::simulate_read_pairs(ref, n, {});
}

/// The response-cache key hash of one pair under `opt`.
std::uint64_t key_of(const bio::read_pair& p, const align_options& opt) {
  return service::cache_key_hash(p.first.view(), p.second.view(), opt);
}

/// Stream `total` requests with an exact fraction `hit_rate` of cache
/// hits: hits draw round-robin from `warm` already-cached pairs (the
/// caller warmed them and waited for completion, so they are resident),
/// misses consume fresh distinct pairs starting at index `warm`.
/// Scores are folded so nothing is elided.
double stream_mixed(service::service_group& group,
                    const std::vector<bio::read_pair>& pairs,
                    std::size_t warm, double hit_rate, std::size_t total,
                    const service::submit_options& so = {}) {
  const auto opt = request_options();
  std::vector<service::ticket> window;
  window.reserve(64);
  long long sum = 0;
  std::size_t head = 0, fresh = warm, warm_next = 0;
  for (std::size_t i = 0; i < total; ++i) {
    // Request i is a hit iff the running hit quota advances at i.
    const bool hit =
        warm > 0 &&
        static_cast<std::size_t>(static_cast<double>(i + 1) * hit_rate) >
            static_cast<std::size_t>(static_cast<double>(i) * hit_rate);
    const auto& p = hit ? pairs[warm_next++ % warm] : pairs[fresh++];
    window.push_back(group.submit(p.first.view(), p.second.view(), opt, so));
    if (window.size() - head >= 64) sum += window[head++].get().score;
    if (head == window.size()) {
      window.clear();
      head = 0;
    }
  }
  for (std::size_t i = head; i < window.size(); ++i)
    sum += window[i].get().score;
  return static_cast<double>(sum);
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = args::parse(argc, argv, /*default_scale=*/1,
                             /*default_pairs=*/4000);
  const std::size_t total = a.pairs;

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int producers = std::clamp(a.threads, 1, static_cast<int>(cores));
  std::printf("bench_serving: %zu requests, %u cores, %d producers, %d "
              "repeats\n",
              total, cores, producers, a.repeats);

  const auto pairs = make_pairs(total, /*seed=*/10);

  json_report report("serving", a.repeats);
  report.set_meta("cpu", simd::describe(simd::detect()));
  report.set_meta("dispatched", backend_name());
  report.set_meta("cores", static_cast<long long>(cores));
  report.set_meta("threads", static_cast<long long>(producers));
  report.set_meta("requests", static_cast<long long>(total));

  // ---- 1. hit-rate sweep --------------------------------------------
  // Exact hit fractions: `warm` pairs are cached up-front (completion
  // awaited, so they are resident), then the measured stream draws hits
  // from the warm set and misses from fresh distinct pairs.  Stats are
  // deltas over the measured stream only; warmup is not timed.
  const struct { const char* name; double rate; } sweeps[] = {
      {"hit_rate_0", 0.0}, {"hit_rate_50", 0.5}, {"hit_rate_95", 0.95}};
  double rps_hit0 = 0.0, rps_hit95 = 0.0, sum_hit0 = 0.0;
  for (const auto& sweep : sweeps) {
    // Warm set sized to the miss count so total distinct pairs <= total.
    const auto warm = static_cast<std::size_t>(
        std::min(static_cast<double>(total) * sweep.rate,
                 std::max(1.0, static_cast<double>(total) *
                                   (1.0 - sweep.rate))));
    std::vector<double> times, rates;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = total;  // hold the full distinct set
      cfg.shard.max_batch = 64;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);  // fresh: stats cover one run
      {
        const auto opt = request_options();
        std::vector<service::ticket> ts;
        ts.reserve(warm);
        for (std::size_t i = 0; i < warm; ++i)
          ts.push_back(group.submit(pairs[i].first.view(),
                                    pairs[i].second.view(), opt));
        for (auto& t : ts) (void)t.get();  // warm entries now resident
      }
      const auto before = group.stats();
      stopwatch sw;
      const double sum = stream_mixed(group, pairs, warm, sweep.rate, total);
      times.push_back(sw.seconds());
      if (sweep.rate == 0.0) sum_hit0 = sum;
      group.shutdown(true);
      const auto st = group.stats();
      const auto hits = st.cache_hits - before.cache_hits;
      const auto looked_up =
          hits + (st.cache_misses - before.cache_misses);
      rates.push_back(looked_up > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(looked_up)
                                    : 0.0);
    }
    const spread t = spread_of(times);
    const double rate = spread_of(rates).median;
    const double rps = static_cast<double>(total) / t.median;
    if (sweep.rate == 0.0) rps_hit0 = rps;
    if (sweep.rate == 0.95) rps_hit95 = rps;
    report.add(sweep.name, t, total,
               {{"requests_per_s", rps}, {"hit_rate", rate}});
    std::printf("%-12s : %10.1f req/s  (measured hit rate %.3f)\n",
                sweep.name, rps, rate);
  }
  if (rps_hit0 > 0.0)
    report.set_meta("speedup_95_vs_0", rps_hit95 / rps_hit0);

  // ---- 1a. synchronous baseline -------------------------------------
  // The hit_rate_0 pairs again, one public-dispatcher call per request:
  // every call pays a full dispatch and engine set-up, which is what the
  // service's coalescing into SIMD batches saves.  The checksums must
  // agree — the service promises results identical to synchronous align.
  {
    const auto opt = request_options();
    double sync_sum = 0.0;
    const spread t = timed_spread(a.repeats, [&] {
      long long sum = 0;
      for (std::size_t i = 0; i < total; ++i)
        sum += align(pairs[i].first.view(), pairs[i].second.view(), opt)
                   .score;
      sync_sum = static_cast<double>(sum);
    });
    const double rps = static_cast<double>(total) / t.median;
    report.add("sync_baseline", t, total,
               {{"requests_per_s", rps},
                {"speedup_service_vs_sync", rps_hit0 / rps}});
    std::printf("%-12s : %10.1f req/s  (service hit_rate_0 %.2fx)\n",
                "sync", rps, rps_hit0 / rps);
    if (sync_sum != sum_hit0) {
      std::fprintf(stderr,
                   "FAIL: service checksum %.0f != synchronous %.0f\n",
                   sum_hit0, sync_sum);
      return 1;
    }
  }

  // ---- 1b. deadline/hook happy-path overhead ------------------------
  // The hit_rate_0 stream again, but every request carries a (far-
  // future) absolute deadline, so the whole robustness surface runs on
  // every request: deadline stamping, the shed checks at ring drain and
  // batch dispatch, deadline-bounded linger, the quarantine gate, and
  // the compiled-in fault-hook branches.  overhead_vs_plain ~ 1.0 is
  // the contract — the machinery is branch-only on the happy path.
  {
    std::vector<double> times;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = total;
      cfg.shard.max_batch = 64;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);
      service::submit_options so;
      so.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
      stopwatch sw;
      (void)stream_mixed(group, pairs, 0, 0.0, total, so);
      times.push_back(sw.seconds());
      group.shutdown(true);
    }
    const spread t = spread_of(times);
    const double rps = static_cast<double>(total) / t.median;
    report.add("hit_rate_0_deadline", t, total,
               {{"requests_per_s", rps},
                {"overhead_vs_plain", rps > 0.0 ? rps_hit0 / rps : 1.0}});
    std::printf("%-12s : %10.1f req/s  (%.3fx plain no-deadline cost)\n",
                "hr0_deadline", rps, rps > 0.0 ? rps_hit0 / rps : 1.0);
  }

  // ---- 1c. tracing overhead -----------------------------------------
  // The hit_rate_0 stream with a lifecycle-trace collector armed, so
  // every request records its submit/probe/ring/collect/execute/complete
  // spans into the per-thread rings.  overhead_vs_plain ~ 1.0 is the
  // contract: recording is a clock read plus a relaxed ring store.
  {
    std::vector<double> times;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = total;
      cfg.shard.max_batch = 64;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);
      service::trace::collector col;
      service::trace::arm(col);
      stopwatch sw;
      (void)stream_mixed(group, pairs, 0, 0.0, total);
      times.push_back(sw.seconds());
      group.shutdown(true);
      service::trace::disarm();
    }
    const spread t = spread_of(times);
    const double rps = static_cast<double>(total) / t.median;
    report.add("hit_rate_0_tracing", t, total,
               {{"requests_per_s", rps},
                {"overhead_vs_plain", rps > 0.0 ? rps_hit0 / rps : 1.0}});
    std::printf("%-12s : %10.1f req/s  (%.3fx plain untraced cost)\n",
                "hr0_tracing", rps, rps > 0.0 ? rps_hit0 / rps : 1.0);
  }

  // ---- 1d. ragged (mixed-length) cache-cold traffic -----------------
  // The hit_rate_0 stream with each mate trimmed to an independent
  // uniform length in [135, 165], so no batch the coalescer forms is
  // reliably shape-uniform.  The batcher's full-shape sort plus the
  // lane-padding kernel must keep this traffic on SIMD lanes; the row
  // carries the simd/ragged pair fractions from the batch-path
  // telemetry so CI can watch it.
  {
    bio::read_sim_params jp;
    jp.read_length = 165;
    bio::genome_params gp;
    gp.length = 1 << 20;
    gp.seed = 11;
    const auto jref = bio::random_genome("chr_surrogate_ragged", gp);
    const auto jdata = bio::simulate_read_pairs(jref, total, jp);
    std::mt19937_64 jrng(77);
    std::uniform_int_distribution<index_t> jlen(135, 165);
    struct view_pair {
      stage::seq_view q, s;
    };
    std::vector<view_pair> jviews;
    jviews.reserve(jdata.size());
    for (const auto& p : jdata) {
      const auto qv = p.first.view();
      const auto sv = p.second.view();
      jviews.push_back(
          {stage::seq_view(qv.data(), std::min(qv.size(), jlen(jrng))),
           stage::seq_view(sv.data(), std::min(sv.size(), jlen(jrng)))});
    }
    std::vector<double> times, simd_fracs, ragged_fracs;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = total;
      cfg.shard.max_batch = 64;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);
      const auto opt = request_options();
      stopwatch sw;
      std::vector<service::ticket> window;
      window.reserve(64);
      long long sum = 0;
      std::size_t head = 0;
      for (std::size_t i = 0; i < total; ++i) {
        window.push_back(group.submit(jviews[i].q, jviews[i].s, opt));
        if (window.size() - head >= 64) sum += window[head++].get().score;
      }
      for (std::size_t i = head; i < window.size(); ++i)
        sum += window[i].get().score;
      (void)sum;
      times.push_back(sw.seconds());
      group.shutdown(true);
      const auto st = group.stats();
      const auto batched = static_cast<double>(st.batch_simd_pairs +
                                               st.batch_scalar_pairs);
      simd_fracs.push_back(
          batched > 0 ? static_cast<double>(st.batch_simd_pairs) / batched
                      : 0.0);
      ragged_fracs.push_back(
          batched > 0 ? static_cast<double>(st.batch_ragged_pairs) / batched
                      : 0.0);
    }
    const spread t = spread_of(times);
    const double simd_frac = spread_of(simd_fracs).median;
    const double ragged_frac = spread_of(ragged_fracs).median;
    const double rps = static_cast<double>(total) / t.median;
    report.add("hit_rate_0_ragged", t, total,
               {{"requests_per_s", rps},
                {"simd_pair_fraction", simd_frac},
                {"ragged_pair_fraction", ragged_frac}});
    std::printf("%-12s : %10.1f req/s  (simd %.1f%% ragged %.1f%%)\n",
                "hr0_ragged", rps, simd_frac * 100.0, ragged_frac * 100.0);
  }

  // ---- 1e. cache hits alone -----------------------------------------
  // The response cache without the service: one thread looks up a
  // 2,048-pair hot set of 150 bp pairs resident in a cache of the
  // serving workloads' size (4,096 entries, 8 shards), round robin.  A
  // lookup is the key hash, the shard lock, the probe walk, the key
  // compare and the copy-out.  Pairs a probe-window collision evicted
  // while warming are dropped from the set, so every timed lookup hits.
  const auto warm = make_pairs(2048, /*seed=*/12);
  {
    const auto opt = request_options();
    service::response_cache cache(service::response_cache::config{4096, 8});
    for (const auto& p : warm)
      cache.insert(p.first.view(), p.second.view(), opt, key_of(p, opt),
                   align(p.first.view(), p.second.view(), opt));
    std::vector<const bio::read_pair*> hot;
    alignment_result out;
    for (const auto& p : warm)
      if (cache.lookup(p.first.view(), p.second.view(), opt, key_of(p, opt),
                       out))
        hot.push_back(&p);
    const std::size_t lookups = 64 * total;
    std::size_t missed = 0;
    const spread t = timed_spread(a.repeats, [&] {
      for (std::size_t i = 0; i < lookups; ++i) {
        const auto& p = *hot[i % hot.size()];
        if (!cache.lookup(p.first.view(), p.second.view(), opt,
                          key_of(p, opt), out))
          ++missed;
      }
    });
    if (missed > 0) {
      std::fprintf(stderr, "FAIL: %zu cache_lookup_hit lookups missed\n",
                   missed);
      return 1;
    }
    const double per = 1e9 / static_cast<double>(lookups);
    report.add("cache_lookup_hit", t, lookups,
               {{"ns_per_lookup", t.median * per},
                {"min_ns_per_lookup", t.min * per},
                {"max_ns_per_lookup", t.max * per},
                {"hot_set", static_cast<double>(hot.size())}});
    std::printf("%-12s : %10.1f ns/lookup  (%zu resident hot pairs)\n",
                "cache_hit", t.median * per, hot.size());
  }

  // ---- 1f. cache hits through the service ----------------------------
  // The same hot set warmed into a service::aligner with the same cache
  // geometry.  Each timed request is submit() plus get() of a hit, so a
  // row less cache_lookup_hit is what the request path adds to the
  // probe, and the two rows tell the path's own cost from what
  // producers contend for.  Producers (1, or 2 when the cores allow)
  // walk the hot set from different offsets; ns_per_request is one
  // producer's time per request.
  for (const int want : {1, 2}) {
    const int n = std::min(want, static_cast<int>(cores));
    const auto opt = request_options();
    service::config cfg;
    cfg.max_batch = 64;
    cfg.max_linger = std::chrono::microseconds(300);
    cfg.queue_capacity = 1024;
    cfg.cache_capacity = 4096;
    cfg.cache_shards = 8;
    service::aligner svc(cfg);
    {
      std::vector<service::ticket> ts;
      ts.reserve(warm.size());
      for (const auto& p : warm)
        ts.push_back(svc.submit(p.first.view(), p.second.view(), opt));
      for (auto& t : ts) (void)t.get();
    }
    std::vector<const bio::read_pair*> hot;
    alignment_result out;
    for (const auto& p : warm)
      if (svc.cache()->lookup(p.first.view(), p.second.view(), opt,
                              key_of(p, opt), out))
        hot.push_back(&p);
    const std::size_t per_producer = 16 * total;
    const auto hits_before = svc.stats().cache_hits;
    const spread t = timed_spread(a.repeats, [&] {
      std::vector<std::thread> threads;
      for (int c = 0; c < n; ++c)
        threads.emplace_back([&, c] {
          const std::size_t offset =
              static_cast<std::size_t>(c) * hot.size() /
              static_cast<std::size_t>(n);
          for (std::size_t i = 0; i < per_producer; ++i) {
            const auto& p = *hot[(offset + i) % hot.size()];
            (void)svc.submit(p.first.view(), p.second.view(), opt).get();
          }
        });
      for (auto& th : threads) th.join();
    });
    const std::uint64_t requests =
        static_cast<std::uint64_t>(std::max(1, a.repeats)) *
        static_cast<std::uint64_t>(n) * per_producer;
    if (svc.stats().cache_hits - hits_before != requests) {
      std::fprintf(stderr, "FAIL: submit_get_hit requests missed the cache\n");
      return 1;
    }
    const double per = 1e9 / static_cast<double>(per_producer);
    const std::string name = "submit_get_hit_" + std::to_string(want);
    report.add(name, t, per_producer * static_cast<std::size_t>(n),
               {{"ns_per_request", t.median * per},
                {"min_ns_per_request", t.min * per},
                {"max_ns_per_request", t.max * per},
                {"producers", static_cast<double>(n)},
                {"hot_set", static_cast<double>(hot.size())}});
    std::printf("%-12s : %10.1f ns/request  (%d producers)\n", name.c_str(),
                t.median * per, n);
  }

  // ---- 2. shard scaling ---------------------------------------------
  // Cache disabled, all-distinct pairs: every request is real work.
  // `producers` (--threads, default 4, at most the cores) drive N
  // shards concurrently.
  double rps_shard1 = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    std::vector<double> times;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = shards;
      cfg.cache_capacity = 0;
      cfg.shard.max_batch = 64;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);
      stopwatch sw;
      std::vector<std::thread> threads;
      const std::size_t per =
          (total + static_cast<std::size_t>(producers) - 1) /
          static_cast<std::size_t>(producers);
      for (int c = 0; c < producers; ++c) {
        threads.emplace_back([&, c] {
          const std::size_t lo = static_cast<std::size_t>(c) * per;
          const std::size_t hi = std::min(total, lo + per);
          const auto opt = request_options();
          std::vector<service::ticket> window;
          window.reserve(64);
          long long sum = 0;
          std::size_t head = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            window.push_back(group.submit(pairs[i].first.view(),
                                          pairs[i].second.view(), opt));
            if (window.size() - head >= 64) sum += window[head++].get().score;
          }
          for (std::size_t i = head; i < window.size(); ++i)
            sum += window[i].get().score;
          (void)sum;
        });
      }
      for (auto& t : threads) t.join();
      times.push_back(sw.seconds());
      group.shutdown(true);
    }
    const spread t = spread_of(times);
    const double rps = static_cast<double>(total) / t.median;
    if (shards == 1) rps_shard1 = rps;
    const std::string name = "shards_" + std::to_string(shards);
    report.add(name, t, total,
               {{"requests_per_s", rps},
                {"shards", static_cast<double>(shards)},
                {"scaling_vs_1", rps_shard1 > 0.0 ? rps / rps_shard1 : 1.0}});
    std::printf("%-12s : %10.1f req/s  (%.2fx vs 1 shard)\n", name.c_str(),
                rps, rps_shard1 > 0.0 ? rps / rps_shard1 : 1.0);
  }

  // ---- 2b. saturated small batches ---------------------------------
  // Cache disabled, one shard, `producers` clients with 64 tickets
  // outstanding each, 8 x `total` requests.  Every batch, full or not,
  // is within the batcher's inline cell bound (64 x 48^2 and 8 x 150^2
  // cells), so only the bound's count of the queued requests decides
  // whether the batcher runs them one by one or hands them to the pool
  // to run side by side.  short_reads_48: the read pairs cut to 48 bp at
  // max_batch 64; small_batches_150: whole 150 bp pairs at max_batch 8.
  const struct { const char* name; index_t len; std::size_t max_batch; }
      saturated[] = {{"short_reads_48", 48, 64}, {"small_batches_150", 150, 8}};
  for (const auto& sat : saturated) {
    const std::size_t sat_total = 8 * total;
    std::vector<double> times, occupancies;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = 0;
      cfg.shard.max_batch = sat.max_batch;
      cfg.shard.max_linger = std::chrono::microseconds(300);
      cfg.shard.queue_capacity = 1024;
      service::service_group group(cfg);
      stopwatch sw;
      std::vector<std::thread> threads;
      const std::size_t per =
          (sat_total + static_cast<std::size_t>(producers) - 1) /
          static_cast<std::size_t>(producers);
      for (int c = 0; c < producers; ++c) {
        threads.emplace_back([&, c] {
          const std::size_t lo = static_cast<std::size_t>(c) * per;
          const std::size_t hi = std::min(sat_total, lo + per);
          const auto opt = request_options();
          std::vector<service::ticket> window;
          window.reserve(hi - lo);
          long long sum = 0;
          std::size_t head = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto q = pairs[i % pairs.size()].first.view();
            const auto s = pairs[i % pairs.size()].second.view();
            window.push_back(group.submit(
                stage::seq_view(q.data(), std::min(sat.len, q.size())),
                stage::seq_view(s.data(), std::min(sat.len, s.size())), opt));
            if (window.size() - head >= 64) sum += window[head++].get().score;
          }
          for (std::size_t i = head; i < window.size(); ++i)
            sum += window[i].get().score;
          (void)sum;
        });
      }
      for (auto& t : threads) t.join();
      times.push_back(sw.seconds());
      group.shutdown(true);
      occupancies.push_back(group.stats().mean_batch_occupancy);
    }
    const spread t = spread_of(times);
    const double rps = static_cast<double>(sat_total) / t.median;
    const double occupancy = spread_of(occupancies).median;
    report.add(sat.name, t, sat_total,
               {{"requests_per_s", rps}, {"batch_occupancy", occupancy}});
    std::printf("%-17s : %10.1f req/s  (%.1f requests per batch)\n",
                sat.name, rps, occupancy);
  }

  // ---- 3. adaptive vs fixed linger ----------------------------------
  // Bulk flood + interactive trickle under a deliberately generous
  // 5 ms max_linger.  Fixed pays it on every interactive request;
  // adaptive shrinks toward min_linger when interactive p99 > target.
  const std::size_t bulk_n = std::min<std::size_t>(total, 1024);
  const std::size_t inter_n = 64;
  for (const bool adaptive : {false, true}) {
    std::vector<double> p99s;
    for (int r = 0; r < std::max(1, a.repeats); ++r) {
      service::service_group::config cfg;
      cfg.shards = 1;
      cfg.cache_capacity = 0;
      cfg.shard.max_batch = 32;
      cfg.shard.max_linger = std::chrono::milliseconds(5);
      cfg.shard.queue_capacity = 2048;
      if (adaptive) {
        cfg.shard.adaptive_linger = true;
        cfg.shard.min_linger = std::chrono::microseconds(20);
        cfg.shard.interactive_p99_target = std::chrono::microseconds(500);
      }
      service::service_group group(cfg);
      const auto opt = request_options();
      std::thread bulk([&] {
        service::submit_options so;
        so.cls = service::request_class::bulk;
        std::vector<service::ticket> window;
        window.reserve(128);
        std::size_t head = 0;
        for (std::size_t i = 0; i < bulk_n; ++i) {
          window.push_back(group.submit(pairs[i % pairs.size()].first.view(),
                                        pairs[i % pairs.size()].second.view(),
                                        opt, so));
          if (window.size() - head >= 128)
            (void)window[head++].get();
        }
        for (std::size_t i = head; i < window.size(); ++i)
          (void)window[i].get();
      });
      for (std::size_t i = 0; i < inter_n; ++i) {
        const auto& p = pairs[(bulk_n + i) % pairs.size()];
        auto t = group.submit(p.first.view(), p.second.view(), opt);
        (void)t.get();  // trickle: one outstanding interactive request
      }
      bulk.join();
      group.shutdown(true);
      const auto st = group.stats();
      p99s.push_back(static_cast<double>(
                         st.of(service::request_class::interactive)
                             .p99_latency_ns) /
                     1e3);
    }
    // The row's "time" is the p99 itself (median_ns = p99 in ns).
    const spread p = spread_of(p99s);
    const double p99_us = p.median;
    const char* name = adaptive ? "linger_adaptive" : "linger_fixed";
    report.add(name, spread{p.median / 1e6, p.min / 1e6, p.max / 1e6},
               inter_n, {{"interactive_p99_us", p99_us}});
    std::printf("%-15s: interactive p99 %.0f us\n", name, p99_us);
  }

  // ---- 4. robustness counters ---------------------------------------
  // Exercise the deadline-shed and quarantine paths once so the meta
  // records live values of the new telemetry (the trajectory tooling
  // asserts their presence; nonzero proves the counters actually move).
  {
    service::aligner svc;  // defaults: quarantine on, threshold 2
    const auto opt = request_options();
    service::submit_options expired;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    for (int i = 0; i < 4; ++i) {
      auto t = svc.submit(pairs[i].first.view(), pairs[i].second.view(), opt,
                          expired);
      try {
        (void)t.get();
      } catch (const error&) {
      }
    }
    // A request that deterministically fails in isolation (extension
    // traceback beyond its full_matrix_cells budget) trips the repeat-
    // offender quarantine on the third submission.
    align_options bad = opt;
    bad.kind = align_kind::extension;
    bad.want_alignment = true;
    bad.full_matrix_cells = 4;
    for (int i = 0; i < 3; ++i) {
      try {
        (void)svc.submit(pairs[0].first.view(), pairs[0].second.view(), bad)
            .get();
      } catch (const error&) {
      }
    }
    svc.shutdown(true);
    const auto st = svc.stats();
    report.set_meta("deadline_expired",
                    static_cast<long long>(st.deadline_expired));
    report.set_meta("quarantined", static_cast<long long>(st.quarantined));
    std::printf("robustness   : %llu deadline-expired, %llu quarantined\n",
                static_cast<unsigned long long>(st.deadline_expired),
                static_cast<unsigned long long>(st.quarantined));
  }

  return report.write(a.out) ? 0 : 1;
}
