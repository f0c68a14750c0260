/// Tests for request-lifecycle tracing and the metrics/trace exporters:
/// the collector's ring recording and Chrome-trace JSON dump, the
/// disarmed fast path, span coverage of real service traffic, the
/// Prometheus dump through service and group, the counters summed from
/// per-thread stripes (live and after a drain), and the C API surface
/// (anyseq_tracing_start/stop, anyseq_service_dump_metrics/trace).

#include "service/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "capi/anyseq_c.h"
#include "service/router.hpp"
#include "service/service.hpp"
#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::random_codes;
using test::view;

std::string dump_json(const trace::collector& c) {
  const std::size_t need = c.dump_chrome_json(nullptr, 0);
  std::vector<char> buf(need + 1);
  EXPECT_EQ(c.dump_chrome_json(buf.data(), buf.size()), need);
  return std::string(buf.data());
}

/// RAII disarm so a failing assertion can't leak an armed collector
/// into later tests.
struct scoped_arm {
  explicit scoped_arm(trace::collector& c) { trace::arm(c); }
  ~scoped_arm() { trace::disarm(); }
};

TEST(TraceCollector, DisarmedIsInert) {
  EXPECT_FALSE(trace::armed());
  EXPECT_EQ(trace::now_if_armed(), 0);
  // emit/mark without a collector are no-ops, not crashes.
  trace::emit(trace::span::submit, 1, 123);
  trace::mark(trace::instant::shed, 2);
}

TEST(TraceCollector, RecordsAndDumpsChromeJson) {
  trace::collector col;
  {
    scoped_arm armed(col);
    ASSERT_TRUE(trace::armed());
    const std::int64_t t0 = trace::now_if_armed();
    ASSERT_GT(t0, 0);
    trace::emit(trace::span::submit, 7, t0, 1);
    trace::mark(trace::instant::linger_adapt, 0, 3);
  }
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.dropped(), 0u);

  const std::string json = dump_json(col);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"linger_adapt\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // Truncated dumps follow the snprintf contract: same needed(),
  // NUL-terminated prefix.
  char small[32];
  const std::size_t need = col.dump_chrome_json(nullptr, 0);
  EXPECT_EQ(col.dump_chrome_json(small, sizeof(small)), need);
  EXPECT_EQ(std::strlen(small), sizeof(small) - 1);
  EXPECT_EQ(std::string(small), json.substr(0, sizeof(small) - 1));
}

TEST(TraceCollector, EmitIgnoresZeroStartTimestamp) {
  trace::collector col;
  scoped_arm armed(col);
  // A span opened while disarmed carries t0 == 0; emitting it after
  // arming must be dropped, not recorded with a garbage duration.
  trace::emit(trace::span::cache_probe, 1, 0);
  EXPECT_EQ(col.size(), 0u);
}

TEST(TraceCollector, RingWrapKeepsNewestAndCountsDropped) {
  trace::collector::config cfg;
  cfg.events_per_thread = 16;  // minimum ring
  cfg.max_threads = 1;
  trace::collector col(cfg);
  {
    scoped_arm armed(col);
    for (int i = 0; i < 40; ++i)
      trace::mark(trace::instant::shed, static_cast<std::uint32_t>(i), i);
  }
  EXPECT_EQ(col.size(), 16u);
  EXPECT_EQ(col.dropped(), 24u);
  const std::string json = dump_json(col);
  EXPECT_NE(json.find("\"dropped\":24"), std::string::npos);
  // Oldest surviving event is #24; #0 was overwritten.
  EXPECT_NE(json.find("\"id\":24"), std::string::npos);
  EXPECT_EQ(json.find("\"id\":0,"), std::string::npos);
}

TEST(TraceCollector, RearmRebindsThreadsToTheNewCollector) {
  trace::collector first;
  {
    scoped_arm armed(first);
    trace::mark(trace::instant::shed, 1);
  }
  trace::collector second;
  {
    scoped_arm armed(second);
    trace::mark(trace::instant::shed, 2);
  }
  // Each collector saw exactly its own event — the thread's stale
  // binding to `first` was generation-invalidated, not reused.
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
}

/// Real traffic end to end: every lifecycle span shows up in the trace
/// of a served workload, and cache hits mark the probe.
TEST(TraceService, LifecycleSpansCoverServedTraffic) {
  trace::collector col;
  {
    scoped_arm armed(col);
    service::config cfg;
    cfg.max_batch = 8;
    cfg.queue_capacity = 64;
    cfg.cache_capacity = 32;
    service::aligner svc(cfg);
    const auto q = random_codes(96, 5);
    const auto s = random_codes(96, 6);
    for (int round = 0; round < 3; ++round) {
      ticket ts[8];
      for (auto& t : ts) t = svc.submit(view(q), view(s));
      for (auto& t : ts) ASSERT_EQ(t.get().q_end, 96);
    }
    svc.shutdown(true);
  }
#if ANYSEQ_TRACING
  const std::string json = dump_json(col);
  for (const char* name :
       {"submit", "cache_probe", "ring_wait", "batch_collect",
        "kernel_execute", "complete"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
#else
  EXPECT_EQ(col.size(), 0u);
#endif
}

TEST(TraceService, DumpMetricsRendersServedTraffic) {
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  service::aligner svc(cfg);
  const auto q = random_codes(80, 9);
  const auto s = random_codes(80, 10);
  for (int i = 0; i < 8; ++i) {
    auto t = svc.submit(view(q), view(s));
    ASSERT_EQ(t.get().q_end, 80);
  }
  svc.shutdown(true);

  const std::size_t need = svc.dump_metrics(nullptr, 0);
  ASSERT_GT(need, 0u);
  std::vector<char> buf(need + 1);
  EXPECT_EQ(svc.dump_metrics(buf.data(), buf.size()), need);
  const std::string text(buf.data());
  EXPECT_NE(text.find("anyseq_requests_total{class=\"interactive\","
                      "outcome=\"completed\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE anyseq_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("anyseq_exec_requests_total"), std::string::npos);
  EXPECT_NE(text.find("anyseq_exec_gcups "), std::string::npos);
  // Executed requests are accounted exactly once across the table.
  const auto st = svc.stats();
  std::uint64_t exec_requests = 0;
  for (std::size_t r = 0; r < n_exec_routes; ++r)
    for (std::size_t v = 0; v < n_exec_variants; ++v)
      exec_requests += st.exec.at[r][v].requests;
  EXPECT_EQ(exec_requests, 8u);
  EXPECT_GT(st.exec.total_gcups(), 0.0);
}

TEST(TraceService, GroupDumpIncludesShardBreakdown) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 0;
  service_group group(cfg);
  const auto q = random_codes(64, 21);
  const auto s = random_codes(64, 22);
  for (int i = 0; i < 6; ++i) {
    auto t = group.submit(view(q), view(s));
    ASSERT_EQ(t.get().q_end, 64);
  }
  group.shutdown(true);

  const std::size_t need = group.dump_metrics(nullptr, 0);
  std::vector<char> buf(need + 1);
  EXPECT_EQ(group.dump_metrics(buf.data(), buf.size()), need);
  const std::string text(buf.data());
  EXPECT_NE(text.find("anyseq_shard_accepted_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("anyseq_shard_accepted_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("anyseq_shard_queue_depth{shard=\"0\"} 0\n"),
            std::string::npos);
}

/// Band doubling surfaces through service_stats, the router merge and
/// the Prometheus dump, for traceback batches and for requests that ran
/// solo alike.  Every pair is a near-copy, certified in the first band,
/// so every request is one banded pair and one band pass — however the
/// batcher happened to coalesce them.
TEST(TraceService, TracebacksReportBandDoubling) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 0;
  cfg.shard.max_linger = std::chrono::microseconds(2000);
  service_group group(cfg);
  align_options tb;
  tb.want_alignment = true;
  tb.threads = 1;
  std::vector<std::vector<char_t>> qs, ss;
  for (std::uint64_t k = 0; k < 32; ++k) {
    qs.push_back(random_codes(150, 300 + k));
    ss.push_back(test::mutate(qs.back(), 400 + k, 0.02, 0.0));
  }
  std::vector<ticket> tickets;
  for (std::size_t k = 0; k < qs.size(); ++k)
    tickets.push_back(group.submit(view(qs[k]), view(ss[k]), tb));
  for (auto& t : tickets) ASSERT_TRUE(t.get().has_alignment);
  group.shutdown(true);

  const service_stats st = group.stats();
  const std::uint64_t requests = qs.size();
  EXPECT_EQ(st.batch_banded_pairs, requests);
  EXPECT_EQ(st.batch_band_passes, requests);
  std::uint64_t shard_sum = 0;
  for (std::size_t i = 0; i < group.shard_count(); ++i)
    shard_sum += group.shard(i).stats().batch_banded_pairs;
  EXPECT_EQ(shard_sum, st.batch_banded_pairs);

  const std::size_t need = group.dump_metrics(nullptr, 0);
  std::vector<char> buf(need + 1);
  EXPECT_EQ(group.dump_metrics(buf.data(), buf.size()), need);
  const std::string text(buf.data());
  EXPECT_NE(text.find("anyseq_batch_traceback_band_total{count=\"banded_"
                      "pairs\"} " +
                      std::to_string(requests) + "\n"),
            std::string::npos);
}

/// The service's threads carry their role in their name, so CPU splits
/// by role from /proc/<pid>/task/*/comm without a rebuild.
TEST(TraceService, ThreadsAreNamedByRole) {
#if defined(__linux__)
  service_group::config cfg;
  cfg.shards = 1;
  service_group group(cfg);
  const auto q = random_codes(64, 5);
  ASSERT_GT(group.submit(view(q), view(q)).get().score, 0);
  std::map<std::string, int> roles;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) ++roles[name];
  }
  // One shard owns exactly one thread, its batcher; every other
  // anyseq thread is a pool worker.
  EXPECT_EQ(roles["anyseq-batcher"], 1);
  EXPECT_EQ(roles["anyseq-pool"], parallel::thread_pool::global().size());
  for (const auto& [name, count] : roles) {
    if (name.rfind("anyseq-", 0) == 0) {
      EXPECT_TRUE(name == "anyseq-batcher" || name == "anyseq-pool")
          << name << " x" << count;
    }
  }
  group.shutdown(true);
#else
  GTEST_SKIP() << "thread names are read from Linux /proc";
#endif
}

/// p90/p999 surfaced through service_stats and merged router stats.
TEST(TraceService, PercentileFieldsFilledAndOrdered) {
  service_group::config cfg;
  cfg.shards = 2;
  service_group group(cfg);
  for (int i = 0; i < 32; ++i) {
    const auto q = random_codes(64 + i, 100 + i);
    const auto s = random_codes(64 + i, 200 + i);
    auto t = group.submit(view(q), view(s));
    ASSERT_GT(t.get().q_end, 0);
  }
  group.shutdown(true);
  const auto st = group.stats();
  EXPECT_GT(st.p50_latency_ns, 0u);
  EXPECT_LE(st.p50_latency_ns, st.p90_latency_ns);
  EXPECT_LE(st.p90_latency_ns, st.p99_latency_ns);
  EXPECT_LE(st.p99_latency_ns, st.p999_latency_ns);
  const auto& ia = st.of(request_class::interactive);
  EXPECT_LE(ia.p90_latency_ns, ia.p999_latency_ns);
  EXPECT_EQ(ia.latency_hist.count, 32u);
}

// ---------------------------------------------------------------------
// Counter stripes
// ---------------------------------------------------------------------

/// A scrape racing hits and misses from two submitters never reads a
/// class, or the total, with more requests completed or failed than
/// accepted: stats() loads completed and failed before accepted.
TEST(ServiceStats, LiveScrapeNeverSeesCompletedAboveAccepted) {
  service::config cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 64;
  cfg.max_linger = std::chrono::microseconds(20);
  cfg.cache_capacity = 256;
  aligner svc(cfg);
  constexpr int n_hot = 16;
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < n_hot; ++i) {
    qs.push_back(random_codes(48, 300 + i));
    ss.push_back(random_codes(48, 400 + i));
    ASSERT_EQ(svc.submit(view(qs.back()), view(ss.back())).get().q_end, 48);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t)
    submitters.emplace_back([&, t] {
      submit_options so;
      so.cls = t == 0 ? request_class::interactive : request_class::bulk;
      const auto miss_q = random_codes(48, 500 + t);
      auto miss_s = random_codes(48, 600 + t);
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (i % 256 == 255) {
          // A miss: the counter's base-4 digits make a subject never
          // submitted before.
          for (int k = 0; k < 16; ++k)
            miss_s[static_cast<std::size_t>(k)] =
                static_cast<char_t>((i >> (2 * k)) & 3);
          (void)svc.submit(view(miss_q), view(miss_s), {}, so).get();
        } else {
          const std::size_t h = i % n_hot;
          (void)svc.submit(view(qs[h]), view(ss[h]), {}, so).get();
        }
      }
    });

  std::uint64_t scrapes = 0, violations = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  while (std::chrono::steady_clock::now() < until) {
    const service_stats st = svc.stats();
    ++scrapes;
    if (st.completed + st.failed > st.accepted) ++violations;
    for (const class_stats& cs : st.per_class)
      if (cs.completed + cs.failed > cs.accepted) ++violations;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : submitters) th.join();
  EXPECT_GT(scrapes, 0u);
  EXPECT_EQ(violations, 0u) << "over " << scrapes << " scrapes";
}

/// What drive_hits_and_misses submitted, per class.
struct submitted {
  std::uint64_t requests[n_request_classes] = {};
  std::uint64_t hits[n_request_classes] = {};
  std::uint64_t misses = 0;
};

/// Warm a hot set into `svc`'s cache, then submit hits and misses in
/// both classes from more threads than a service has counter stripes,
/// so some threads share a stripe.
template <class Service>
submitted drive_hits_and_misses(Service& svc) {
  constexpr int n_hot = 8, hits_each = 48, misses_each = 6;
  constexpr int n_threads = static_cast<int>(aligner::counter_stripes) + 3;
  constexpr auto ia = static_cast<std::size_t>(request_class::interactive);
  constexpr auto bulk = static_cast<std::size_t>(request_class::bulk);
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < n_hot; ++i) {
    qs.push_back(random_codes(40, 700 + i));
    ss.push_back(random_codes(40, 800 + i));
    EXPECT_EQ(svc.submit(view(qs.back()), view(ss.back())).get().q_end, 40);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t)
    threads.emplace_back([&, t] {
      submit_options so;
      so.cls = t % 2 == 0 ? request_class::interactive : request_class::bulk;
      for (int i = 0; i < hits_each; ++i) {
        const auto h = static_cast<std::size_t>((t + i) % n_hot);
        EXPECT_EQ(svc.submit(view(qs[h]), view(ss[h]), {}, so).get().q_end,
                  40);
      }
      for (int i = 0; i < misses_each; ++i) {
        const auto q = random_codes(40, 1000 + 100 * t + i);
        EXPECT_EQ(svc.submit(view(q), view(ss[0]), {}, so).get().q_end, 40);
      }
    });
  for (auto& th : threads) th.join();

  submitted out;
  out.requests[ia] = n_hot;
  out.misses = n_hot + n_threads * misses_each;
  for (int t = 0; t < n_threads; ++t) {
    const std::size_t c = t % 2 == 0 ? ia : bulk;
    out.requests[c] += hits_each + misses_each;
    out.hits[c] += hits_each;
  }
  return out;
}

/// Once every ticket is back, the stripes sum to exactly what was
/// submitted, and each class histogram holds one sample per completion.
void expect_exact_counts(const service_stats& st, const submitted& want) {
  std::uint64_t requests = 0, hits = 0;
  for (std::size_t c = 0; c < n_request_classes; ++c) {
    const class_stats& cs = st.per_class[c];
    EXPECT_EQ(cs.accepted, want.requests[c]) << "class " << c;
    EXPECT_EQ(cs.completed, want.requests[c]) << "class " << c;
    EXPECT_EQ(cs.failed, 0u) << "class " << c;
    EXPECT_EQ(cs.cache_hits, want.hits[c]) << "class " << c;
    EXPECT_EQ(cs.latency_hist.count, cs.completed) << "class " << c;
    requests += want.requests[c];
    hits += want.hits[c];
  }
  EXPECT_EQ(st.accepted, requests);
  EXPECT_EQ(st.completed, requests);
  EXPECT_EQ(st.cache_hits, hits);
  EXPECT_EQ(st.cache_misses, want.misses);
}

TEST(ServiceStats, CountsAreExactWithMoreThreadsThanStripes) {
  service::config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = std::chrono::microseconds(20);
  cfg.queue_capacity = 64;
  cfg.cache_capacity = 4096;
  aligner svc(cfg);
  const submitted want = drive_hits_and_misses(svc);
  expect_exact_counts(svc.stats(), want);
}

TEST(ServiceStats, GroupSumsStripedCountsExactlyAcrossShards) {
  service_group::config cfg;
  cfg.shards = 2;
  cfg.shard.max_batch = 8;
  cfg.shard.max_linger = std::chrono::microseconds(20);
  cfg.shard.queue_capacity = 64;
  cfg.cache_capacity = 4096;
  service_group group(cfg);
  const submitted want = drive_hits_and_misses(group);
  const service_stats st = group.stats();
  expect_exact_counts(st, want);
  std::uint64_t accepted = 0, completed = 0, hits = 0, misses = 0;
  for (std::size_t i = 0; i < group.shard_count(); ++i) {
    const service_stats sh = group.shard(i).stats();
    EXPECT_GT(sh.accepted, 0u) << "shard " << i << " served nothing";
    accepted += sh.accepted;
    completed += sh.completed;
    hits += sh.cache_hits;
    misses += sh.cache_misses;
  }
  EXPECT_EQ(accepted, st.accepted);
  EXPECT_EQ(completed, st.completed);
  EXPECT_EQ(hits, st.cache_hits);
  EXPECT_EQ(misses, st.cache_misses);
}

// ---------------------------------------------------------------------
// C API
// ---------------------------------------------------------------------

TEST(CApiObservability, TracingStartStopAndDumps) {
  anyseq_service* svc = anyseq_service_create(8, 100, 64, 0);
  ASSERT_NE(svc, nullptr);

  // Dump-trace before tracing starts is a documented error.
  EXPECT_EQ(anyseq_service_dump_trace(svc, nullptr, 0), -1);

  ASSERT_EQ(anyseq_tracing_start(0), 0);
  EXPECT_EQ(anyseq_tracing_start(0), -1);  // double start

  anyseq_ticket* t = anyseq_service_submit(
      svc, "ACGTACGTACGT", "ACGTCCGTACGT", ANYSEQ_ALIGN_GLOBAL, 2, -1, 0,
      -1, 0);
  ASSERT_NE(t, nullptr);
  EXPECT_GT(anyseq_service_wait(t, nullptr, nullptr), 0);

  const int64_t trace_need = anyseq_service_dump_trace(svc, nullptr, 0);
  ASSERT_GT(trace_need, 0);
  std::vector<char> trace_buf(static_cast<std::size_t>(trace_need) + 1);
  EXPECT_EQ(anyseq_service_dump_trace(svc, trace_buf.data(),
                                      trace_buf.size()),
            trace_need);
  EXPECT_NE(std::string(trace_buf.data()).find("\"traceEvents\":["),
            std::string::npos);

  const int64_t m_need = anyseq_service_dump_metrics(svc, nullptr, 0);
  ASSERT_GT(m_need, 0);
  std::vector<char> m_buf(static_cast<std::size_t>(m_need) + 1);
  EXPECT_EQ(anyseq_service_dump_metrics(svc, m_buf.data(), m_buf.size()),
            m_need);
  EXPECT_NE(std::string(m_buf.data()).find("anyseq_requests_total"),
            std::string::npos);

  EXPECT_EQ(anyseq_tracing_stop(), 0);
  EXPECT_EQ(anyseq_tracing_stop(), -1);  // double stop
  EXPECT_EQ(anyseq_service_dump_trace(svc, nullptr, 0), -1);

  EXPECT_EQ(anyseq_service_dump_metrics(nullptr, nullptr, 0), -1);
  anyseq_service_destroy(svc);
}

TEST(CApiObservability, StatsExposeNewPercentileFields) {
  anyseq_service* svc = anyseq_service_create(8, 100, 64, 0);
  ASSERT_NE(svc, nullptr);
  for (int i = 0; i < 8; ++i) {
    anyseq_ticket* t = anyseq_service_submit(
        svc, "ACGTACGTACGTACGTACGT", "ACGTACCTACGTACGAACGT",
        ANYSEQ_ALIGN_GLOBAL, 2, -1, 0, -1, 0);
    ASSERT_NE(t, nullptr);
    (void)anyseq_service_wait(t, nullptr, nullptr);
  }
  anyseq_service_stats st;
  ASSERT_EQ(anyseq_service_get_stats(svc, &st), 0);
  EXPECT_GT(st.p90_latency_ns, 0u);
  EXPECT_LE(st.p90_latency_ns, st.p999_latency_ns);
  EXPECT_LE(st.p50_latency_ns, st.p90_latency_ns);
  EXPECT_GT(st.interactive_p999_latency_ns, 0u);
  EXPECT_EQ(st.bulk_p999_latency_ns, 0u);  // no bulk traffic submitted
  anyseq_service_destroy(svc);
}

}  // namespace
}  // namespace anyseq::service
