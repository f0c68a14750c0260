/// Acceptance stress test for the alignment service (and the headline
/// TSan workload): >= 10k mixed-size requests from >= 4 concurrent
/// producer threads, every result byte-identical to a synchronous
/// align() call, and a clean drain with zero leaked tickets.
///
/// Producers run a sliding window of outstanding tickets so the test
/// also exercises steady-state slot recycling rather than a one-shot
/// fill/drain.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "service/service.hpp"
#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::random_codes;
using test::view;

constexpr int kProducers = 4;
constexpr int kPerProducer = 2500;  // 10k requests total
constexpr int kWindow = 64;        // outstanding tickets per producer

/// The rotating option mix: exercises both batch routes across kinds
/// and option-compatibility flush boundaries under concurrency.
std::vector<align_options> option_mix() {
  std::vector<align_options> mix(7);
  mix[0].kind = align_kind::global;  // batch_score
  mix[1].kind = align_kind::global;  // batch_traceback
  mix[1].want_alignment = true;
  mix[2].kind = align_kind::global;  // batch_score, distinct gap model
  mix[2].gap_open = -2;
  mix[3].kind = align_kind::local;   // batch_traceback
  mix[3].want_alignment = true;
  mix[4].kind = align_kind::semiglobal;  // batch_score
  mix[5].kind = align_kind::global;  // batch_score via the Myers
  mix[5].match = 0;                  // bit-parallel engine (unit cost)
  mix[5].mismatch = -1;
  mix[5].gap_extend = -1;
  mix[6].kind = align_kind::global;  // batch_score, int32 reference route
  mix[6].precision = score_precision::int32;
  return mix;
}

void expect_identical(const alignment_result& got,
                      const alignment_result& want, std::size_t tag) {
  ASSERT_EQ(got.score, want.score) << "request " << tag;
  ASSERT_EQ(got.q_begin, want.q_begin) << "request " << tag;
  ASSERT_EQ(got.q_end, want.q_end) << "request " << tag;
  ASSERT_EQ(got.s_begin, want.s_begin) << "request " << tag;
  ASSERT_EQ(got.s_end, want.s_end) << "request " << tag;
  ASSERT_EQ(got.q_aligned, want.q_aligned) << "request " << tag;
  ASSERT_EQ(got.s_aligned, want.s_aligned) << "request " << tag;
  ASSERT_EQ(got.cigar, want.cigar) << "request " << tag;
  ASSERT_EQ(got.has_alignment, want.has_alignment) << "request " << tag;
  ASSERT_EQ(got.cells, want.cells) << "request " << tag;
  ASSERT_NE(got.variant, nullptr) << "request " << tag;
  ASSERT_STREQ(got.variant, want.variant) << "request " << tag;
}

TEST(ServiceStress, TenThousandMixedRequestsByteIdenticalToSync) {
  // A shared pool of sequences with mixed lengths 8..96; views into it
  // stay valid for the whole test.
  constexpr std::size_t kPool = 96;
  std::vector<std::vector<char_t>> pool;
  pool.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i)
    pool.push_back(random_codes(8 + (i * 7) % 89, 1000 + i));
  const auto mix = option_mix();

  config cfg;
  cfg.max_batch = 32;
  cfg.max_linger = std::chrono::microseconds(500);
  cfg.queue_capacity = 256;
  cfg.max_outstanding = 1024;
  cfg.policy = backpressure::block;
  aligner svc(cfg);

  struct record {
    std::size_t q_idx, s_idx, opt_idx;
    alignment_result got;
  };
  std::vector<std::vector<record>> results(kProducers);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto& out = results[p];
      out.reserve(kPerProducer);
      std::vector<std::pair<ticket, record>> window;
      window.reserve(kWindow);
      const auto drain_one = [&] {
        out.push_back(std::move(window.front().second));
        out.back().got = window.front().first.get();
        window.erase(window.begin());
      };
      for (int i = 0; i < kPerProducer; ++i) {
        // Deterministic but producer-specific request pattern.
        const std::size_t q_idx = (p * 131 + i * 17) % kPool;
        const std::size_t s_idx = (p * 197 + i * 29) % kPool;
        const std::size_t opt_idx =
            (static_cast<std::size_t>(p) + i) % mix.size();
        auto t = svc.submit(view(pool[q_idx]), view(pool[s_idx]),
                            mix[opt_idx]);
        window.emplace_back(std::move(t), record{q_idx, s_idx, opt_idx, {}});
        if (window.size() >= kWindow) drain_one();
      }
      while (!window.empty()) drain_one();
    });
  }
  for (auto& t : producers) t.join();

  svc.shutdown(/*drain=*/true);

  // Clean drain, zero leaked tickets.
  const auto snap = svc.stats();
  EXPECT_EQ(snap.accepted, static_cast<std::uint64_t>(kProducers) *
                               kPerProducer);
  EXPECT_EQ(snap.completed + snap.failed, snap.accepted);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight_batches, 0u);
  EXPECT_GE(snap.mean_batch_occupancy, 1.0);
  EXPECT_GT(snap.latency_samples, 0u);
  RecordProperty("mean_batch_occupancy", snap.mean_batch_occupancy);
  std::printf("stress: %llu requests in %llu batches (occupancy %.2f), "
              "p50 %llu ns, p99 %llu ns\n",
              static_cast<unsigned long long>(snap.batched_requests),
              static_cast<unsigned long long>(snap.batches),
              snap.mean_batch_occupancy,
              static_cast<unsigned long long>(snap.p50_latency_ns),
              static_cast<unsigned long long>(snap.p99_latency_ns));

  // Byte-identical to synchronous align(), request by request.
  std::size_t tag = 0;
  for (const auto& per_producer : results) {
    ASSERT_EQ(per_producer.size(), static_cast<std::size_t>(kPerProducer));
    for (const auto& r : per_producer) {
      const auto want =
          align(view(pool[r.q_idx]), view(pool[r.s_idx]), mix[r.opt_idx]);
      expect_identical(r.got, want, tag);
      ++tag;
    }
  }
}

}  // namespace
}  // namespace anyseq::service
