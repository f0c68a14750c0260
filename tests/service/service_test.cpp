/// Functional tests for the asynchronous alignment service: result
/// identity with synchronous align(), ticket semantics, coalescing,
/// every backpressure policy, shutdown in both modes, and telemetry.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::random_codes;
using test::view;
using namespace std::chrono_literals;

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
  ASSERT_NE(got.variant, nullptr);
  ASSERT_NE(want.variant, nullptr);
  EXPECT_STREQ(got.variant, want.variant);
}

/// Poll the service until `pred(stats())` holds or ~2s elapse.
template <class Pred>
bool stats_become(const aligner& svc, Pred&& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(svc.stats())) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(Service, SingleRequestMatchesSynchronousAlign) {
  const auto q = random_codes(48, 1);
  const auto s = random_codes(40, 2);
  for (const bool traceback : {false, true}) {
    align_options opt;
    opt.want_alignment = traceback;
    aligner svc;
    auto t = svc.submit(view(q), view(s), opt);
    EXPECT_TRUE(t.valid());
    const auto got = t.get();
    EXPECT_FALSE(t.valid());  // consumed
    expect_identical(got, align(view(q), view(s), opt));
  }
}

TEST(Service, SubmitStringsCopiesInputs) {
  aligner svc;
  ticket t;
  {
    // Temporaries die before get(): the service must have copied them.
    std::string q = "ACGTACGTAC";
    std::string s = "ACGTTCGTAC";
    t = svc.submit_strings(q, s);
  }
  const auto got = t.get();
  EXPECT_EQ(got.score, align_strings("ACGTACGTAC", "ACGTTCGTAC").score);
}

TEST(Service, CompatibleRequestsCoalesceIntoOneBatch) {
  // A long linger lets the batcher absorb everything the producer
  // submits; 32 compatible requests must execute as one batch.
  config cfg;
  cfg.max_batch = 32;
  cfg.max_linger = 200ms;
  aligner svc(cfg);
  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 32; ++i) {
    qs.push_back(random_codes(64, 100 + i));
    ss.push_back(random_codes(64, 200 + i));
  }
  std::vector<ticket> tickets;
  for (int i = 0; i < 32; ++i)
    tickets.push_back(svc.submit(view(qs[i]), view(ss[i])));
  for (int i = 0; i < 32; ++i)
    expect_identical(tickets[i].get(), align(view(qs[i]), view(ss[i])));
  const auto snap = svc.stats();
  EXPECT_EQ(snap.accepted, 32u);
  EXPECT_EQ(snap.completed, 32u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_occupancy, 32.0);
}

TEST(Service, SmallBatchesRunOnTheBatcherAndFullOnesOnThePool) {
  // A lone 150 x 150 pair is within the inline cell bound and runs on
  // the batcher; 64 of them coalesce into one batch above it, which is
  // handed to the pool.  A small batch dispatched while queued requests
  // push the shard past the bound goes to the pool too.  All are
  // byte-identical to synchronous align().
  static_assert(150 * 150 <= aligner::inline_cell_bound);
  static_assert(64 * 150 * 150 > aligner::inline_cell_bound);
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 200ms;
  aligner svc(cfg);
  const auto q = random_codes(150, 17);
  const auto s = random_codes(150, 18);
  expect_identical(svc.submit(view(q), view(s)).get(),
                   align(view(q), view(s)));
  auto snap = svc.stats();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.inline_batches, 1u);

  std::vector<std::vector<char_t>> qs, ss;
  for (int i = 0; i < 64; ++i) {
    qs.push_back(random_codes(150, 300 + i));
    ss.push_back(random_codes(150, 400 + i));
  }
  std::vector<ticket> tickets;
  for (int i = 0; i < 64; ++i)
    tickets.push_back(svc.submit(view(qs[i]), view(ss[i])));
  for (int i = 0; i < 64; ++i)
    expect_identical(tickets[i].get(), align(view(qs[i]), view(ss[i])));
  snap = svc.stats();
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.inline_batches, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_occupancy, 32.5);

  // A lone 150 x 150 pair dispatched at an option boundary while an
  // incompatible 512 x 512 pair (exactly the bound) waits: together they
  // exceed the bound, so the first goes to the pool.  The second then
  // lingers alone with nothing queued, exactly at the bound, and runs on
  // the batcher.
  static_assert(512 * 512 == aligner::inline_cell_bound);
  align_options b;
  b.match = 3;
  const auto q512 = random_codes(512, 19);
  const auto s512 = random_codes(512, 20);
  auto first = svc.submit(view(q), view(s));
  auto second = svc.submit(view(q512), view(s512), b);
  expect_identical(first.get(), align(view(q), view(s)));
  expect_identical(second.get(), align(view(q512), view(s512), b));
  snap = svc.stats();
  EXPECT_EQ(snap.batches, 4u);
  EXPECT_EQ(snap.inline_batches, 2u);
}

TEST(Service, OptionBoundaryFlushesBatch) {
  // Alternating incompatible options force flushes: batches > 1 even
  // within one linger window.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 100ms;
  aligner svc(cfg);
  const auto q = random_codes(32, 3);
  const auto s = random_codes(32, 4);
  align_options a;         // match 2
  align_options b;
  b.match = 3;             // incompatible with a
  std::vector<ticket> tickets;
  for (int i = 0; i < 8; ++i)
    tickets.push_back(svc.submit(view(q), view(s), i % 2 == 0 ? a : b));
  for (int i = 0; i < 8; ++i) {
    const auto got = tickets[i].get();
    expect_identical(got, align(view(q), view(s), i % 2 == 0 ? a : b));
  }
  EXPECT_GE(svc.stats().batches, 2u);
}

TEST(Service, MixedKindsAndRoutesAllMatchSync) {
  aligner svc;
  const auto q = random_codes(40, 5);
  const auto s = random_codes(44, 6);
  std::vector<align_options> opts(4);
  opts[0].kind = align_kind::global;             // batch_score
  opts[1].want_alignment = true;                 // batch_traceback
  opts[2].kind = align_kind::local;              // batch_score
  opts[3].kind = align_kind::semiglobal;         // batch_score
  std::vector<ticket> tickets;
  for (const auto& o : opts) tickets.push_back(svc.submit(view(q), view(s), o));
  for (std::size_t i = 0; i < opts.size(); ++i)
    expect_identical(tickets[i].get(), align(view(q), view(s), opts[i]));
}

TEST(Service, EmptySequencesMatchSync) {
  aligner svc;
  const auto s = random_codes(16, 7);
  const std::vector<char_t> empty;
  align_options opt;
  opt.want_alignment = true;
  auto t = svc.submit(view(empty), view(s), opt);
  expect_identical(t.get(), align(view(empty), view(s), opt));
}

TEST(Service, InvalidOptionsThrowSynchronously) {
  aligner svc;
  const auto q = random_codes(8, 8);
  align_options opt;
  opt.gap_extend = 1;  // must be <= 0
  EXPECT_THROW((void)svc.submit(view(q), view(q), opt),
               invalid_argument_error);
  EXPECT_EQ(svc.stats().accepted, 0u);
}

TEST(Service, ExecutionErrorPropagatesThroughTicket) {
  // Extension traceback beyond full_matrix_cells is rejected by the
  // dispatcher at execution time; the ticket must deliver that error.
  aligner svc;
  const auto q = random_codes(16, 9);
  align_options opt;
  opt.kind = align_kind::extension;
  opt.want_alignment = true;
  opt.full_matrix_cells = 4;
  auto t = svc.submit(view(q), view(q), opt);
  EXPECT_THROW((void)t.get(), invalid_argument_error);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST(Service, TicketSemantics) {
  ticket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.get(), invalid_argument_error);
  EXPECT_THROW((void)empty.ready(), invalid_argument_error);

  aligner svc;
  const auto q = random_codes(8, 10);
  auto t = svc.submit(view(q), view(q));
  ticket moved = std::move(t);
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(moved.valid());
  (void)moved.get();
  EXPECT_FALSE(moved.valid());
}

TEST(Service, ReadyBecomesTrueWithoutGet) {
  aligner svc;
  const auto q = random_codes(8, 11);
  auto t = svc.submit(view(q), view(q));
  for (int i = 0; i < 2000 && !t.ready(); ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(t.ready());
  (void)t.get();
}

TEST(Service, AbandonedTicketsLeakNoSlots) {
  config cfg;
  aligner svc(cfg);
  const auto q = random_codes(8, 12);
  for (int i = 0; i < 16; ++i) {
    auto t = svc.submit(view(q), view(q));
    // dropped without get()
  }
  svc.shutdown(true);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  EXPECT_EQ(snap.completed, 16u);
}

TEST(Service, BlockPolicyEventuallyAdmitsEverything) {
  // Producer runs far ahead of the consumer, so it must block on slot
  // exhaustion (max_outstanding 4) and resume as tickets retire.
  config cfg;
  cfg.queue_capacity = 2;
  cfg.max_outstanding = 4;
  cfg.policy = backpressure::block;
  aligner svc(cfg);
  const auto q = random_codes(32, 13);
  std::mutex m;
  std::deque<ticket> handed_off;
  std::thread producer([&] {
    for (int i = 0; i < 24; ++i) {
      auto t = svc.submit(view(q), view(q));
      std::lock_guard lock(m);
      handed_off.push_back(std::move(t));
    }
  });
  int got = 0;
  while (got < 24) {
    ticket t;
    {
      std::lock_guard lock(m);
      if (!handed_off.empty()) {
        t = std::move(handed_off.front());
        handed_off.pop_front();
      }
    }
    if (t.valid()) {
      (void)t.get();
      ++got;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  producer.join();
  const auto snap = svc.stats();
  EXPECT_EQ(snap.accepted, 24u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
}

/// Fixture that wedges the service: one slow request occupies the only
/// workspace, a second batch blocks waiting for it, so everything else
/// piles up in the admission queue — deterministic backpressure.
class ServiceBackpressure : public ::testing::Test {
 protected:
  static config wedged_config(backpressure policy) {
    config cfg;
    cfg.max_batch = 1;
    cfg.max_linger = 0us;
    cfg.queue_capacity = 2;
    cfg.max_outstanding = 64;
    cfg.max_inflight_batches = 1;
    cfg.policy = policy;
    return cfg;
  }

  /// Submit the wedge (a large, slow alignment) and wait until it is
  /// executing and the next batch is parked on the workspace gate.  It
  /// must outlast the 20 ms deadline below with room to spare: 48000 x
  /// 48000 takes ~250 ms per test with striped tiles on one AVX-512
  /// core (~13 s in the scalar-only build) — the batch runs on a pool
  /// worker, so its wavefront runs inline there (24000 x 24000 had
  /// fallen to ~16 ms on four cores, inside the deadline).
  ticket wedge(aligner& svc) {
    slow_q = random_codes(48000, 14);
    slow_s = random_codes(48000, 15);
    auto t = svc.submit(view(slow_q), view(slow_s));
    EXPECT_TRUE(stats_become(
        svc, [](const service_stats& s) { return s.in_flight_batches == 1; }));
    return t;
  }

  std::vector<char_t> slow_q, slow_s, small = random_codes(8, 16);
};

TEST_F(ServiceBackpressure, RejectPolicyThrowsWhenQueueIsFull) {
  aligner svc(wedged_config(backpressure::reject));
  auto slow = wedge(svc);
  // One more request gets popped into the parked second batch; then the
  // queue (capacity 2) fills, and further submissions must reject.
  std::vector<ticket> tickets;
  int rejected = 0;
  for (int i = 0; i < 16; ++i) {
    try {
      tickets.push_back(svc.submit(view(small), view(small)));
    } catch (const queue_full_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(svc.stats().rejected, static_cast<std::uint64_t>(rejected));
  (void)slow.get();
  for (auto& t : tickets) (void)t.get();
}

TEST_F(ServiceBackpressure, ShedOldestDropsQueuedRequests) {
  aligner svc(wedged_config(backpressure::shed_oldest));
  auto slow = wedge(svc);
  std::vector<ticket> tickets;
  for (int i = 0; i < 16; ++i)
    tickets.push_back(svc.submit(view(small), view(small)));
  (void)slow.get();
  int ok = 0, shed = 0;
  for (auto& t : tickets) {
    try {
      (void)t.get();
      ++ok;
    } catch (const shed_error&) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + shed, 16);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(snap.outstanding_tickets, 0u);
}

TEST_F(ServiceBackpressure, NoDrainShutdownFailsQueuedRequests) {
  aligner svc(wedged_config(backpressure::block));
  auto slow = wedge(svc);
  // One request is absorbed into the parked batch; two sit in the queue.
  std::vector<ticket> tickets;
  for (int i = 0; i < 3; ++i)
    tickets.push_back(svc.submit(view(small), view(small)));
  EXPECT_TRUE(stats_become(
      svc, [](const service_stats& s) { return s.queue_depth == 2; }));
  svc.shutdown(/*drain=*/false);
  int ok = 0, failed = 0;
  (void)slow.get();  // the wedge itself always completes
  for (auto& t : tickets) {
    try {
      (void)t.get();
      ++ok;
    } catch (const shutdown_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(ok, 1);
  EXPECT_THROW((void)svc.submit(view(small), view(small)), shutdown_error);
}

TEST(Service, DrainShutdownCompletesEverythingQueued) {
  config cfg;
  cfg.max_linger = 50ms;  // requests are still queued when we shut down
  aligner svc(cfg);
  const auto q = random_codes(24, 17);
  std::vector<ticket> tickets;
  for (int i = 0; i < 20; ++i)
    tickets.push_back(svc.submit(view(q), view(q)));
  svc.shutdown(/*drain=*/true);
  for (auto& t : tickets) expect_identical(t.get(), align(view(q), view(q)));
  const auto snap = svc.stats();
  EXPECT_EQ(snap.completed, 20u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight_batches, 0u);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  EXPECT_THROW((void)svc.submit(view(q), view(q)), shutdown_error);
}

TEST(Service, StatsReportLatencyPercentiles) {
  aligner svc;
  const auto q = random_codes(64, 18);
  std::vector<ticket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(svc.submit(view(q), view(q)));
  for (auto& t : tickets) (void)t.get();
  const auto snap = svc.stats();
  EXPECT_EQ(snap.latency_samples, 8u);
  EXPECT_GT(snap.p50_latency_ns, 0u);
  EXPECT_GE(snap.p99_latency_ns, snap.p50_latency_ns);
}

TEST(Service, BadConfigurationThrows) {
  config cfg;
  cfg.max_batch = 0;
  EXPECT_THROW(aligner{cfg}, invalid_argument_error);
  cfg = config{};
  cfg.queue_capacity = 0;
  EXPECT_THROW(aligner{cfg}, invalid_argument_error);
  cfg = config{};
  cfg.max_outstanding = 1;  // < queue_capacity
  EXPECT_THROW(aligner{cfg}, invalid_argument_error);
}

TEST(Service, ValidationErrorRejectsBeforeAnyCapacityIsConsumed) {
  aligner svc;
  const auto q = random_codes(8, 21);
  align_options bad;
  bad.gap_open = 3;  // must be <= 0
  EXPECT_THROW((void)svc.submit(view(q), view(q), bad), validation_error);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.accepted, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  // The service is unharmed: a valid submission still works.
  expect_identical(svc.submit(view(q), view(q)).get(),
                   align(view(q), view(q)));
}

TEST_F(ServiceBackpressure, TicketWaitForTimesOutThenCompletes) {
  aligner svc(wedged_config(backpressure::block));
  auto slow = wedge(svc);
  EXPECT_FALSE(slow.wait_for(1ms));  // the wedge is nowhere near done
  EXPECT_TRUE(slow.valid());         // a timed-out wait consumes nothing
  EXPECT_TRUE(slow.wait_for(60s));   // converts a hang into a failure
  EXPECT_TRUE(slow.ready());
  (void)slow.get();

  ticket empty;
  EXPECT_THROW((void)empty.wait_for(1ms), invalid_argument_error);
}

TEST(Service, WaitUntilHonorsAbsoluteDeadline) {
  aligner svc;
  const auto q = random_codes(16, 22);
  auto t = svc.submit(view(q), view(q));
  EXPECT_TRUE(t.wait_until(std::chrono::steady_clock::now() + 60s));
  expect_identical(t.get(), align(view(q), view(q)));
}

TEST(Service, ExpiredDeadlineAtSubmitFailsTicketImmediately) {
  aligner svc;
  const auto q = random_codes(16, 23);
  submit_options so;
  so.deadline = std::chrono::steady_clock::now() - 1ms;
  auto t = svc.submit(view(q), view(q), {}, so);
  EXPECT_TRUE(t.ready());  // never queued: failed on the spot
  EXPECT_THROW((void)t.get(), deadline_error);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.deadline_expired, 1u);
  EXPECT_EQ(snap.of(request_class::interactive).deadline_expired, 1u);
  EXPECT_EQ(snap.accepted, 1u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.queue_depth, 0u);
}

TEST_F(ServiceBackpressure, QueuedRequestsShedWhenDeadlinePasses) {
  // The wedge holds the only exec unit; deadline-carrying requests
  // queue behind it and expire before the batcher can collect them.
  aligner svc(wedged_config(backpressure::block));
  auto slow = wedge(svc);
  submit_options so;
  so.cls = request_class::bulk;  // separate ring: not absorbed early
  so.deadline = std::chrono::steady_clock::now() + 20ms;
  ticket t1 = svc.submit(view(small), view(small), {}, so);
  ticket t2 = svc.submit(view(small), view(small), {}, so);
  (void)slow.get();
  EXPECT_THROW((void)t1.get(), deadline_error);
  EXPECT_THROW((void)t2.get(), deadline_error);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.deadline_expired, 2u);
  EXPECT_EQ(snap.of(request_class::bulk).deadline_expired, 2u);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
}

TEST(Service, LingerNeverPassesTheEarliestDeadline) {
  // A 10s linger would starve this request far past its deadline; the
  // deadline-aware batcher must flush early enough for it to execute.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  // Generous headroom: the flush must land well before the deadline even
  // on a loaded CI machine, or the dispatch shed point eats the request.
  cfg.deadline_headroom = std::chrono::milliseconds(100);
  aligner svc(cfg);
  const auto q = random_codes(32, 24);
  submit_options so;
  so.deadline = std::chrono::steady_clock::now() + 250ms;
  auto t = svc.submit(view(q), view(q), {}, so);
  ASSERT_TRUE(t.wait_for(5s));  // bounded: a hang fails, not wedges
  expect_identical(t.get(), align(view(q), view(q)));
  EXPECT_EQ(svc.stats().deadline_expired, 0u);
}

// A lingering batcher is woken only by an arrival that changes what its
// forming batch does (DESIGN.md §12, "When the batcher wakes").  Each test
// below lingers 10 s and would wait it out if its wake-up were lost.

/// Submit one request and return once the batcher has pulled it: the
/// batcher holds the service lock from the pop until its linger wait, so
/// an empty queue seen under that lock means the lead is lingering.
ticket submit_lingering_lead(aligner& svc, const std::vector<char_t>& q,
                             const align_options& opt = {},
                             const submit_options& so = {}) {
  auto t = svc.submit(view(q), view(q), opt, so);
  EXPECT_TRUE(stats_become(
      svc, [](const service_stats& s) { return s.queue_depth == 0; }));
  return t;
}

TEST(Service, LingeringBatchRunsOnceItReachesMaxBatch) {
  config cfg;
  cfg.max_batch = 4;
  cfg.max_linger = 10s;
  aligner svc(cfg);
  const auto q = random_codes(32, 40);
  std::vector<ticket> tickets;
  tickets.push_back(submit_lingering_lead(svc, q));
  for (int i = 0; i < 3; ++i) tickets.push_back(svc.submit(view(q), view(q)));
  for (auto& t : tickets) ASSERT_TRUE(t.wait_for(5s));
  for (auto& t : tickets) expect_identical(t.get(), align(view(q), view(q)));
  EXPECT_EQ(svc.stats().batches, 1u);
}

TEST(Service, QuietArrivalsJoinTheBatchWhenTheLingerEnds) {
  // Compatible arrivals below max_batch do not wake the batcher; the walk
  // after its linger times out must still take them into the batch.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 50ms;
  aligner svc(cfg);
  const auto q = random_codes(32, 45);
  std::vector<ticket> tickets;
  tickets.push_back(submit_lingering_lead(svc, q));
  for (int i = 0; i < 3; ++i) tickets.push_back(svc.submit(view(q), view(q)));
  for (auto& t : tickets) ASSERT_TRUE(t.wait_for(5s));
  for (auto& t : tickets) expect_identical(t.get(), align(view(q), view(q)));
  EXPECT_EQ(svc.stats().batches, 1u);
}

TEST(Service, IncompatibleArrivalFlushesTheLingeringBatch) {
  // Two ways to miss the lead's batch: other scores on the lead's route,
  // or a traceback (another route).  Options alone decide both.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  const auto q = random_codes(32, 41);
  align_options b;
  b.match = 3;  // incompatible with the defaults
  align_options tb;
  tb.want_alignment = true;
  for (const align_options& fopt : {b, tb}) {
    aligner svc(cfg);
    auto first = submit_lingering_lead(svc, q);
    auto second = svc.submit(view(q), view(q), fopt);
    ASSERT_TRUE(first.wait_for(5s));
    expect_identical(first.get(), align(view(q), view(q)));
    svc.shutdown(true);  // the follower now leads a lingering batch
    expect_identical(second.get(), align(view(q), view(q), fopt));
  }
}

TEST(Service, EveryKindAndSizeCoalescesAndMatchesSync) {
  // Only the backend and want_alignment route a CPU request, so local,
  // semiglobal and extension score-only requests and tracebacks past
  // full_matrix_cells coalesce like any other, each result equal to
  // align.  An extension traceback past the bound has no route: it fails
  // its batch, and bisection isolates it, so only its ticket fails.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  aligner svc(cfg);
  std::vector<std::vector<char_t>> qs, ss;
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{40, 44},
                             {150, 150}, {300, 280}, {0, 16}}) {
    qs.push_back(random_codes(n, 50 + n));
    ss.push_back(test::mutate(random_codes(m, 60 + m), 70 + m));
  }
  constexpr std::size_t kOverBound = 2;  // 300 x 280 > 2^15 cells
  std::vector<align_options> groups;
  for (const align_kind k :
       {align_kind::local, align_kind::semiglobal, align_kind::extension}) {
    groups.emplace_back();
    groups.back().kind = k;
  }
  align_options tb;
  tb.want_alignment = true;
  tb.full_matrix_cells = index_t{1} << 15;
  groups.push_back(tb);  // the over-bound pair runs Hirschberg
  tb.kind = align_kind::extension;
  groups.push_back(tb);  // the over-bound pair has no route
  std::vector<ticket> tickets;
  for (const align_options& o : groups)
    for (std::size_t i = 0; i < qs.size(); ++i)
      tickets.push_back(svc.submit(view(qs[i]), view(ss[i]), o));
  svc.shutdown(true);
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ticket& t = tickets[g * qs.size() + i];
      if (g + 1 == groups.size() && i == kOverBound) {
        EXPECT_THROW((void)t.get(), invalid_argument_error);
        continue;
      }
      expect_identical(t.get(), align(view(qs[i]), view(ss[i]), groups[g]));
    }
  const auto snap = svc.stats();
  EXPECT_LT(snap.batches, tickets.size());
  EXPECT_EQ(snap.failed, 1u);
}

TEST(Service, SimulatorRequestsShareBatchesAndMatchSync) {
  // A simulator's align_batch runs each pair through its own align, so
  // gpu_sim requests coalesce like CPU ones, each result equal to
  // gpu_sim's align, tracebacks past full_matrix_cells included.  An
  // extension traceback past the bound fails its batch, and bisection
  // isolates it, so only its ticket fails.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  aligner svc(cfg);
  std::vector<std::vector<char_t>> qs, ss;
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{40, 44},
                             {16, 16}, {0, 16}, {90, 100}}) {
    qs.push_back(random_codes(n, 80 + n));
    ss.push_back(test::mutate(random_codes(m, 90 + m), 100 + m));
  }
  constexpr std::size_t kOverBound = 3;  // 90 x ~100 > 2000 cells
  align_options score;
  score.exec = backend::gpu_sim;
  align_options tb = score;
  tb.want_alignment = true;
  tb.full_matrix_cells = 2000;
  align_options ext = tb;
  ext.kind = align_kind::extension;
  const std::vector<align_options> groups{score, tb, ext};
  std::vector<ticket> tickets;
  for (const align_options& o : groups)
    for (std::size_t i = 0; i < qs.size(); ++i)
      tickets.push_back(svc.submit(view(qs[i]), view(ss[i]), o));
  svc.shutdown(true);
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < qs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "group " << g << " pair " << i);
      ticket& t = tickets[g * qs.size() + i];
      if (g + 1 == groups.size() && i == kOverBound) {
        EXPECT_THROW((void)align(view(qs[i]), view(ss[i]), groups[g]),
                     invalid_argument_error);
        EXPECT_THROW((void)t.get(), invalid_argument_error);
        continue;
      }
      expect_identical(t.get(), align(view(qs[i]), view(ss[i]), groups[g]));
    }
  const auto snap = svc.stats();
  EXPECT_LT(snap.batches, tickets.size());
  EXPECT_EQ(snap.failed, 1u);
  // Simulator variants land in the exec table's "other" column (3).
  const auto batched = [&](route r) {
    return snap.exec.at[static_cast<std::size_t>(r)][3].requests;
  };
  EXPECT_EQ(batched(route::batch_score), qs.size());
  EXPECT_GE(batched(route::batch_traceback), qs.size());
}

TEST(Service, InteractiveArrivalFlushesALingeringBulkBatch) {
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  aligner svc(cfg);
  const auto q = random_codes(32, 42);
  submit_options bulk;
  bulk.cls = request_class::bulk;
  auto lead = submit_lingering_lead(svc, q, {}, bulk);
  auto interactive = svc.submit(view(q), view(q));
  ASSERT_TRUE(lead.wait_for(5s));
  expect_identical(lead.get(), align(view(q), view(q)));
  svc.shutdown(true);  // the interactive request now leads its own batch
  expect_identical(interactive.get(), align(view(q), view(q)));
}

TEST(Service, FollowerDeadlineShortensTheLeadsLinger) {
  // The lead has no deadline; LingerNeverPassesTheEarliestDeadline covers
  // a lead's own.  The follower's deadline must pull the flush in.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  cfg.deadline_headroom = std::chrono::milliseconds(100);
  aligner svc(cfg);
  const auto q = random_codes(32, 43);
  auto lead = submit_lingering_lead(svc, q);
  submit_options so;
  so.deadline = std::chrono::steady_clock::now() + 250ms;
  auto follower = svc.submit(view(q), view(q), {}, so);
  ASSERT_TRUE(lead.wait_for(5s));
  ASSERT_TRUE(follower.wait_for(5s));
  expect_identical(lead.get(), align(view(q), view(q)));
  expect_identical(follower.get(), align(view(q), view(q)));
  EXPECT_EQ(svc.stats().deadline_expired, 0u);
}

TEST(Service, BlockedSubmittersWakeALingeringBatcherAtQueueCapacity) {
  // The ring fills long before the batch does: without a wake-up at
  // queue_capacity the third queued submit would block for the linger.
  config cfg;
  cfg.max_batch = 64;
  cfg.max_linger = 10s;
  cfg.queue_capacity = 2;
  cfg.max_outstanding = 16;
  cfg.policy = backpressure::block;
  aligner svc(cfg);
  const auto q = random_codes(32, 44);
  std::vector<ticket> tickets(10);
  std::atomic<int> returned{0};
  std::thread producer([&] {
    for (auto& t : tickets) {
      try {
        t = svc.submit(view(q), view(q));
      } catch (const shutdown_error&) {
      }
      ++returned;
    }
  });
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (returned.load() < 10 && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(returned.load(), 10);
  svc.shutdown(true);
  producer.join();
  for (auto& t : tickets) {
    ASSERT_TRUE(t.valid());
    expect_identical(t.get(), align(view(q), view(q)));
  }
}

TEST_F(ServiceBackpressure, NoDrainShutdownFailsPendingTicketsPromptly) {
  // Satellite: shutdown-with-inflight — the wedge is mid-execution when
  // shutdown lands; queued tickets must fail by the time it returns,
  // and the inflight request still delivers.
  aligner svc(wedged_config(backpressure::block));
  auto slow = wedge(svc);
  std::vector<ticket> tickets;
  for (int i = 0; i < 3; ++i)
    tickets.push_back(svc.submit(view(small), view(small)));
  EXPECT_TRUE(stats_become(
      svc, [](const service_stats& s) { return s.queue_depth == 2; }));
  svc.shutdown(/*drain=*/false);
  // Queued requests were failed synchronously inside shutdown: their
  // tickets are ready the moment it returns, no grace period needed.
  int ready_now = 0;
  for (auto& t : tickets) ready_now += t.ready() ? 1 : 0;
  EXPECT_GE(ready_now, 2);
  ASSERT_TRUE(slow.wait_for(60s));
  (void)slow.get();
  int ok = 0, failed = 0;
  for (auto& t : tickets) {
    ASSERT_TRUE(t.wait_for(60s));
    try {
      (void)t.get();
      ++ok;
    } catch (const shutdown_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(svc.stats().outstanding_tickets, 0u);
}

TEST(Service, AbandonUnderLoadReclaimsEverySlot) {
  // Satellite: abandon-under-load — tickets dropped while their
  // requests are queued or executing must all recycle their slots.
  config cfg;
  cfg.max_batch = 4;
  cfg.max_outstanding = 32;
  cfg.queue_capacity = 32;
  aligner svc(cfg);
  const auto q = random_codes(64, 25);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 32; ++i) {
      auto t = svc.submit(view(q), view(q));
      // dropped without get(): abandoned mid-flight
    }
    // All 32 slots must come back — a leak would wedge this submit
    // forever under the block policy, so the bounded stats poll below
    // catches it first.
    EXPECT_TRUE(stats_become(svc, [&](const service_stats& s) {
      return s.outstanding_tickets == 0;
    }));
  }
  svc.shutdown(true);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  EXPECT_EQ(snap.completed, 128u);
}

TEST(Service, RepeatOffendersAreQuarantinedAtSubmit) {
  // A request that deterministically fails in isolation (extension
  // traceback beyond full_matrix_cells) is quarantined after
  // `quarantine_threshold` offenses and refused before admission.
  config cfg;
  cfg.quarantine_capacity = 8;
  cfg.quarantine_threshold = 2;
  aligner svc(cfg);
  const auto q = random_codes(16, 26);
  align_options opt;
  opt.kind = align_kind::extension;
  opt.want_alignment = true;
  opt.full_matrix_cells = 4;
  for (int i = 0; i < 2; ++i) {
    auto t = svc.submit(view(q), view(q), opt);
    EXPECT_THROW((void)t.get(), invalid_argument_error);
  }
  EXPECT_THROW((void)svc.submit(view(q), view(q), opt), quarantine_error);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.of(request_class::interactive).quarantined, 1u);
  // Different requests are unaffected.
  const auto other = random_codes(16, 27);
  expect_identical(svc.submit(view(other), view(other)).get(),
                   align(view(other), view(other)));
}

/// `submit` checks a pair's shape next to its options: the int32
/// overflow shapes (global A^n against C^n at +-2^20 for n = 2100 and
/// 4000, and A^2,200,000 against "A" at gap -1000) throw
/// score_overflow_error synchronously, by view and by string,
/// score-only and with a traceback, and are never admitted.
TEST(Service, SubmitRejectsShapesPastTheInt32Bound) {
  align_options huge;
  huge.match = max_abs_score;
  huge.mismatch = -max_abs_score;
  huge.gap_extend = -max_abs_score;
  align_options gap1000;
  gap1000.gap_extend = -1000;
  struct shape {
    std::size_t n, m;
    char s_char;
    align_options opt;
  };
  aligner svc;
  for (const shape& sh : {shape{2100, 2100, 'C', huge},
                          shape{4000, 4000, 'C', huge},
                          shape{2200000, 1, 'A', gap1000}}) {
    const std::string qs(sh.n, 'A'), ss(sh.m, sh.s_char);
    const auto q = dna_encode_all(qs), s = dna_encode_all(ss);
    for (const bool tb : {false, true}) {
      align_options o = sh.opt;
      o.want_alignment = tb;
      EXPECT_THROW((void)svc.submit(view(q), view(s), o),
                   score_overflow_error);
      EXPECT_THROW((void)svc.submit_strings(qs, ss, o),
                   score_overflow_error);
    }
  }
  EXPECT_EQ(svc.stats().accepted, 0u);
}

}  // namespace
}  // namespace anyseq::service
