/// Chaos tests for the serving tier: a 32-seed deterministic
/// fault-injection sweep (poisoned requests, batch alloc failures,
/// failed batch hand-offs, clock skew), replay determinism of the
/// poison schedule, hand-offs that always fail, hand-offs of batches
/// above the inline cell bound that fail half the time, and cache
/// inserts that fail half the time.
///
/// Invariants under every schedule:
///   * no ticket hangs (every wait is bounded; a hang is a failure),
///   * a surviving request's result is byte-identical to synchronous
///     align() — fault containment never perturbs innocents,
///   * every failure carries one of the typed service errors, and an
///     injected_fault surfaces only for a fingerprint the schedule
///     actually poisons; no injected fault ever costs a request its
///     result through a service_down_error,
///   * after drain-shutdown the counters balance: no slot, ticket, or
///     request is lost.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/faultinject.hpp"
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

/// RAII arm/disarm so no failure path leaves a schedule dangling.
class armed_schedule {
 public:
  explicit armed_schedule(const fault::schedule::config& cfg) : sched_(cfg) {
    fault::arm(sched_);
  }
  ~armed_schedule() { fault::disarm(); }
  fault::schedule& operator*() noexcept { return sched_; }
  fault::schedule* operator->() noexcept { return &sched_; }

 private:
  fault::schedule sched_;
};

struct request {
  std::vector<char_t> q, s;
  align_options opt;
  bool has_deadline = false;
  std::uint64_t fp = 0;
};

std::vector<request> make_requests(std::uint64_t seed, int n) {
  std::vector<request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    request r;
    r.q = random_codes(16 + (i % 3) * 16,
                       static_cast<unsigned>(seed * 1000 + 2 * i));
    r.s = random_codes(16 + (i % 4) * 8,
                       static_cast<unsigned>(seed * 1000 + 2 * i + 1));
    if (i % 3 == 2) r.opt.want_alignment = true;
    r.has_deadline = i % 4 == 3;
    r.fp = cache_key_hash(view(r.q), view(r.s), r.opt);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

TEST(ServiceChaos, ThirtyTwoSeedSweepContainsEveryInjectedFault) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    fault::schedule::config fcfg;
    fcfg.seed = seed;
    fcfg.poison_rate = 0.08;
    fcfg.alloc_failure_rate = seed % 2 == 1 ? 0.15 : 0.0;
    fcfg.dispatch_failure_rate = seed % 4 == 3 ? 0.25 : 0.0;
    fcfg.max_clock_skew_ns = seed % 3 == 0 ? 200'000 : 0;

    config cfg;
    cfg.max_batch = 8;
    cfg.max_linger = 200us;
    cfg.queue_capacity = 64;
    cfg.max_outstanding = 128;
    cfg.policy = backpressure::block;
    cfg.quarantine_capacity = 16;
    cfg.quarantine_threshold = 2;

    const auto reqs = make_requests(seed, 24);

    armed_schedule sched(fcfg);
    aligner svc(cfg);
    std::vector<ticket> tickets(reqs.size());
    std::vector<bool> submitted(reqs.size(), false);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      submit_options so;
      so.cls = i % 2 == 0 ? request_class::interactive : request_class::bulk;
      if (reqs[i].has_deadline)
        so.deadline = std::chrono::steady_clock::now() + 3ms;
      try {
        tickets[i] =
            svc.submit(view(reqs[i].q), view(reqs[i].s), reqs[i].opt, so);
        submitted[i] = true;
      } catch (const quarantine_error&) {
        // Only a poisoned fingerprint can accumulate offenses.
        EXPECT_TRUE(sched->poisoned(reqs[i].fp));
      }
    }

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!submitted[i]) continue;
      // A hang is a failure, not a wedge: every ticket resolves.
      ASSERT_TRUE(tickets[i].wait_for(30s)) << "request " << i << " hung";
      try {
        const auto got = tickets[i].get();
        expect_identical(got,
                         align(view(reqs[i].q), view(reqs[i].s), reqs[i].opt));
        EXPECT_FALSE(sched->poisoned(reqs[i].fp))
            << "poisoned request " << i << " completed";
      } catch (const fault::injected_fault&) {
        EXPECT_TRUE(sched->poisoned(reqs[i].fp))
            << "clean request " << i << " got an injected fault";
      } catch (const deadline_error&) {
        EXPECT_TRUE(reqs[i].has_deadline)
            << "deadline-free request " << i << " expired";
      }
    }

    svc.shutdown(true);
    const auto snap = svc.stats();
    EXPECT_EQ(snap.outstanding_tickets, 0u);
    EXPECT_EQ(snap.queue_depth, 0u);
    EXPECT_EQ(snap.accepted, snap.completed + snap.failed);
  }
}

TEST(ServiceChaos, PoisonScheduleReplaysByteIdentically) {
  // Poison is sticky per fingerprint (no per-visit state), so two runs
  // of the same workload against the same seed must produce the exact
  // same per-request outcome — scores, errors, and counters.
  const auto reqs = make_requests(777, 16);

  struct outcome {
    bool ok = false;
    std::int64_t score = 0;
    std::string error;
  };
  const auto run = [&reqs] {
    fault::schedule::config fcfg;
    fcfg.seed = 777;
    fcfg.poison_rate = 0.25;

    config cfg;
    cfg.max_batch = 4;
    cfg.max_linger = 100us;
    cfg.max_inflight_batches = 1;  // serialized execution: stable order
    cfg.quarantine_capacity = 0;   // isolate the poison schedule itself

    armed_schedule sched(fcfg);
    aligner svc(cfg);
    std::vector<outcome> out(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      auto t = svc.submit(view(reqs[i].q), view(reqs[i].s), reqs[i].opt);
      try {
        out[i].score = t.get().score;
        out[i].ok = true;
      } catch (const error& e) {
        out[i].error = e.what();
      }
    }
    svc.shutdown(true);
    return out;
  };

  const auto first = run();
  const auto second = run();
  int poisoned = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(first[i].ok, second[i].ok) << "request " << i;
    EXPECT_EQ(first[i].score, second[i].score) << "request " << i;
    EXPECT_EQ(first[i].error, second[i].error) << "request " << i;
    poisoned += first[i].ok ? 0 : 1;
  }
  // Rate 0.25 over 16 distinct fingerprints: statistically certain to
  // poison at least one (and the fixed seed makes it reproducible).
  EXPECT_GT(poisoned, 0);
}

TEST(ServiceChaos, BisectionIsolatesPoisonWithoutHarmingBatchmates) {
  // One poisoned request inside a full batch: bisection must fail
  // exactly that ticket and deliver every batchmate byte-identically.
  const auto reqs = make_requests(4242, 8);
  fault::schedule::config fcfg;
  fcfg.poison_rate = 0.12;

  // poisoned(fp) is a pure function of (seed, fp), so scan seeds until
  // exactly one of the 8 fingerprints is poisoned — deterministic, and
  // at rate 0.12 roughly every third seed qualifies.
  std::size_t victim = reqs.size();
  for (std::uint64_t s = 1; s < 4096 && victim == reqs.size(); ++s) {
    fault::schedule probe({s, 0.0, fcfg.poison_rate, 0.0, 0});
    std::size_t hits = 0, last = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (probe.poisoned(reqs[i].fp)) {
        ++hits;
        last = i;
      }
    if (hits == 1) {
      victim = last;
      fcfg.seed = s;
    }
  }
  ASSERT_LT(victim, reqs.size()) << "no single-victim seed found";

  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 200ms;  // absorb all 8 into one batch
  armed_schedule sched(fcfg);
  aligner svc(cfg);
  std::vector<ticket> tickets;
  for (const auto& r : reqs)
    tickets.push_back(svc.submit(view(r.q), view(r.s), r.opt));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(30s));
    if (i == victim) {
      EXPECT_THROW((void)tickets[i].get(), fault::injected_fault);
    } else {
      expect_identical(tickets[i].get(),
                       align(view(reqs[i].q), view(reqs[i].s), reqs[i].opt));
    }
  }
  const auto snap = svc.stats();
  EXPECT_EQ(snap.completed, reqs.size() - 1);
  EXPECT_EQ(snap.failed, 1u);
}

TEST(ServiceChaos, DispatchFailuresRunOnTheBatcher) {
  // Every hand-off to the pool fails, so every batch of both classes
  // runs on the batcher thread: nothing is refused, nothing is lost, and
  // every result is still byte-identical to synchronous align().
  fault::schedule::config fcfg;
  fcfg.seed = 9;
  fcfg.dispatch_failure_rate = 1.0;

  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 200us;

  armed_schedule sched(fcfg);
  aligner svc(cfg);
  const auto reqs = make_requests(9, 32);
  std::vector<ticket> tickets;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    submit_options so;
    so.cls = i % 2 == 0 ? request_class::interactive : request_class::bulk;
    tickets.push_back(
        svc.submit(view(reqs[i].q), view(reqs[i].s), reqs[i].opt, so));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(30s)) << "request " << i << " hung";
    expect_identical(tickets[i].get(),
                     align(view(reqs[i].q), view(reqs[i].s), reqs[i].opt));
  }

  svc.shutdown(true);
  const auto snap = svc.stats();
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_GT(snap.of(request_class::bulk).completed, 0u);
  EXPECT_EQ(snap.completed, reqs.size());
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.failed);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
  EXPECT_EQ(snap.in_flight_batches, 0u);
}

TEST(ServiceChaos, DispatchFailuresFireOnBatchesAboveTheInlineBound) {
  // Every request alone exceeds the inline cell bound, so every batch
  // reaches the pool hand-off and its fault point.  Half the hand-offs
  // fail and run on the batcher instead; every result is still
  // byte-identical to synchronous align().
  fault::schedule::config fcfg;
  fcfg.seed = 23;
  fcfg.dispatch_failure_rate = 0.5;

  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 200us;

  std::vector<request> reqs;
  for (int i = 0; i < 24; ++i) {
    request r;
    r.q = random_codes(520 + 16 * (i % 3), static_cast<unsigned>(500 + 2 * i));
    r.s = random_codes(530 + 8 * (i % 4), static_cast<unsigned>(501 + 2 * i));
    ASSERT_GT(r.q.size() * r.s.size(), aligner::inline_cell_bound);
    if (i % 3 == 2) r.opt.want_alignment = true;
    reqs.push_back(std::move(r));
  }

  armed_schedule sched(fcfg);
  aligner svc(cfg);
  std::vector<ticket> tickets;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    submit_options so;
    so.cls = i % 2 == 0 ? request_class::interactive : request_class::bulk;
    tickets.push_back(
        svc.submit(view(reqs[i].q), view(reqs[i].s), reqs[i].opt, so));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(30s)) << "request " << i << " hung";
    expect_identical(tickets[i].get(),
                     align(view(reqs[i].q), view(reqs[i].s), reqs[i].opt));
  }
  svc.shutdown(true);

  // Each batch visited the hand-off once, and exactly the visits the
  // seeded schedule fires ran on the batcher.
  const auto snap = svc.stats();
  const std::uint64_t visits = sched->visits(fault::point::dispatch_failure);
  EXPECT_EQ(visits, snap.batches);
  fault::schedule replay(fcfg);
  std::uint64_t fired = 0;
  for (std::uint64_t v = 0; v < visits; ++v)
    fired += replay.fire(fault::point::dispatch_failure) ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, visits);
  EXPECT_EQ(snap.inline_batches, fired);
  EXPECT_EQ(snap.completed, reqs.size());
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.failed);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
}

TEST(ServiceChaos, FailedCacheInsertsNeverServeAWrongResult) {
  // Half of all cache inserts (and multi-request spans) fail their
  // allocation.  A failed insert must leave no entry that maps a new key
  // to an old result, and must not unwind out of completion — which
  // would re-execute and re-complete batchmates already delivered.
  // Repeated pairs make inserts overwrite and evict live entries.
  fault::schedule::config fcfg;
  fcfg.seed = 5;
  fcfg.alloc_failure_rate = 0.5;

  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 200us;
  cfg.cache_capacity = 64;

  armed_schedule sched(fcfg);
  aligner svc(cfg);
  const auto distinct = make_requests(5, 48);
  std::vector<const request*> reqs;
  for (int round = 0; round < 3; ++round)
    for (const auto& r : distinct) reqs.push_back(&r);
  std::vector<ticket> tickets;
  for (const request* r : reqs)
    tickets.push_back(svc.submit(view(r->q), view(r->s), r->opt));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(30s)) << "request " << i << " hung";
    expect_identical(tickets[i].get(), align(view(reqs[i]->q),
                                             view(reqs[i]->s), reqs[i]->opt));
  }
  // Exactly once: a double completion would count twice.
  auto snap = svc.stats();
  EXPECT_EQ(snap.completed, reqs.size());
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.failed);

  // Whatever the cache kept is right: every pair resubmitted (hit or
  // miss) comes back byte-identical.
  for (const auto& r : distinct)
    expect_identical(svc.submit(view(r.q), view(r.s), r.opt).get(),
                     align(view(r.q), view(r.s), r.opt));
  svc.shutdown(true);
  snap = svc.stats();
  EXPECT_GT(snap.cache_hits, 0u);
  EXPECT_EQ(snap.accepted, snap.completed + snap.failed);
  EXPECT_EQ(snap.outstanding_tickets, 0u);
}

TEST(ServiceChaos, ClockSkewShedsOnlyDeadlineCarriers) {
  // A lying clock (+-2ms) must never break liveness or byte-identity;
  // it may only flip deadline-carrying requests between "made it" and
  // "shed" — deadline-free requests are untouchable.
  fault::schedule::config fcfg;
  fcfg.seed = 31337;
  fcfg.max_clock_skew_ns = 2'000'000;

  armed_schedule sched(fcfg);
  aligner svc;
  const auto reqs = make_requests(31337, 12);
  std::vector<ticket> tickets;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    submit_options so;
    if (reqs[i].has_deadline)
      so.deadline = std::chrono::steady_clock::now() + 1ms;
    tickets.push_back(
        svc.submit(view(reqs[i].q), view(reqs[i].s), reqs[i].opt, so));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(tickets[i].wait_for(30s));
    try {
      expect_identical(tickets[i].get(),
                       align(view(reqs[i].q), view(reqs[i].s), reqs[i].opt));
    } catch (const deadline_error&) {
      EXPECT_TRUE(reqs[i].has_deadline);
    }
  }
  svc.shutdown(true);
  EXPECT_EQ(svc.stats().outstanding_tickets, 0u);
}

}  // namespace
}  // namespace anyseq::service
