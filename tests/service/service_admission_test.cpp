/// Admission tests for the serving tier: strict interactive-over-bulk
/// priority (a bulk flood must not starve interactive latency), the
/// linger preemption rule, per-tenant token-bucket quotas, per-class
/// telemetry, and the adaptive-linger controller.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "service/faultinject.hpp"
#include "service/service.hpp"
#include "service_waits.hpp"
#include "testutil.hpp"

namespace anyseq::service {
namespace {

using test::random_codes;
using test::view;
using namespace std::chrono_literals;

/// Holds batches before the engine (the `engine_hold` fault point) and
/// lets them through one at a time, at any kernel speed: batches stop at
/// the chain's first link, and `pass()` arms the next link before it
/// releases the current one, so exactly the batch held there runs and
/// the batch after it stops at the next link.  Declare the chain before
/// the service, so it disarms once the service is gone, and a
/// `release_at_exit` guard after the service.
class hold_chain {
 public:
  hold_chain() { fault::arm(links_[0]); }
  ~hold_chain() { fault::disarm(); }
  hold_chain(const hold_chain&) = delete;
  hold_chain& operator=(const hold_chain&) = delete;

  /// True once a batch is held at the current link (polls ~2 s).
  [[nodiscard]] bool batch_held() const {
    for (int i = 0; i < 2000; ++i) {
      if (links_[cur_].visits(fault::point::engine_hold) > 0) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  void pass() {
    ASSERT_LT(cur_ + 1, std::size(links_));
    fault::arm(links_[cur_ + 1]);
    links_[cur_++].release();
  }

  void release_all() noexcept {
    for (fault::schedule& l : links_) l.release();
  }

 private:
  static fault::schedule::config held() {
    fault::schedule::config cfg;
    cfg.hold = true;
    return cfg;
  }

  fault::schedule links_[3] = {fault::schedule{held()},
                               fault::schedule{held()},
                               fault::schedule{held()}};
  std::size_t cur_ = 0;
};

/// Releases every held batch when a test body leaves scope, before its
/// service is torn down: a failed assertion cannot leave a batch held
/// and the process hung.
struct release_at_exit {
  hold_chain& holds;
  ~release_at_exit() { holds.release_all(); }
};

/// A bulk flood must not starve interactive traffic: with a deep bulk
/// backlog queued first, a later interactive request completes while
/// bulk work is still pending.  This is the structural guarantee behind
/// the bounded interactive p99 — interactive never waits for the bulk
/// queue, only for at most the batch in flight.
TEST(ServiceAdmission, InteractiveCompletesWhileBulkBacklogRemains) {
  config cfg;
  cfg.max_batch = 4;
  cfg.max_linger = 50us;
  cfg.queue_capacity = 1024;
  cfg.max_inflight_batches = 1;  // serialize: backlog must actually wait
  hold_chain holds;
  aligner svc(cfg);
  const release_at_exit guard{holds};

  const auto q = random_codes(256, 11);
  const auto s = random_codes(256, 12);

  constexpr int n_bulk = 256;
  std::vector<ticket> bulk;
  bulk.reserve(n_bulk);
  submit_options bulk_so;
  bulk_so.cls = request_class::bulk;
  // The first bulk request is alone in the queue, within
  // inline_cell_bound, so it runs on the batcher itself: while it is
  // held the batcher collects nothing, and the rest of the backlog and
  // the interactive request all queue behind it.
  static_assert(std::uint64_t{256} * 256 <= aligner::inline_cell_bound);
  bulk.push_back(svc.submit(view(q), view(s), {}, bulk_so));
  ASSERT_TRUE(holds.batch_held());
  for (int i = 1; i < n_bulk; ++i)
    bulk.push_back(svc.submit(view(q), view(s), {}, bulk_so));

  submit_options ia_so;  // interactive is the default, but be explicit
  ia_so.cls = request_class::interactive;
  auto t = svc.submit(view(q), view(s), {}, ia_so);
  // Let the first batch run.  Strict priority makes the next batch the
  // interactive request's; let it run too, and hold the bulk batch that
  // follows it, so the backlog cannot drain while this thread reads the
  // stats below.
  holds.pass();
  ASSERT_TRUE(holds.batch_held());
  holds.pass();
  ASSERT_TRUE(t.wait_for(5s)) << "the interactive request is held behind "
                                 "the bulk backlog";
  (void)t.get();

  // The moment the interactive request completed, the bulk backlog must
  // not be done — priority jumped the line past hundreds of requests.
  const auto st = svc.stats();
  EXPECT_LT(st.of(request_class::bulk).completed,
            static_cast<std::uint64_t>(n_bulk))
      << "interactive request waited for the whole bulk backlog";
  EXPECT_EQ(st.of(request_class::interactive).completed, 1u);

  holds.release_all();
  for (auto& b : bulk) (void)b.get();
}

/// An interactive arrival cuts a lingering bulk batch short.  With a
/// very long linger, a lone bulk request would otherwise hold the
/// batcher for the full linger before anything else runs; the
/// interactive submission must flush it immediately.
TEST(ServiceAdmission, InteractiveArrivalCutsBulkLingerShort) {
  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 500ms;  // absurd on purpose: the test must not wait it
  aligner svc(cfg);

  const auto q = random_codes(64, 13);
  const auto s = random_codes(64, 14);

  const auto t0 = std::chrono::steady_clock::now();
  submit_options bulk_so;
  bulk_so.cls = request_class::bulk;
  auto b = submit_lingering_lead(svc, q, {}, bulk_so);

  // Eight interactive requests: they preempt the bulk linger, then fill
  // a full batch themselves (max_batch == 8), so nothing here waits for
  // any linger to expire.
  std::vector<ticket> ia;
  for (int i = 0; i < 8; ++i) ia.push_back(svc.submit(view(q), view(s), {}));
  for (auto& t : ia) (void)t.get();
  (void)b.get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  // Generous bound: well under the 500ms linger, far above execution
  // time.  Without the preemption flush, the bulk batch alone holds the
  // batcher for 500ms and this blows past the bound.
  EXPECT_LT(elapsed, 250ms);
}

/// Token buckets: a tenant gets its burst, then quota_error — under the
/// *block* policy, proving quota exhaustion rejects instead of blocking.
/// Other tenants are unaffected.
TEST(ServiceAdmission, TenantQuotaEnforcedPerTenant) {
  config cfg;
  cfg.policy = backpressure::block;
  cfg.tenant_rate = 1e-6;  // effectively no refill within the test
  cfg.tenant_burst = 5;
  cfg.max_tenants = 4;
  aligner svc(cfg);

  const auto q = random_codes(32, 15);
  const auto s = random_codes(32, 16);

  std::vector<ticket> ok;
  submit_options so;
  so.tenant = 1;
  for (int i = 0; i < 5; ++i)
    ok.push_back(svc.submit(view(q), view(s), {}, so));
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW((void)svc.submit(view(q), view(s), {}, so), quota_error);

  // Tenant 2 has its own untouched bucket.
  so.tenant = 2;
  for (int i = 0; i < 5; ++i)
    ok.push_back(svc.submit(view(q), view(s), {}, so));

  // Out-of-range tenant ids are a caller bug, not a quota event.
  so.tenant = 99;
  EXPECT_THROW((void)svc.submit(view(q), view(s), {}, so),
               invalid_argument_error);

  const auto st = svc.stats();
  EXPECT_EQ(st.quota_rejected, 3u);
  EXPECT_EQ(st.of(request_class::interactive).quota_rejected, 3u);
  EXPECT_EQ(st.accepted, 10u);
  for (auto& t : ok) (void)t.get();
}

/// Tokens refill at tenant_rate: after draining the burst, waiting long
/// enough earns another admission.
TEST(ServiceAdmission, TenantQuotaRefillsOverTime) {
  config cfg;
  cfg.tenant_rate = 50.0;  // one token every 20ms
  cfg.tenant_burst = 1;
  aligner svc(cfg);

  const auto q = random_codes(32, 17);
  const auto s = random_codes(32, 18);

  auto t1 = svc.submit(view(q), view(s), {});
  (void)t1.get();
  // Bucket drained; an immediate submit may or may not squeak through on
  // elapsed time, so drain until rejection...
  bool rejected = false;
  for (int i = 0; i < 3 && !rejected; ++i) {
    try {
      auto t = svc.submit(view(q), view(s), {});
      (void)t.get();
    } catch (const quota_error&) {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  // ...then wait a full refill period and expect admission again.
  std::this_thread::sleep_for(40ms);
  auto t2 = svc.submit(view(q), view(s), {});
  (void)t2.get();
}

/// Cache hits are not charged against the tenant's bucket: quotas meter
/// executed work, and hits cost none.
TEST(ServiceAdmission, CacheHitsNotChargedAgainstQuota) {
  config cfg;
  cfg.cache_capacity = 32;
  cfg.tenant_rate = 1e-6;
  cfg.tenant_burst = 2;
  aligner svc(cfg);

  const auto q1 = random_codes(40, 19);
  const auto s1 = random_codes(40, 20);
  const auto q2 = random_codes(40, 21);
  const auto s2 = random_codes(40, 22);
  const auto q3 = random_codes(40, 23);
  const auto s3 = random_codes(40, 24);

  auto t = svc.submit(view(q1), view(s1), {});  // token 1 (miss)
  (void)t.get();
  for (int i = 0; i < 5; ++i) {
    auto h = svc.submit(view(q1), view(s1), {});  // hits: free
    (void)h.get();
  }
  auto t2 = svc.submit(view(q2), view(s2), {});  // token 2 (miss)
  (void)t2.get();
  EXPECT_THROW((void)svc.submit(view(q3), view(s3), {}), quota_error);

  const auto st = svc.stats();
  EXPECT_EQ(st.cache_hits, 5u);
  EXPECT_EQ(st.quota_rejected, 1u);
}

/// Per-class counters resolve the traffic mix, and the aggregate fields
/// remain the exact sum of the class slices.
TEST(ServiceAdmission, PerClassCountersSumToAggregate) {
  aligner svc;
  const auto q = random_codes(48, 25);
  const auto s = random_codes(48, 26);

  submit_options bulk_so;
  bulk_so.cls = request_class::bulk;
  std::vector<ticket> ts;
  for (int i = 0; i < 3; ++i) ts.push_back(svc.submit(view(q), view(s), {}));
  for (int i = 0; i < 5; ++i)
    ts.push_back(svc.submit(view(q), view(s), {}, bulk_so));
  for (auto& t : ts) (void)t.get();

  const auto st = svc.stats();
  EXPECT_EQ(st.of(request_class::interactive).accepted, 3u);
  EXPECT_EQ(st.of(request_class::bulk).accepted, 5u);
  EXPECT_EQ(st.of(request_class::interactive).completed, 3u);
  EXPECT_EQ(st.of(request_class::bulk).completed, 5u);
  EXPECT_EQ(st.accepted, 8u);
  EXPECT_EQ(st.completed, 8u);
  EXPECT_GT(st.of(request_class::interactive).latency_samples, 0u);
  EXPECT_GT(st.of(request_class::bulk).latency_samples, 0u);
  EXPECT_EQ(st.latency_samples,
            st.of(request_class::interactive).latency_samples +
                st.of(request_class::bulk).latency_samples);
}

/// The adaptive controller shrinks the effective linger while the
/// interactive p99 exceeds its target.  An unreachable target forces
/// monotone shrinkage toward min_linger.
TEST(ServiceAdmission, AdaptiveLingerShrinksUnderTailPressure) {
  config cfg;
  cfg.max_batch = 4;
  cfg.max_linger = 5ms;
  cfg.adaptive_linger = true;
  cfg.min_linger = 50us;
  cfg.interactive_p99_target = 1us;  // unreachable: always shrink
  aligner svc(cfg);

  EXPECT_EQ(svc.effective_linger(), std::chrono::nanoseconds(5ms));

  const auto q = random_codes(64, 27);
  const auto s = random_codes(64, 28);
  // Keep traffic flowing so the controller ticks (it runs per dispatch,
  // rate-limited internally).
  for (int i = 0; i < 300; ++i) {
    auto t = svc.submit(view(q), view(s), {});
    (void)t.get();
    if (svc.effective_linger() <= std::chrono::nanoseconds(1ms)) break;
  }
  EXPECT_LT(svc.effective_linger(), std::chrono::nanoseconds(5ms));
  EXPECT_GE(svc.effective_linger(),
            std::chrono::nanoseconds(std::chrono::microseconds(50)));
}

/// The controller ranks the interactive p99 of the window since its last
/// tick: a slow stretch drives the linger down to min_linger, and a calm
/// stretch after it grows the linger back to max_linger.  A lifetime p99
/// would stay above target through the calm stretch (a dozen slow
/// samples among a few hundred fast ones are still its top 1%).
TEST(ServiceAdmission, AdaptiveLingerRecoversAfterASlowStretch) {
  constexpr auto target = 4ms;
  // Slow requests take at least four targets synchronously on this
  // machine (and build), whatever its speed.
  std::vector<char_t> slow_q, slow_s;
  for (index_t n = 1024;; n *= 2) {
    slow_q = random_codes(n, 60);
    slow_s = random_codes(n, 61);
    const auto t0 = std::chrono::steady_clock::now();
    (void)align(view(slow_q), view(slow_s));
    if (std::chrono::steady_clock::now() - t0 >= 4 * target || n >= 32768)
      break;
  }
  config cfg;
  cfg.max_batch = 8;
  cfg.max_linger = 500us;
  cfg.adaptive_linger = true;
  cfg.min_linger = 20us;
  cfg.interactive_p99_target = target;
  aligner svc(cfg);
  const auto min = std::chrono::nanoseconds(cfg.min_linger);
  const auto max = std::chrono::nanoseconds(cfg.max_linger);

  // One request at a time: each dispatch ticks the controller (ticks are
  // 5 ms apart) with the previous request in its window.
  for (int i = 0; i < 200 && svc.effective_linger() > min; ++i)
    (void)svc.submit(view(slow_q), view(slow_s)).get();
  ASSERT_EQ(svc.effective_linger(), min);

  // Calm: tiny requests, paced so the ticks keep coming, each far under
  // target / 2 and alone in its batch.
  const auto q = random_codes(32, 62);
  for (int i = 0; i < 400 && svc.effective_linger() < max; ++i) {
    (void)svc.submit(view(q), view(q)).get();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(svc.effective_linger(), max);
}

/// Adaptive-linger configuration is validated at construction.
TEST(ServiceAdmission, AdaptiveConfigValidation) {
  config bad;
  bad.adaptive_linger = true;
  bad.min_linger = 1ms;
  bad.max_linger = 100us;  // min > max
  EXPECT_THROW(aligner{bad}, invalid_argument_error);

  config bad2;
  bad2.adaptive_linger = true;
  bad2.interactive_p99_target = 0us;
  EXPECT_THROW(aligner{bad2}, invalid_argument_error);

  config bad3;
  bad3.tenant_rate = -1.0;
  EXPECT_THROW(aligner{bad3}, invalid_argument_error);
}

/// shed_oldest sheds within the submitting class only: a bulk flood can
/// never shed queued interactive requests.
TEST(ServiceAdmission, ShedOldestStaysWithinClass) {
  config cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  cfg.max_outstanding = 64;
  cfg.max_inflight_batches = 1;
  cfg.policy = backpressure::shed_oldest;
  cfg.max_linger = 0us;
  aligner svc(cfg);

  const auto q = random_codes(512, 29);
  const auto s = random_codes(512, 30);

  // Fill both class queues, then overflow the bulk queue: the shed
  // victims must all be bulk.
  std::vector<ticket> ia, bulk;
  submit_options bulk_so;
  bulk_so.cls = request_class::bulk;
  for (int i = 0; i < 2; ++i) ia.push_back(svc.submit(view(q), view(s), {}));
  for (int i = 0; i < 8; ++i)
    bulk.push_back(svc.submit(view(q), view(s), {}, bulk_so));

  const auto st = svc.stats();
  EXPECT_EQ(st.of(request_class::interactive).shed, 0u);
  EXPECT_GE(st.of(request_class::bulk).shed, 1u);

  int ia_ok = 0;
  for (auto& t : ia) {
    try {
      (void)t.get();
      ++ia_ok;
    } catch (const shed_error&) {
      ADD_FAILURE() << "interactive request shed by bulk overflow";
    }
  }
  EXPECT_EQ(ia_ok, 2);
  for (auto& t : bulk) {
    try {
      (void)t.get();
    } catch (const shed_error&) {
      // expected for some
    }
  }
}

}  // namespace
}  // namespace anyseq::service
